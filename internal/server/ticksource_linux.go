//go:build linux

package server

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// haveTimerfd says this build can wait on a timerfd at all.
const haveTimerfd = true

// clockMonotonic is CLOCK_MONOTONIC, the clock time.Until measures
// against.
const clockMonotonic = 1

// itimerspec is struct itimerspec: a zero interval makes the timer
// one-shot, value is the relative expiry.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// fdTicks waits on a CLOCK_MONOTONIC timerfd registered with the Go
// netpoller. spec and buf live in the struct so a wait allocates nothing.
// poked is set by a poke before it arms the timer, so a wait whose own
// arm overwrote the poke's still sees it.
type fdTicks struct {
	f     *os.File
	fd    uintptr
	spec  itimerspec
	buf   [8]byte
	poked atomic.Bool
}

// openTimerfd creates the timerfd source.
func openTimerfd() (tickSource, error) {
	// TFD_NONBLOCK and TFD_CLOEXEC are O_NONBLOCK and O_CLOEXEC on every
	// architecture (include/uapi/linux/timerfd.h).
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// NewFile sees O_NONBLOCK and hands the descriptor to the netpoller,
	// which is what lets Read park the goroutine and deadlines work.
	f := os.NewFile(fd, "timerfd")
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return nil, fmt.Errorf("timerfd not pollable: %w", err)
	}
	return &fdTicks{f: f, fd: fd}, nil
}

// wait arms the timer d from now and reads the expiry count. The arm is
// relative because Go exposes no absolute monotonic reading to hand the
// kernel; the caller recomputes d from the absolute grid before every
// wait, so nothing accumulates, and because d was measured before the
// arm the expiry can only fall at or after the instant asked for. Every
// arm resets the fd's expiry count, so a tick left unread by an earlier
// wait is never mistaken for this one.
func (t *fdTicks) wait(d time.Duration) (bool, error) {
	if d <= 0 {
		d = 1 // a zero value would disarm the timer; 1 ns expires at once
	}
	t.spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0); errno != 0 {
		return false, fmt.Errorf("timerfd_settime: %w", errno)
	}
	if t.poked.Swap(false) {
		return true, nil
	}
	n, err := t.f.Read(t.buf[:])
	t.poked.Store(false) // a poke that ended this Read is spent
	switch {
	case err == nil && n == len(t.buf):
		return true, nil
	case errors.Is(err, os.ErrDeadlineExceeded), errors.Is(err, os.ErrClosed):
		return false, nil // wake
	default:
		return false, fmt.Errorf("timerfd read: %d bytes: %v", n, err)
	}
}

// poke marks the source poked and arms the timer to expire at once.
func (t *fdTicks) poke() {
	t.poked.Store(true)
	spec := itimerspec{value: syscall.Timespec{Nsec: 1}}
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wake expires the read deadline: a parked Read returns now, and the
// deadline stays expired, so a Read entered afterwards returns too.
func (t *fdTicks) wake() { _ = t.f.SetReadDeadline(time.Unix(1, 0)) }

func (t *fdTicks) close() { t.f.Close() }
