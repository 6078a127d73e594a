//go:build linux && (amd64 || arm64)

package mcast

import (
	"bufio"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// anonBytes sums the sizes of this process's anonymous read-write
// mappings. Bytes, not lines: the kernel merges adjacent anonymous
// mappings with equal protections into one line, so a leaked landing
// zone need not add a line, but it always adds its span.
func anonBytes(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var total int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 5 || !strings.HasPrefix(fields[1], "rw") {
			continue // file-backed or named ([heap], [stack], …) or not writable
		}
		lo, hi, _ := strings.Cut(fields[0], "-")
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable mapping %q", sc.Text())
		}
		total += int64(end - start)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return total
}

// settledGoroutines waits briefly for goroutines that are already on
// their way out, then reports how many remain.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestRecvCloseLeaksNothing opens and closes 200 shared receivers, each
// carrying one datagram through its read loop first, and holds the
// process to its baseline afterwards: open descriptors (the socket),
// anonymous mapped bytes (the recvmmsg landing zone: a missing Munmap
// leaks 4 MiB per receiver), goroutines (a read loop that outlives
// Close) and heap allocated per receiver (no 64 KiB portable-read buffer
// on a receiver whose batched rung is live).
func TestRecvCloseLeaksNothing(t *testing.T) {
	const receivers = 200
	g := Group{Video: 3, Channel: 7}
	tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	frame := testFrame(g, 1052)

	cycle := func() (batched, gro bool) {
		s, err := NewSharedReceiver(0, testClassify)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := s.Subscribe(g, 4, len(frame)) // a 33 KiB arena page
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.WriteToUDP(frame, s.Addr()); err != nil {
			t.Fatal(err)
		}
		sub.Release(drain(t, sub))
		batched, gro = s.RecvBatched(), s.GRO()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return batched, gro
	}
	batched, gro := cycle() // warm whatever the first receiver initializes lazily
	if !gro {
		t.Logf("GRO rung not live (kernel or %s/%s); checking the rungs that are", NoRecvmmsgEnv, NoGROEnv)
	}
	runtime.GC()
	fds, anon, goroutines := openFDs(t), anonBytes(t), runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < receivers; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	runtime.GC()

	if n := openFDs(t); n > fds {
		t.Errorf("%d descriptors open after %d receivers were closed, baseline %d", n, receivers, fds)
	}
	// The runtime may map a little more heap meanwhile; a leaked landing
	// zone per receiver would be receivers × 4 MiB.
	zone := int64(recvBatch * maxDatagram)
	if grown := anonBytes(t) - anon; grown > 8*zone {
		t.Errorf("anonymous mappings grew %d MiB over %d closed receivers (%.1f landing zones)",
			grown>>20, receivers, float64(grown)/float64(zone))
	}
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Errorf("%d goroutines after %d receivers were closed, baseline %d", n, receivers, goroutines)
	}
	if batched && !raceEnabled {
		perReceiver := (after.TotalAlloc - before.TotalAlloc) / receivers
		if perReceiver >= maxDatagram {
			t.Errorf("each receiver allocates %d heap bytes, want < %d (no portable-read buffer while the batched rung is live)",
				perReceiver, maxDatagram)
		}
		t.Logf("%d heap bytes allocated per receiver", perReceiver)
	}
}

// TestRecvErrorBackoff pins the read-error latch: a persistently failing
// read is counted and backed off — tens of wakeups over the window, not
// a spinning core's millions — and a later successful read resumes
// delivery. The failures are real: with IP_RECVERR set, every datagram
// the receiver's own socket sends to a closed port comes back as an
// ICMP error its next read returns. A passed deadline is not a failure
// (TestRecvDeadlineIsNotAnError).
func TestRecvErrorBackoff(t *testing.T) {
	rungs(t, func(t *testing.T, batched bool) {
		s, err := NewSharedReceiver(0, testClassify)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if batched && !s.RecvBatched() {
			t.Skip("recvmmsg rung not live")
		}
		s.SetRecvBatched(batched)
		g := Group{Video: 9, Channel: 0}
		sub, err := s.Subscribe(g, 8, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.rc.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_RECVERR, 1)
		}); err != nil {
			t.Fatal(err)
		}
		dead, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.LocalAddr().(*net.UDPAddr)
		dead.Close()
		stop := make(chan struct{})
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = s.conn.WriteToUDP([]byte("x"), deadAddr)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		time.Sleep(300 * time.Millisecond)
		close(stop)
		<-sent
		errs := s.Stats().ReadErrors
		if errs == 0 {
			t.Fatal("ReadErrors = 0; the failing reads were not counted")
		}
		if errs > 1000 {
			t.Errorf("ReadErrors = %d over 300ms; the error path is spinning, want backoff", errs)
		}
		t.Logf("%d read errors over 300ms", errs)

		hub, err := NewHub()
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		if err := hub.Join(g, s.Addr()); err != nil {
			t.Fatal(err)
		}
		if _, err := hub.Send(g, testFrame(g, 64)); err != nil {
			t.Fatal(err)
		}
		slot := drain(t, sub)
		if len(sub.Frame(slot)) != 64 {
			t.Fatalf("got %d bytes after recovery, want 64", len(sub.Frame(slot)))
		}
		sub.Release(slot)
	})
}

// TestRecvCloseWithDeadlineLeaksNothing: receivers closed while their
// loop waits out a handler's deadline, an hour away, leave no read loop
// and no descriptor behind.
func TestRecvCloseWithDeadlineLeaksNothing(t *testing.T) {
	cycle := func() {
		armed := make(chan struct{})
		s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Handle: func(frames [][]byte) time.Time {
			close(armed)
			return time.Now().Add(time.Hour)
		}})
		if err != nil {
			t.Fatal(err)
		}
		s.Wake()
		<-armed
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	runtime.GC()
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	for range 200 {
		cycle()
	}
	if n := openFDs(t); n > fds {
		t.Errorf("%d descriptors open after 200 receivers were closed mid-deadline, baseline %d", n, fds)
	}
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Errorf("%d goroutines after 200 receivers were closed mid-deadline, baseline %d", n, goroutines)
	}
}
