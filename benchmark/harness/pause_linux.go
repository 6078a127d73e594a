package harness

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// StartPauseWatch starts one watcher per CPU; they run for the life of the
// process. Each sleeps pauseTick at a time in the kernel and notes when it
// woke later than it asked to.
func StartPauseWatch() *PauseWatch {
	w := &PauseWatch{}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		go w.watch(cpu)
	}
	return w
}

func (w *PauseWatch) watch(cpu int) {
	runtime.LockOSThread()
	pinThread(cpu) // best effort: an unpinned watcher still sees the whole VM stop
	tick := syscall.NsecToTimespec(int64(pauseTick))
	last := time.Now()
	for {
		_ = syscall.Nanosleep(&tick, nil) // an early return only shortens the tick
		now := time.Now()
		if d := now.Sub(last) - pauseTick; d >= pauseFloor {
			w.mu.Lock()
			w.pauses = append(w.pauses, pause{from: last, d: d})
			w.mu.Unlock()
		}
		last = now
	}
}

// pinThread binds the calling OS thread to one CPU.
func pinThread(cpu int) {
	var mask [16]uint64 // 1024 CPUs, the kernel's default set size
	if cpu >= len(mask)*64 {
		return
	}
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
}
