package server

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forEachTickSource runs fn once per tick source this build has, handing
// it the source and the stop channel a server would close before waking
// it.
func forEachTickSource(t *testing.T, fn func(t *testing.T, src tickSource, stop chan struct{})) {
	t.Run(tickTimer, func(t *testing.T) {
		stop := make(chan struct{})
		src := newTimerTicks(stop)
		defer src.close()
		fn(t, src, stop)
	})
	t.Run(tickTimerfd, func(t *testing.T) {
		if !haveTimerfd {
			t.Skip("no timerfd on this platform")
		}
		src, err := newFdTicks()
		if err != nil {
			t.Fatal(err)
		}
		defer src.close()
		fn(t, src, make(chan struct{}))
	})
}

// forceTimerTicks makes timerfd creation fail for the rest of the test,
// which is how a kernel without timerfd (or out of descriptors) looks.
func forceTimerTicks(t *testing.T) {
	t.Helper()
	saved := newFdTicks
	newFdTicks = func() (tickSource, error) { return nil, errors.New("ticksource_test: forced creation failure") }
	t.Cleanup(func() { newFdTicks = saved })
}

// logCounter is a Config.Logf that counts the lines containing a marker.
type logCounter struct {
	t      *testing.T
	marker string
	n      atomic.Int64
}

func (l *logCounter) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if strings.Contains(line, l.marker) {
		l.n.Add(1)
	}
	l.t.Log(line)
}

// TestTickSourceNeverEarly: a wait returns at or after the instant it was
// armed for, for both sources, across 100 waits of 0-1.5 ms. How long
// after is the benchmark's business, not a test's.
func TestTickSourceNeverEarly(t *testing.T) {
	forEachTickSource(t, func(t *testing.T, src tickSource, _ chan struct{}) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 100; i++ {
			d := time.Duration(rng.Int63n(int64(1500 * time.Microsecond)))
			at := time.Now().Add(d)
			ticked, err := src.wait(time.Until(at))
			if err != nil || !ticked {
				t.Fatalf("wait %d (%v): ticked %v, err %v", i, d, ticked, err)
			}
			if early := time.Until(at); early > 0 {
				t.Fatalf("wait %d (%v) returned %v early", i, d, early)
			}
		}
	})
}

// TestTickWaitZeroAlloc: the steady-state wait allocates nothing.
func TestTickWaitZeroAlloc(t *testing.T) {
	forEachTickSource(t, func(t *testing.T, src tickSource, _ chan struct{}) {
		if allocs := testing.AllocsPerRun(200, func() {
			if ticked, err := src.wait(20 * time.Microsecond); err != nil || !ticked {
				t.Fatalf("wait: ticked %v, err %v", ticked, err)
			}
		}); allocs != 0 {
			t.Errorf("%v allocs per wait, want 0", allocs)
		}
	})
}

// TestTickWakeEndsWait: the stop sequence (close the channel, wake the
// source) ends a one-hour wait already parked, and every wait after it.
func TestTickWakeEndsWait(t *testing.T) {
	forEachTickSource(t, func(t *testing.T, src tickSource, stop chan struct{}) {
		done := make(chan bool)
		go func() {
			ticked, _ := src.wait(time.Hour)
			done <- ticked
		}()
		time.Sleep(20 * time.Millisecond) // let it park
		close(stop)
		src.wake()
		select {
		case ticked := <-done:
			if ticked {
				t.Error("woken wait reported a tick")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("wake did not end a parked one-hour wait")
		}
		if ticked, err := src.wait(time.Hour); ticked || err != nil {
			t.Errorf("wait after wake: ticked %v, err %v; want false, nil", ticked, err)
		}
	})
}

// hourServer starts a server whose chunks are an hour apart: after the
// chunk at the epoch its shards park on a one-hour wait.
func hourServer(t *testing.T, logf func(string, ...any)) *Server {
	t.Helper()
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         time.Hour,
		BytesPerUnit: 1024,
		ChunkBytes:   1024,
		Logf:         logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestTickStopWakesParkedShard: Close returns promptly although every
// shard is parked an hour out, on either tick source.
func TestTickStopWakesParkedShard(t *testing.T) {
	for _, force := range []bool{false, true} {
		name := tickTimerfd
		if force {
			name = tickTimer
		}
		t.Run(name, func(t *testing.T) {
			if force {
				forceTimerTicks(t)
			} else if !haveTimerfd {
				t.Skip("no timerfd on this platform")
			}
			srv := hourServer(t, t.Logf)
			time.Sleep(50 * time.Millisecond) // first chunks out, shards parked
			if got := srv.EgressTickSource(); got != name {
				t.Errorf("EgressTickSource = %q, want %q", got, name)
			}
			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not wake the parked shards")
			}
		})
	}
}

// openFDs counts this process's open descriptors, or -1 where /proc is not
// there to ask.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestTickShardPanicsLeakNothing: four supervised shard restarts — the
// wall clock panicking in a shard's hold — and a Close leave the
// descriptor table and the goroutine count where they were: each run's
// tick source is released on the way out, panic or not. It is also the
// check on how Start splits the channels: one shard a P, never more
// shards than channels.
func TestTickShardPanicsLeakNothing(t *testing.T) {
	settle := func(want func() bool) {
		for i := 0; i < 100 && !want(); i++ {
			time.Sleep(20 * time.Millisecond)
		}
	}
	fds0, gor0 := openFDs(), runtime.NumGoroutine()

	const panics = 4 // the restart backoff doubles from 5 ms: ~75 ms in all
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Logf:         func(string, ...any) {}, // four stack traces help nobody
	})
	if err != nil {
		t.Fatal(err)
	}
	PanicShards(srv, panics, 0)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	settle(func() bool { return srv.Status().ShardRestarts >= panics })
	wakeups := srv.Status().EgressWakeups
	settle(func() bool { return srv.Status().EgressWakeups >= wakeups+10 }) // and a stretch of healthy broadcasting
	st := srv.Status()
	srv.Close()

	if st.ShardRestarts != panics {
		t.Fatalf("ShardRestarts = %d, want %d", st.ShardRestarts, panics)
	}
	if want := min(runtime.GOMAXPROCS(0), 3); st.EgressShards != want {
		t.Errorf("EgressShards = %d for 3 channels, want %d: one a P, never more than the channels", st.EgressShards, want)
	}
	if st.EgressWakeups < wakeups+10 {
		t.Error("no wakeups after the restarts")
	}
	settle(func() bool { return runtime.NumGoroutine() <= gor0 })
	if gor := runtime.NumGoroutine(); gor > gor0 {
		t.Errorf("goroutines: %d before, %d after", gor0, gor)
	}
	if fds0 < 0 {
		t.Log("no /proc/self/fd here; descriptor count not checked")
	} else if fds := openFDs(); fds > fds0 {
		t.Errorf("open descriptors: %d before, %d after", fds0, fds)
	}
}

// TestTickCreationFailureFallsBack: with timerfd creation failing, the
// wheel runs on the runtime timer — one log line, "timer" in /status —
// and the epoch's tick goes out all the same.
func TestTickCreationFailureFallsBack(t *testing.T) {
	forceTimerTicks(t)
	logs := &logCounter{t: t, marker: "timerfd tick source unavailable"}
	srv := hourServer(t, logs.logf)
	waitFor(t, 5*time.Second, "the epoch's tick", func() bool { return srv.Status().EgressScheduled == 3 })
	snap := srv.Status()
	srv.Close()
	if snap.EgressTickSource != tickTimer {
		t.Errorf("egressTickSource = %q, want %q", snap.EgressTickSource, tickTimer)
	}
	if want := int64(1); haveTimerfd && logs.n.Load() != want {
		t.Errorf("%d fallback log lines, want %d", logs.n.Load(), want)
	}
}

// brokenTicks is a timerfd that opens and then answers every wait with an
// error — a read that returned neither a tick nor "closed".
type brokenTicks struct{ closed atomic.Bool }

func (b *brokenTicks) wait(time.Duration) (bool, error) {
	return false, errors.New("ticksource_test: short read")
}
func (b *brokenTicks) wake()  {}
func (b *brokenTicks) close() { b.closed.Store(true) }

// TestTickReadFailureDemotes: a source that fails mid-run is closed and
// replaced by the runtime timer without the run ending — no restart, one
// log line, broadcasting continues.
func TestTickReadFailureDemotes(t *testing.T) {
	if !haveTimerfd {
		t.Skip("no timerfd on this platform")
	}
	var mu sync.Mutex
	var opened []*brokenTicks
	saved := newFdTicks
	newFdTicks = func() (tickSource, error) {
		b := &brokenTicks{}
		mu.Lock()
		opened = append(opened, b)
		mu.Unlock()
		return b, nil
	}
	t.Cleanup(func() { newFdTicks = saved })

	logs := &logCounter{t: t, marker: "timerfd tick source unavailable"}
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 2, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Logf:         logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	// The schedule keeps running on the timer: ten wakeups after the
	// demotion.
	waitFor(t, 10*time.Second, "ten wakeups on the runtime timer", func() bool {
		st := srv.Status()
		return st.EgressTickSource == tickTimer && st.EgressWakeups >= 10
	})
	restarts := srv.Status().ShardRestarts
	srv.Close()

	if restarts != 0 {
		t.Errorf("ShardRestarts = %d, want 0 (demotion is not a restart)", restarts)
	}
	if logs.n.Load() != 1 {
		t.Errorf("%d demotion log lines, want 1", logs.n.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(opened) == 0 {
		t.Fatal("the seam was never used")
	}
	for i, b := range opened {
		if !b.closed.Load() {
			t.Errorf("broken source %d was not closed", i)
		}
	}
}

// BenchmarkWheelWake is the layer view of the tick source: a shard-shaped
// loop — arm for the next instant of an absolute grid, wake, measure how
// far past the instant it is — on one P in an otherwise idle process,
// which is where the runtime timer's millisecond rounding shows. It
// reports the lateness quantiles; ns/op is just the spacing.
func BenchmarkWheelWake(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, spacing := range []time.Duration{3125 * time.Microsecond, 17500 * time.Microsecond} {
		for _, name := range []string{tickTimerfd, tickTimer} {
			b.Run(fmt.Sprintf("spacing=%v/source=%s", spacing, name), func(b *testing.B) {
				var src tickSource = newTimerTicks(make(chan struct{}))
				if name == tickTimerfd {
					if !haveTimerfd {
						b.Skip("no timerfd on this platform")
					}
					var err error
					if src, err = newFdTicks(); err != nil {
						b.Fatal(err)
					}
				}
				defer src.close()
				late := make([]time.Duration, 0, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				epoch := time.Now()
				for i := 1; i <= b.N; i++ {
					next := time.Duration(i) * spacing
					if ticked, err := src.wait(time.Until(epoch.Add(next))); err != nil || !ticked {
						b.Fatalf("wait: ticked %v, err %v", ticked, err)
					}
					late = append(late, time.Since(epoch)-next)
				}
				b.StopTimer()
				sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
				b.ReportMetric(float64(late[(len(late)-1)/2]), "late-p50-ns")
				b.ReportMetric(float64(late[(len(late)-1)*99/100]), "late-p99-ns")
			})
		}
	}
}
