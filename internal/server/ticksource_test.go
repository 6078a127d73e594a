package server

import (
	"encoding/json"
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

	"skyscraper/internal/content"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
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
// armed for, for both sources, across 1,000 waits of 0-3 ms. How long
// after is the benchmark's business, not a test's.
func TestTickSourceNeverEarly(t *testing.T) {
	forEachTickSource(t, func(t *testing.T, src tickSource, _ chan struct{}) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			d := time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
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

// TestTickShardPanicsLeakNothing: six supervised shard restarts and a
// Close leave the descriptor table and the goroutine count where they
// were — each run's tick source is released on the way out, panic or not.
func TestTickShardPanicsLeakNothing(t *testing.T) {
	settle := func(want func() bool) {
		for i := 0; i < 100 && !want(); i++ {
			time.Sleep(20 * time.Millisecond)
		}
	}
	fds0, gor0 := openFDs(), runtime.NumGoroutine()

	const panics = 6 // the restart backoff doubles from 5 ms: ~315 ms in all
	var fired atomic.Int64
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			if i == 1 && fired.Load() < panics {
				fired.Add(1)
				panic("ticksource_test: injected shard panic")
			}
		},
		Logf: func(string, ...any) {}, // six stack traces help nobody
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	settle(func() bool { return srv.Status().PacerRestarts >= panics })
	time.Sleep(100 * time.Millisecond) // and a stretch of healthy broadcasting
	st := srv.Status()
	restarts, wakeups := st.PacerRestarts, st.EgressWakeups
	srv.Close()

	if restarts < panics {
		t.Fatalf("PacerRestarts = %d, want >= %d", restarts, panics)
	}
	if wakeups == 0 {
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
// and emits the golden (rep, chunk) sequence all the same.
func TestTickCreationFailureFallsBack(t *testing.T) {
	forceTimerTicks(t)
	logs := &logCounter{t: t, marker: "timerfd tick source unavailable"}
	srv := hourServer(t, logs.logf)
	time.Sleep(50 * time.Millisecond)
	snap := srv.Status()
	srv.Close()
	if snap.EgressTickSource != tickTimer {
		t.Errorf("egressTickSource = %q, want %q", snap.EgressTickSource, tickTimer)
	}
	if want := int64(1); haveTimerfd && logs.n.Load() != want {
		t.Errorf("%d fallback log lines, want %d", logs.n.Load(), want)
	}
	checkGoldenEquivalence(t)
}

// waitFor polls cond until it holds, failing the test once d has passed:
// a running wheel is waited on for what it has done, not for how long.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
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
	restarts := srv.Status().PacerRestarts
	srv.Close()

	if restarts != 0 {
		t.Errorf("PacerRestarts = %d, want 0 (demotion is not a restart)", restarts)
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

// TestWakeLateReported: a running wheel fills the wake-lateness histogram
// and /status carries the three tick-source fields under their names.
func TestWakeLateReported(t *testing.T) {
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 2, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "ten wake-lateness samples", func() bool { return srv.wakeLateness().Count() >= 10 })
	samples := srv.wakeLateness().Count()
	snap := srv.Status()
	wakeups := snap.EgressWakeups
	srv.Close()

	want := tickTimer
	if haveTimerfd {
		want = tickTimerfd
	}
	if snap.EgressTickSource != want {
		t.Errorf("egressTickSource = %q, want %q", snap.EgressTickSource, want)
	}
	// A shard counts its wakeup before it records the wakeup's lateness,
	// and the samples were read first.
	if samples < 10 || samples > wakeups {
		t.Errorf("%d wake-lateness samples for %d wakeups", samples, wakeups)
	}
	if snap.EgressWakeLateP50Us <= 0 || snap.EgressWakeLateP99Us < snap.EgressWakeLateP50Us {
		t.Errorf("wake-late quantiles p50 %v us, p99 %v us", snap.EgressWakeLateP50Us, snap.EgressWakeLateP99Us)
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"egressTickSource":"` + want + `"`, `"egressWakeLateP50Us":`, `"egressWakeLateP99Us":`} {
		if !strings.Contains(string(doc), field) {
			t.Errorf("/status document lacks %s", field)
		}
	}
	t.Logf("%s: wake late p50 %.0f us, p99 %.0f us over %d wakeups",
		snap.EgressTickSource, snap.EgressWakeLateP50Us, snap.EgressWakeLateP99Us, samples)
}

// recordingSender decodes every frame it is handed, one Send at a time —
// its SendBatch only loops, the shape of a sender that cannot batch.
type recordingSender struct {
	chunkBytes int
	sent       map[chanKey][]event
}

func (r *recordingSender) Send(g mcast.Group, frame []byte) (int, error) {
	c, err := wire.Decode(frame)
	if err != nil {
		return 0, err
	}
	k := chanKey{g.Video, g.Channel}
	r.sent[k] = append(r.sent[k], event{c.Seq, int(c.Offset) / r.chunkBytes})
	return 1, nil
}

func (r *recordingSender) SendBatch(entries []mcast.BatchEntry) (n int, err error) {
	for _, e := range entries {
		sn, serr := r.Send(e.Group, e.Frame)
		n += sn
		if err == nil {
			err = serr
		}
	}
	return n, err
}

// TestWheelCatchupBehindNonBatchingSender: a tick that stalls for several
// ticks in front of a sender that cannot batch (the fault injector's
// shape) is made good by the very next tick — every chunk that fell due
// goes out as one run, in order, and the entry is back within one spacing
// of its grid — instead of one chunk per tick with the stall carried for
// ever. The stalled tick is a drift event, and its log line names the
// chunk that was late, not the one the cursor has moved on to.
func TestWheelCatchupBehindNonBatchingSender(t *testing.T) {
	const (
		unit    = 200 * time.Millisecond
		spacing = unit / 4
		stall   = 5*spacing + spacing/2
	)
	blocked := false
	var logged []string
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			if !blocked {
				blocked = true
				time.Sleep(stall)
			}
		},
		Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSender{chunkBytes: 1024, sent: make(map[chanKey][]event)}
	srv.send = sendOnly{rec}
	srv.epoch = time.Now()
	sh := &wheelShard{s: srv, id: 0}
	e := srv.newWheelEntry(0, 2)
	e.resync(0)
	sh.entries = []*wheelEntry{e}
	tick := func() {
		sh.due = append(sh.due[:0], e)
		sh.stage(time.Since(srv.epoch))
		sh.release()
	}

	tick() // sends chunk 0, after the hook's stall
	k := chanKey{0, 2}
	if got := rec.sent[k]; len(got) != 1 || got[0] != (event{0, 0}) {
		t.Fatalf("stalled tick sent %v, want [(0, 0)]", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "pacing drift: "+e.group.String()+" seq 0 chunk 0 sent") {
		t.Errorf("stalled tick logged %q, want one drift line naming seq 0 chunk 0", logged)
	}
	tick() // one further tick: the whole backlog
	got := rec.sent[k]
	if len(got) != 6 {
		t.Fatalf("sent %d chunks after the catch-up tick, want 6 (chunk 0, then the 5 that fell due): %v", len(got), got)
	}
	checkContiguous(t, k, got, e.chunks)
	if late := time.Since(srv.epoch) - e.due; late >= spacing {
		t.Errorf("entry still %v behind its grid after one catch-up tick, want < %v", late, spacing)
	}
}

// TestNackResendNeverAliasesDispatch runs NACK re-sends flat out, from
// two connections' worth of arenas, against a wheel that is materialising
// the very same chunks for a live member every tick. Under -race this is
// the proof that a re-send shares no memory with a dispatch (each builds
// its own frame with its own Seq); on the wire every datagram — scheduled
// or re-sent — must decode, verify against the content function, and
// carry the Seq its sender meant.
func TestNackResendNeverAliasesDispatch(t *testing.T) {
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         4 * time.Millisecond, // a dispatch per channel per millisecond
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	recv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	for ch := 1; ch <= 3; ch++ {
		if err := srv.Hub().Join(mcast.Group{Video: 0, Channel: ch}, recv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	const resendSeq = 1 << 30 // far above any repetition the schedule reaches
	var scheduled, resent, bad int
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, wire.EncodedSize(1024))
		for {
			n, err := recv.Conn.Read(buf)
			if err != nil {
				return
			}
			c, err := wire.Decode(buf[:n])
			if err != nil || content.Verify(c.Payload, int(c.Video), srv.cache.channel(0, int(c.Channel)).base+int64(c.Offset)) >= 0 {
				bad++
				continue
			}
			if c.Seq >= resendSeq {
				resent++
			} else {
				scheduled++
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena frameArena
			for seq := uint32(resendSeq); time.Now().Before(deadline); seq++ {
				for ch := 1; ch <= 3; ch++ {
					srv.nackResend(0, ch, seq, []int{0, 1, 2, 3}, &arena)
				}
			}
		}()
	}
	wg.Wait()
	recv.Close()
	<-drained
	if st := srv.Status(); st.NackResends == 0 {
		t.Fatal("no re-send was exercised")
	}
	if bad != 0 {
		t.Errorf("%d datagrams failed to decode or verify", bad)
	}
	if scheduled == 0 || resent == 0 {
		t.Errorf("received %d scheduled and %d re-sent datagrams; want both flows on the wire", scheduled, resent)
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
