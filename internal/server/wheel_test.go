package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/vod"
)

// wheelScheme builds an M-video, K-channel broadcast (W = 2), the same
// construction the live tests use.
func wheelScheme(t testing.TB, m, k int) *core.Scheme {
	t.Helper()
	cfg := vod.Config{ServerMbps: 1.5 * float64(m*k), Videos: m, LengthMin: 120, RateMbps: 1.5}
	sch, err := core.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sch.K() != k {
		t.Fatalf("K = %d, want %d", sch.K(), k)
	}
	return sch
}

// chanKey identifies one channel in the recorded event logs.
type chanKey struct{ video, channel int }

// event is one hook observation: repetition n, chunk c.
type event struct {
	n uint32
	c int
}

// recordEngine runs one server on the given engine for d, recording every
// (video, channel, rep, chunk) the engine dispatched, in order, per
// channel.
func recordEngine(t *testing.T, engine string, sch *core.Scheme, unit, d time.Duration) map[chanKey][]event {
	t.Helper()
	var mu sync.Mutex
	events := make(map[chanKey][]event)
	srv, err := New(Config{
		Scheme:       sch,
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		EgressEngine: engine,
		PacerHook: func(v, i int, n uint32, c int) {
			mu.Lock()
			k := chanKey{v, i}
			events[k] = append(events[k], event{n, c})
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if engine == EnginePacer && srv.EgressShards() != 0 {
		t.Errorf("pacer engine reports %d shards, want 0", srv.EgressShards())
	}
	if engine == EngineWheel && srv.EgressShards() == 0 {
		t.Error("wheel engine reports 0 shards")
	}
	time.Sleep(d)
	srv.Close()
	return events
}

// checkContiguous asserts a channel's event sequence walks the broadcast
// grid one chunk at a time: after (n, c) comes (n, c+1), or (n+1, 0) at
// the repetition boundary.
func checkContiguous(t *testing.T, k chanKey, evs []event, chunks int) {
	t.Helper()
	for j := 1; j < len(evs); j++ {
		prev, cur := evs[j-1], evs[j]
		want := event{prev.n, prev.c + 1}
		if want.c >= chunks {
			want = event{prev.n + 1, 0}
		}
		if cur != want {
			t.Fatalf("video%d/ch%d event %d: got (rep %d, chunk %d), want (rep %d, chunk %d) after (rep %d, chunk %d)",
				k.video, k.channel, j, cur.n, cur.c, want.n, want.c, prev.n, prev.c)
		}
	}
}

// TestWheelGoldenEquivalence is the schedule half of the golden
// equivalence gate: for every channel, the wheel engine must emit exactly
// the (rep, chunk) sequence the per-pacer engine emits — the same
// absolute grid, walked contiguously, from the epoch. Start jitter can
// shift where a sequence begins by a chunk or two on a loaded machine, so
// the sequences are aligned on the later start before the element-wise
// comparison; contiguity pins everything after it.
func TestWheelGoldenEquivalence(t *testing.T) { checkGoldenEquivalence(t) }

// checkGoldenEquivalence is the body of TestWheelGoldenEquivalence, shared
// with the run that forces the shards onto the runtime-timer tick source.
func checkGoldenEquivalence(t *testing.T) {
	t.Helper()
	sch := wheelScheme(t, 2, 3)
	const unit = 25 * time.Millisecond
	wheel := recordEngine(t, EngineWheel, sch, unit, time.Second)
	pacer := recordEngine(t, EnginePacer, sch, unit, time.Second)

	for v := 0; v < 2; v++ {
		for i := 1; i <= 3; i++ {
			k := chanKey{v, i}
			chunks := int(sch.Sizes()[i-1]) * 4096 / 1024
			we, pe := wheel[k], pacer[k]
			if len(we) < 8 || len(pe) < 8 {
				t.Fatalf("video%d/ch%d: too few events (wheel %d, pacer %d)", v, i, len(we), len(pe))
			}
			checkContiguous(t, k, we, chunks)
			checkContiguous(t, k, pe, chunks)
			// Both engines resume from the wall clock, so each sequence
			// must start within a couple of chunks of the epoch.
			for name, first := range map[string]event{"wheel": we[0], "pacer": pe[0]} {
				if first.n != 0 || first.c > 2 {
					t.Fatalf("video%d/ch%d: %s starts at (rep %d, chunk %d), want near (0, 0)",
						v, i, name, first.n, first.c)
				}
			}
			// Align on the later start; contiguity makes slot arithmetic
			// exact from there.
			for len(we) > 0 && len(pe) > 0 && we[0] != pe[0] {
				if a, b := we[0], pe[0]; a.n < b.n || (a.n == b.n && a.c < b.c) {
					we = we[1:]
				} else {
					pe = pe[1:]
				}
			}
			n := len(we)
			if len(pe) < n {
				n = len(pe)
			}
			if n < 8 {
				t.Fatalf("video%d/ch%d: only %d aligned events", v, i, n)
			}
			for j := 0; j < n; j++ {
				if we[j] != pe[j] {
					t.Fatalf("video%d/ch%d aligned event %d: wheel (rep %d, chunk %d), pacer (rep %d, chunk %d)",
						v, i, j, we[j].n, we[j].c, pe[j].n, pe[j].c)
				}
			}
		}
	}
}

// TestWheelSustainsManyChannels is the scale gate: 100 videos × 21
// channels driven from at most GOMAXPROCS shard goroutines, with the
// drift watchdog silent and wakeups far below the chunk count.
func TestWheelSustainsManyChannels(t *testing.T) {
	if testing.Short() {
		t.Skip("2,100-channel sustain test in -short mode")
	}
	if raceEnabled {
		// This test asserts a real-time property — 2,100 channels kept
		// on schedule with a silent drift watchdog — and the race
		// detector's 5-20x dispatch slowdown makes that workload
		// infeasible on small hosts: the wheel falls permanently behind
		// and every tick counts as drift. Wheel correctness under -race
		// is covered by the golden-equivalence, panic-recovery, and
		// mechanics tests.
		t.Skip("real-time sustain assertion is meaningless under the race detector")
	}
	sch := wheelScheme(t, 100, 21)
	srv, err := New(Config{
		Scheme:       sch,
		Unit:         100 * time.Millisecond,
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
	time.Sleep(2 * time.Second)
	shards, wakeups, drift := srv.EgressShards(), srv.EgressWakeups(), srv.PacerDriftEvents()
	srv.Close()

	if max := runtime.GOMAXPROCS(0); shards < 1 || shards > max {
		t.Errorf("EgressShards = %d, want in [1, %d]", shards, max)
	}
	if wakeups == 0 {
		t.Error("EgressWakeups = 0, want > 0")
	}
	if drift != 0 {
		t.Errorf("PacerDriftEvents = %d, want 0 (watchdog must stay silent at 2,100 channels)", drift)
	}
	// 2,100 channels each due every unit/4 for 2s is ~168,000 chunk
	// dispatches; per-channel timers would take one wakeup each. The
	// wheel must do it in roughly ticks×shards wakeups.
	if limit := int64(400 * shards); wakeups > limit {
		t.Errorf("EgressWakeups = %d for ~80 ticks on %d shards, want <= %d", wakeups, shards, limit)
	}
	t.Logf("sustain: %d shards, %d wakeups, %d drift events", shards, wakeups, drift)
}

// TestWheelShardPanicRecovered mirrors the pacer supervisor test at the
// shard level: a hook panic kills a whole shard (many channels), the
// supervisor restarts it, and every channel on it rejoins the absolute
// grid — verified by per-channel contiguity holding no worse than one
// gap across the restart.
func TestWheelShardPanicRecovered(t *testing.T) {
	sch := wheelScheme(t, 2, 3)
	var mu sync.Mutex
	events := make(map[chanKey][]event)
	panicked := false
	srv, err := New(Config{
		Scheme:       sch,
		Unit:         25 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			mu.Lock()
			events[chanKey{v, i}] = append(events[chanKey{v, i}], event{n, c})
			doPanic := v == 0 && i == 2 && n >= 1 && !panicked
			if doPanic {
				panicked = true
			}
			mu.Unlock()
			if doPanic {
				panic("wheel_test: injected shard panic")
			}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1200 * time.Millisecond)
	restarts := srv.PacerRestarts()
	srv.Close()

	if restarts < 1 {
		t.Fatalf("PacerRestarts = %d, want >= 1 after injected panic", restarts)
	}
	mu.Lock()
	defer mu.Unlock()
	for k, evs := range events {
		if len(evs) < 2 {
			t.Errorf("video%d/ch%d: only %d events", k.video, k.channel, len(evs))
			continue
		}
		// Across the restart the grid may skip chunks that fell into the
		// backoff window, and may re-send the slot that was current when
		// the panic hit (resync floors to the current slot, exactly as
		// pace's resume does — duplicates are idempotent to clients). It
		// must never go backwards.
		for j := 1; j < len(evs); j++ {
			prev, cur := evs[j-1], evs[j]
			if cur.n < prev.n || (cur.n == prev.n && cur.c < prev.c) {
				t.Fatalf("video%d/ch%d event %d: (rep %d, chunk %d) after (rep %d, chunk %d) — schedule went backwards",
					k.video, k.channel, j, cur.n, cur.c, prev.n, prev.c)
			}
		}
		// The panicked channel must have resumed after its restart.
		if k == (chanKey{0, 2}) {
			last := evs[len(evs)-1]
			if last.n < 1 || len(evs) < 3 {
				t.Errorf("video0/ch2 did not resume after panic: %d events, last (rep %d, chunk %d)",
					len(evs), last.n, last.c)
			}
		}
	}
}

// TestTimerWheelMechanics pins the wheel data structure itself: entries
// surface exactly at their due ticks, level-1 windows cascade into level
// 0, and the overflow list re-files once per lap.
func TestTimerWheelMechanics(t *testing.T) {
	q := time.Millisecond
	var w timerWheel
	w.reset(q, 0)
	mk := func(due time.Duration) *wheelEntry {
		return &wheelEntry{due: due, period: time.Hour, spacing: time.Hour, chunks: 1}
	}
	near := mk(3 * q)                   // level 0
	mid := mk(300 * q)                  // level 1
	far := mk(time.Duration(70000) * q) // overflow (beyond 65,536 ticks)
	past := mk(-5 * q)                  // clamped to the current tick
	for _, e := range []*wheelEntry{near, mid, far, past} {
		w.insert(e)
	}

	got := w.collect(0, nil)
	if len(got) != 1 || got[0] != past {
		t.Fatalf("collect(0) = %v entries, want just the past-due entry", len(got))
	}
	if next, ok := w.nextDue(); !ok || next != 3*q {
		t.Fatalf("nextDue = %v, %v; want %v, true", next, ok, 3*q)
	}
	got = w.collect(3*q, nil)
	if len(got) != 1 || got[0] != near {
		t.Fatalf("collect(3q) = %v entries, want the near entry", len(got))
	}
	if got = w.collect(299*q, nil); len(got) != 0 {
		t.Fatalf("collect(299q) returned %d entries early", len(got))
	}
	got = w.collect(300*q, nil)
	if len(got) != 1 || got[0] != mid {
		t.Fatalf("collect(300q) = %d entries, want the cascaded level-1 entry", len(got))
	}
	got = w.collect(70000*q, nil)
	if len(got) != 1 || got[0] != far {
		t.Fatalf("collect(70000q) = %d entries, want the overflow entry", len(got))
	}
	if _, ok := w.nextDue(); ok {
		t.Error("nextDue reports work on an empty wheel")
	}
}

// TestWheelEntryResyncMatchesPace pins resync to pace's resume
// arithmetic: next chunk at or after elapsed on the absolute grid.
func TestWheelEntryResyncMatchesPace(t *testing.T) {
	e := &wheelEntry{period: 80 * time.Millisecond, spacing: 10 * time.Millisecond, chunks: 8}
	for _, tc := range []struct {
		elapsed time.Duration
		n       uint32
		c       int
	}{
		{0, 0, 0},
		{9 * time.Millisecond, 0, 0}, // mid-slot floors to the slot
		{10 * time.Millisecond, 0, 1},
		{79 * time.Millisecond, 0, 7},
		{80 * time.Millisecond, 1, 0},
		{845 * time.Millisecond, 10, 4},
	} {
		e.resync(tc.elapsed)
		if e.n != tc.n || e.c != tc.c {
			t.Errorf("resync(%v) = (rep %d, chunk %d), want (rep %d, chunk %d)",
				tc.elapsed, e.n, e.c, tc.n, tc.c)
		}
		want := time.Duration(tc.n)*e.period + time.Duration(tc.c)*e.spacing
		if e.due != want {
			t.Errorf("resync(%v) due = %v, want %v", tc.elapsed, e.due, want)
		}
	}
}

// recordingBatchSender captures every batch a shard dispatches, for
// direct dispatch() tests that bypass the hub.
type recordingBatchSender struct {
	batches [][]mcast.BatchEntry
}

func (r *recordingBatchSender) Send(g mcast.Group, frame []byte) (int, error) { return 1, nil }

func (r *recordingBatchSender) SendBatch(entries []mcast.BatchEntry) (int, error) {
	r.batches = append(r.batches, append([]mcast.BatchEntry(nil), entries...))
	return len(entries), nil
}

// catchupDispatch builds a two-channel shard whose epoch sits behind the
// wall clock by the given offset, runs one dispatch, and returns what it
// staged: the recorded batches, the hook's per-channel (rep, chunk)
// events, the shard's entries, and the drift-event count.
func catchupDispatch(t *testing.T, chunkBytes int, behind time.Duration) (*recordingBatchSender, map[chanKey][]event, []*wheelEntry, int64) {
	t.Helper()
	sch := wheelScheme(t, 1, 3)
	events := make(map[chanKey][]event)
	srv, err := New(Config{
		Scheme:       sch,
		Unit:         250 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   chunkBytes,
		PacerHook: func(v, i int, n uint32, c int) {
			events[chanKey{v, i}] = append(events[chanKey{v, i}], event{n, c})
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBatchSender{}
	srv.send = rec
	srv.epoch = time.Now().Add(-behind)
	sh := &wheelShard{s: srv, id: 0}
	sh.wheel.reset(time.Millisecond, 0)
	for _, ch := range []int{1, 2} {
		e := srv.newWheelEntry(0, ch)
		e.resync(0)
		sh.entries = append(sh.entries, e)
		sh.due = append(sh.due, e)
	}
	sh.dispatch()
	return rec, events, sh.entries, srv.driftEvents.Value()
}

// TestWheelCatchupStagesRuns pins the catch-up shaping dispatch feeds
// the GSO path: a behind-schedule entry stages every due chunk as ONE
// contiguous same-group run in a single batch, in schedule order, with
// each staged frame backed by distinct memory; runs stop at the
// repetition boundary (the resident-frame aliasing guard) and at
// wheelMaxRun; a healthy entry stages exactly one chunk.
func TestWheelCatchupStagesRuns(t *testing.T) {
	k1, k2 := chanKey{0, 1}, chanKey{0, 2}

	t.Run("steady", func(t *testing.T) {
		rec, events, _, drift := catchupDispatch(t, 1024, 0)
		if len(rec.batches) != 1 || len(rec.batches[0]) != 2 {
			t.Fatalf("staged %d batches (first %d entries), want 1 batch of 2", len(rec.batches), len(rec.batches[0]))
		}
		for _, k := range []chanKey{k1, k2} {
			if evs := events[k]; len(evs) != 1 || evs[0] != (event{0, 0}) {
				t.Errorf("video%d/ch%d staged %v, want [(0, 0)]", k.video, k.channel, evs)
			}
		}
		if drift != 0 {
			t.Errorf("driftEvents = %d on a healthy dispatch, want 0", drift)
		}
	})

	t.Run("behind", func(t *testing.T) {
		// 375 ms behind at 62.5 ms spacing: channel 1 (4 chunks per
		// repetition) must stop its run at the repetition boundary with
		// chunks 0-3 of rep 0; channel 2 (8 chunks) stages all 7 due.
		rec, events, entries, drift := catchupDispatch(t, 1024, 375*time.Millisecond)
		if len(rec.batches) != 1 {
			t.Fatalf("staged %d batches, want 1", len(rec.batches))
		}
		batch := rec.batches[0]
		if len(batch) != 11 {
			t.Fatalf("staged %d entries, want 11 (4 + 7)", len(batch))
		}
		switches := 0
		for i := 1; i < len(batch); i++ {
			if batch[i].Group != batch[i-1].Group {
				switches++
			}
		}
		if switches != 1 {
			t.Errorf("batch switches groups %d times, want 1 (one contiguous run per channel)", switches)
		}
		if evs := events[k1]; len(evs) != 4 || evs[0] != (event{0, 0}) || evs[3] != (event{0, 3}) {
			t.Errorf("video0/ch1 staged %v, want rep 0 chunks 0-3", evs)
		}
		checkContiguous(t, k1, events[k1], 4)
		if evs := events[k2]; len(evs) != 7 || evs[0] != (event{0, 0}) {
			t.Errorf("video0/ch2 staged %v, want rep 0 chunks 0-6", evs)
		}
		checkContiguous(t, k2, events[k2], 8)
		// Distinct backing memory per staged frame: the boundary stop and
		// the spare-scratch pool together guarantee no two entries of one
		// batch share a buffer (a shared resident frame patched twice
		// would corrupt the earlier entry's Seq).
		seen := make(map[*byte]bool)
		for _, be := range batch {
			p := &be.Frame[0]
			if seen[p] {
				t.Fatal("two staged frames share one backing buffer")
			}
			seen[p] = true
		}
		// The boundary-stopped entry re-enters the rotation still behind,
		// poised at the next repetition's first chunk.
		if e1 := entries[0]; e1.n != 1 || e1.c != 0 {
			t.Errorf("channel 1 cursor at (rep %d, chunk %d) after boundary stop, want (1, 0)", e1.n, e1.c)
		}
		if drift != 2 {
			t.Errorf("driftEvents = %d, want 2 (one per late entry per dispatch)", drift)
		}
	})

	t.Run("capped", func(t *testing.T) {
		// 64-byte chunks give the channels 64 and 128 chunks per
		// repetition; 450 ms behind is over 64 spacings for both, so each
		// run stops at exactly wheelMaxRun — the GSO segment cap.
		rec, events, _, _ := catchupDispatch(t, 64, 450*time.Millisecond)
		if len(rec.batches) != 1 {
			t.Fatalf("staged %d batches, want 1", len(rec.batches))
		}
		if len(rec.batches[0]) != 2*wheelMaxRun {
			t.Fatalf("staged %d entries, want %d", len(rec.batches[0]), 2*wheelMaxRun)
		}
		for _, k := range []chanKey{k1, k2} {
			if got := len(events[k]); got != wheelMaxRun {
				t.Errorf("video%d/ch%d staged %d chunks, want the %d cap", k.video, k.channel, got, wheelMaxRun)
			}
			checkContiguous(t, k, events[k], 64*64) // chunks ≥ cap; contiguity is what matters
		}
	})
}

// BenchmarkWheelDispatch measures the scheduling machinery alone: one
// tick's collect → advance → re-insert cycle with every channel due, at
// the configured channel counts. This is the per-tick overhead the wheel
// engine adds on top of frame preparation and the send itself. The "full"
// cases are the whole dispatch on paper-shaped schedules (200 and 400
// channels) with 5 % of the channels heard: what a tick costs when it
// costs what is heard — and, faulted, what the fault injector in front of
// the sender adds to it.
func BenchmarkWheelDispatch(b *testing.B) {
	for _, k := range []int{20, 40} {
		b.Run(fmt.Sprintf("full/channels=%d/heard=5%%", 10*k), func(b *testing.B) { benchFullDispatch(b, k, false) })
	}
	b.Run("full/channels=200/heard=5%/faulted", func(b *testing.B) { benchFullDispatch(b, 20, true) })
	for _, channels := range []int{2, 100, 2100} {
		b.Run(fmt.Sprintf("channels=%d", channels), func(b *testing.B) {
			const spacing = 25 * time.Millisecond
			entries := make([]*wheelEntry, channels)
			for i := range entries {
				entries[i] = &wheelEntry{
					period:  spacing * 8,
					spacing: spacing,
					chunks:  8,
				}
			}
			var w timerWheel
			w.reset(spacing, 0)
			for _, e := range entries {
				e.resync(0)
				w.insert(e)
			}
			var due []*wheelEntry
			now := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += spacing
				due = w.collect(now, due[:0])
				for _, e := range due {
					e.advance()
					w.insert(e)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(channels), "channels/tick")
		})
	}
}
