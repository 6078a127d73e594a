package server

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/vod"
	"skyscraper/internal/wire"
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

// grid is the closed form of the paper's broadcast grid (§3–§4) for one
// channel repeating `chunks` chunks, `spacing` apart, every period — the
// reference the wheel is held to.
type grid struct {
	period, spacing time.Duration
	chunks          int
}

// channelGrid is channel i's grid under the 4096/1024 density the wheel
// tests broadcast at.
func channelGrid(sch *core.Scheme, i int, unit time.Duration) grid {
	size := sch.Sizes()[i-1]
	g := grid{period: time.Duration(size) * unit, chunks: int(size) * 4096 / 1024}
	g.spacing = g.period / time.Duration(g.chunks)
	return g
}

// gridAt returns the slot containing elapsed: chunk c of repetition n with
// dueOf(n, c) <= elapsed < dueOf(n, c) + spacing — or, in the remainder
// that flooring spacing leaves at the end of a period, the next
// repetition's first chunk.
func (g grid) gridAt(elapsed time.Duration) (n uint32, c int) {
	n, c = uint32(elapsed/g.period), int(elapsed%g.period/g.spacing)
	if c >= g.chunks {
		return n + 1, 0
	}
	return n, c
}

// dueOf is gridAt's inverse: the offset from the epoch at which chunk c of
// repetition n is due.
func (g grid) dueOf(n uint32, c int) time.Duration {
	return time.Duration(n)*g.period + time.Duration(c)*g.spacing
}

// firings is what the hook saw on one channel, in order: the (rep, chunk)
// events and, beside each, how long after the epoch it fired.
type firings struct {
	events []event
	at     []time.Duration
}

// recordWheel runs one server for d, recording every (video, channel, rep,
// chunk) the wheel dispatched and when, in order, per channel. then, when
// non-nil, runs in the hook once the firing is recorded. The server comes
// back closed, its counters still readable.
func recordWheel(t *testing.T, sch *core.Scheme, unit, d time.Duration, then func(v, i int, n uint32, c int)) (map[chanKey]*firings, *Server) {
	t.Helper()
	var mu sync.Mutex
	fired := make(map[chanKey]*firings)
	var srv *Server
	srv, err := New(Config{
		Scheme:       sch,
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			at := time.Since(srv.Epoch())
			mu.Lock()
			f := fired[chanKey{v, i}]
			if f == nil {
				f = new(firings)
				fired[chanKey{v, i}] = f
			}
			f.events = append(f.events, event{n, c})
			f.at = append(f.at, at)
			mu.Unlock()
			if then != nil {
				then(v, i, n, c)
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
	if srv.Status().EgressShards == 0 {
		t.Error("wheel reports 0 shards")
	}
	time.Sleep(d)
	srv.Close()
	return fired, srv
}

// checkOnGrid holds one channel's firings to the closed-form grid: every
// (n, c) is a slot of it and fired at or after epoch + dueOf(n, c), and
// within one unit of it. A host that stops the process for longer than a
// unit makes firings late through no fault of the wheel; the drift
// watchdog counts exactly those dispatches, so a late firing fails only
// when the watchdog stayed silent (drift == 0). It returns how many
// firings were late.
func checkOnGrid(t *testing.T, k chanKey, f *firings, g grid, unit time.Duration, drift int64) (late int) {
	t.Helper()
	for j, ev := range f.events {
		due, at := g.dueOf(ev.n, ev.c), f.at[j]
		if n, c := g.gridAt(due); (event{n, c}) != ev {
			t.Fatalf("video%d/ch%d event %d: (rep %d, chunk %d) is not a grid slot (its instant %v holds (%d, %d))",
				k.video, k.channel, j, ev.n, ev.c, due, n, c)
		}
		if at < due || (at > due+unit && drift == 0) {
			t.Fatalf("video%d/ch%d event %d: (rep %d, chunk %d) fired at epoch+%v, want within [%v, %v]",
				k.video, k.channel, j, ev.n, ev.c, at, due, due+unit)
		}
		if at > due+unit {
			late++
		}
	}
	return late
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
// equivalence gate: for every channel, the wheel must emit exactly the
// (rep, chunk) sequence of the closed-form grid — from the epoch (start
// jitter can cost a chunk or two on a loaded machine), walked
// contiguously, every firing on its instant (checkOnGrid).
func TestWheelGoldenEquivalence(t *testing.T) { checkGoldenEquivalence(t) }

// checkGoldenEquivalence is the body of TestWheelGoldenEquivalence, shared
// with the run that forces the shards onto the runtime-timer tick source.
func checkGoldenEquivalence(t *testing.T) {
	t.Helper()
	sch := wheelScheme(t, 2, 3)
	const unit = 25 * time.Millisecond
	fired, srv := recordWheel(t, sch, unit, time.Second, nil)
	drift, late := srv.Status().PacerDriftEvents, 0
	for v := 0; v < 2; v++ {
		for i := 1; i <= 3; i++ {
			k := chanKey{v, i}
			f := fired[k]
			if f == nil || len(f.events) < 8 {
				t.Fatalf("video%d/ch%d: too few events: %+v", v, i, f)
			}
			if first := f.events[0]; first.n != 0 || first.c > 2 {
				t.Fatalf("video%d/ch%d starts at (rep %d, chunk %d), want near (0, 0)", v, i, first.n, first.c)
			}
			g := channelGrid(sch, i, unit)
			checkContiguous(t, k, f.events, g.chunks)
			late += checkOnGrid(t, k, f, g, unit, drift)
		}
	}
	if late > 0 {
		t.Logf("%d firings over one unit late, in a run whose watchdog counted %d drift events", late, drift)
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
	st := srv.Status()
	shards, wakeups, drift := st.EgressShards, st.EgressWakeups, st.PacerDriftEvents
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

// TestWheelShardPanicRecovered is the supervisor's schedule half (its
// session half is TestShardPanicRecoveredSession): a hook panic
// mid-repetition kills a whole shard (many channels), the supervisor
// restarts it, and every channel on it rejoins the absolute grid where the
// clock is — no firing before its instant, none replayed from behind, the
// panicked channel broadcasting again.
func TestWheelShardPanicRecovered(t *testing.T) {
	sch := wheelScheme(t, 2, 3)
	const unit = 25 * time.Millisecond
	var panicked atomic.Bool
	fired, srv := recordWheel(t, sch, unit, 600*time.Millisecond, func(v, i int, n uint32, c int) {
		if v == 0 && i == 2 && n >= 1 && c == 3 && !panicked.Swap(true) {
			panic("wheel_test: injected shard panic")
		}
	})
	if restarts := srv.Status().PacerRestarts; restarts < 1 {
		t.Fatalf("PacerRestarts = %d, want >= 1 after injected panic", restarts)
	}
	for k, f := range fired {
		evs := f.events
		if len(evs) < 2 {
			t.Errorf("video%d/ch%d: only %d events", k.video, k.channel, len(evs))
			continue
		}
		checkOnGrid(t, k, f, channelGrid(sch, k.channel, unit), unit, srv.Status().PacerDriftEvents)
		// Across the restart the grid may skip chunks that fell into the
		// backoff window, and may re-send the slot that was current when
		// the panic hit (resync floors to the current slot — duplicates are
		// idempotent to clients). It must never go backwards.
		for j := 1; j < len(evs); j++ {
			prev, cur := evs[j-1], evs[j]
			if cur.n < prev.n || (cur.n == prev.n && cur.c < prev.c) {
				t.Fatalf("video%d/ch%d event %d: (rep %d, chunk %d) after (rep %d, chunk %d) — schedule went backwards",
					k.video, k.channel, j, cur.n, cur.c, prev.n, prev.c)
			}
		}
		// The panicked channel must have resumed after its restart.
		if k == (chanKey{0, 2}) {
			if last := evs[len(evs)-1]; last.n < 2 {
				t.Errorf("video0/ch2 did not resume after panic: %d events, last (rep %d, chunk %d)",
					len(evs), last.n, last.c)
			}
		}
	}
}

// TestTimerWheelMechanics pins the shard's due-list itself: entries
// surface exactly at their due ticks, however far off, a past-due one at
// the current tick, and nextDue names the earliest. An entry that has
// surfaced is taken off the list here, where a dispatch would advance it.
func TestTimerWheelMechanics(t *testing.T) {
	q := time.Millisecond
	mk := func(due time.Duration) *wheelEntry {
		return &wheelEntry{due: due, period: time.Hour, spacing: time.Hour, chunks: 1}
	}
	near := mk(3 * q)
	mid := mk(300 * q)
	far := mk(time.Duration(70000) * q)
	past := mk(-5 * q) // clamped to the current tick
	w := &wheelShard{tickLen: q, entries: []*wheelEntry{near, mid, far, past}}
	collect := func(now time.Duration) []*wheelEntry {
		w.collect(now)
		for _, e := range w.due {
			w.entries = slices.DeleteFunc(w.entries, func(have *wheelEntry) bool { return have == e })
		}
		return w.due
	}

	got := collect(0)
	if len(got) != 1 || got[0] != past {
		t.Fatalf("collect(0) = %v entries, want just the past-due entry", len(got))
	}
	if next, ok := w.nextDue(); !ok || next != 3*q {
		t.Fatalf("nextDue = %v, %v; want %v, true", next, ok, 3*q)
	}
	got = collect(3 * q)
	if len(got) != 1 || got[0] != near {
		t.Fatalf("collect(3q) = %v entries, want the near entry", len(got))
	}
	if got = collect(299 * q); len(got) != 0 {
		t.Fatalf("collect(299q) returned %d entries early", len(got))
	}
	got = collect(300 * q)
	if len(got) != 1 || got[0] != mid {
		t.Fatalf("collect(300q) = %d entries, want the 300q entry", len(got))
	}
	got = collect(70000 * q)
	if len(got) != 1 || got[0] != far {
		t.Fatalf("collect(70000q) = %d entries, want the 70000q entry", len(got))
	}
	if _, ok := w.nextDue(); ok {
		t.Error("nextDue reports work on an empty wheel")
	}
}

// TestWheelEntryResyncMatchesGrid pins resync — and advance after it — to
// the closed-form grid, and the closed form to a table of hand-worked
// slots, on an even geometry and on one whose floored spacing leaves a
// remainder at the end of each period.
func TestWheelEntryResyncMatchesGrid(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		period  time.Duration
		chunks  int
		elapsed time.Duration
		n       uint32
		c       int
	}{
		{80 * ms, 8, -5 * ms, 0, 0}, // before the epoch: the first slot
		{80 * ms, 8, 0, 0, 0},
		{80 * ms, 8, 9 * ms, 0, 0}, // mid-slot floors to the slot
		{80 * ms, 8, 10 * ms, 0, 1},
		{80 * ms, 8, 79 * ms, 0, 7},
		{80 * ms, 8, 80 * ms, 1, 0},
		{80 * ms, 8, 845 * ms, 10, 4},
		{100 * ms, 7, 99 * ms, 0, 6},    // spacing floors to 14.285714ms
		{100 * ms, 7, 100*ms - 1, 1, 0}, // the 2 ns remainder belongs to the next repetition
		{100 * ms, 7, 350 * ms, 3, 3},
	} {
		g := grid{tc.period, tc.period / time.Duration(tc.chunks), tc.chunks}
		n, c := g.gridAt(max(tc.elapsed, 0))
		if n != tc.n || c != tc.c {
			t.Errorf("gridAt(%v) = (rep %d, chunk %d), want (rep %d, chunk %d)", tc.elapsed, n, c, tc.n, tc.c)
		}
		if rn, rc := g.gridAt(g.dueOf(n, c)); rn != n || rc != c {
			t.Errorf("gridAt(dueOf(%d, %d)) = (%d, %d): not an inverse", n, c, rn, rc)
		}
		e := &wheelEntry{period: g.period, spacing: g.spacing, chunks: g.chunks}
		e.resync(tc.elapsed)
		if e.n != n || e.c != c || e.due != g.dueOf(n, c) {
			t.Errorf("resync(%v) = (rep %d, chunk %d) due %v, want (rep %d, chunk %d) due %v",
				tc.elapsed, e.n, e.c, e.due, n, c, g.dueOf(n, c))
		}
		// advance lands on the slot holding the instant one spacing on.
		e.advance()
		wn, wc := g.gridAt(g.dueOf(n, c) + g.spacing)
		if e.n != wn || e.c != wc || e.due != g.dueOf(wn, wc) {
			t.Errorf("advance from (%d, %d) = (rep %d, chunk %d) due %v, want (rep %d, chunk %d) due %v",
				n, c, e.n, e.c, e.due, wn, wc, g.dueOf(wn, wc))
		}
	}
}

// recordingBatchSender captures every batch a shard releases, for direct
// stage/release tests that bypass the hub.
type recordingBatchSender struct {
	batches [][]mcast.BatchEntry
}

func (r *recordingBatchSender) SendBatch(entries []mcast.BatchEntry) (int, error) {
	r.batches = append(r.batches, append([]mcast.BatchEntry(nil), entries...))
	return len(entries), nil
}

// catchupDispatch builds a two-channel shard whose epoch sits behind the
// wall clock by the given offset, stages and releases one tick, and
// returns what it staged: the recorded batches, the hook's per-channel (rep, chunk)
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
	srv.send = sendOnly{rec}
	srv.epoch = time.Now().Add(-behind)
	sh := &wheelShard{s: srv, id: 0}
	for _, ch := range []int{1, 2} {
		e := srv.newWheelEntry(0, ch)
		e.resync(0)
		sh.entries = append(sh.entries, e)
		sh.due = append(sh.due, e)
	}
	sh.stage(time.Since(srv.epoch))
	sh.release()
	return rec, events, sh.entries, srv.driftEvents.Value()
}

// TestWheelCatchupStagesRuns pins the catch-up shaping dispatch feeds
// the GSO path: a behind-schedule entry stages every due chunk as ONE
// contiguous same-group run in a single batch, in schedule order and
// across repetition boundaries, with each staged frame backed by distinct
// memory and carrying its own repetition number; runs stop at
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
		// 375 ms behind at 62.5 ms spacing, 7 chunks due on each channel:
		// channel 1 (4 chunks per repetition) runs through the repetition
		// boundary, (0,0)…(0,3) then (1,0)…(1,2); channel 2 (8 chunks)
		// stages (0,0)…(0,6).
		rec, events, entries, drift := catchupDispatch(t, 1024, 375*time.Millisecond)
		if len(rec.batches) != 1 {
			t.Fatalf("staged %d batches, want 1", len(rec.batches))
		}
		batch := rec.batches[0]
		if len(batch) != 14 {
			t.Fatalf("staged %d entries, want 14 (7 + 7)", len(batch))
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
		if evs := events[k1]; len(evs) != 7 || evs[0] != (event{0, 0}) || evs[6] != (event{1, 2}) {
			t.Errorf("video0/ch1 staged %v, want (0, 0) through (1, 2)", evs)
		}
		checkContiguous(t, k1, events[k1], 4)
		if evs := events[k2]; len(evs) != 7 || evs[0] != (event{0, 0}) {
			t.Errorf("video0/ch2 staged %v, want rep 0 chunks 0-6", evs)
		}
		checkContiguous(t, k2, events[k2], 8)
		// Distinct backing memory per staged frame, and in each frame's
		// header the repetition and offset of its own chunk: a run that
		// crosses the boundary must not stamp one repetition on all of it.
		seen := make(map[*byte]bool)
		next := make(map[chanKey]int)
		for _, be := range batch {
			p := &be.Frame[0]
			if seen[p] {
				t.Fatal("two staged frames share one backing buffer")
			}
			seen[p] = true
			k := chanKey{be.Group.Video, be.Group.Channel}
			want := events[k][next[k]]
			next[k]++
			c, err := wire.Decode(be.Frame)
			if err != nil {
				t.Fatalf("staged frame does not decode: %v", err)
			}
			if c.Seq != want.n || int(c.Offset) != want.c*1024 {
				t.Errorf("video%d/ch%d staged a frame with Seq %d offset %d for (rep %d, chunk %d)",
					k.video, k.channel, c.Seq, c.Offset, want.n, want.c)
			}
		}
		if e1 := entries[0]; e1.n != 1 || e1.c != 3 {
			t.Errorf("channel 1 cursor at (rep %d, chunk %d) after the run, want (1, 3)", e1.n, e1.c)
		}
		if e2 := entries[1]; e2.n != 0 || e2.c != 7 {
			t.Errorf("channel 2 cursor at (rep %d, chunk %d) after the run, want (0, 7)", e2.n, e2.c)
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
// tick's collect → advance cycle with every channel due, at the
// configured channel counts. This is the per-tick overhead the wheel
// engine adds on top of frame preparation and the send itself. The "full"
// cases are the whole tick on paper-shaped schedules (200 and 400
// channels) with 5 % of the channels heard — what a tick costs when it
// costs what is heard, and, faulted, what the fault injector in front of
// the sender adds to it — split into its stage (before the instant) and
// its release (at it).
func BenchmarkWheelDispatch(b *testing.B) {
	for _, phase := range []string{"stage", "release"} {
		for _, k := range []int{20, 40} {
			b.Run(fmt.Sprintf("full/channels=%d/heard=5%%/%s", 10*k, phase), func(b *testing.B) { benchFullDispatch(b, k, false, phase) })
		}
		b.Run("full/channels=200/heard=5%/faulted/"+phase, func(b *testing.B) { benchFullDispatch(b, 20, true, phase) })
	}
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
			for _, e := range entries {
				e.resync(0)
			}
			w := &wheelShard{tickLen: spacing, entries: entries}
			now := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += spacing
				w.collect(now)
				for _, e := range w.due {
					e.advance()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(channels), "channels/tick")
		})
	}
}
