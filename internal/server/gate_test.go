package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// warmTicks is how many ticks a test runs before it measures a dispatch's
// steady state: far more than the arena and batch take to reach their
// steady size.
const warmTicks = 256

// mallocs is how many heap objects the process has allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestDispatchStagesOnlyHeardGroups: on a 200-channel schedule with
// members on 5 groups, the shard's index walks the grid a chunk a tick and
// every channel is scheduled each tick, but only the 5 heard groups'
// chunks are materialised and staged, and a steady-state tick allocates
// nothing (checked without the race detector, whose runtime allocates on
// its own). A group that loses its last member stops costing from the next
// tick, and a failed send is logged against the first chunk it staged.
func TestDispatchStagesOnlyHeardGroups(t *testing.T) {
	const ticks = 40
	heard := []mcast.Group{{Video: 0, Channel: 1}, {Video: 3, Channel: 7}, {Video: 5, Channel: 20}, {Video: 9, Channel: 2}, {Video: 9, Channel: 19}}
	const (
		measure = ticks + 1 + warmTicks // the park that begins the alloc-free window
		leave   = measure + 50          // the park that ends it and empties heard[0]
	)
	var (
		cursor    int64 // the shard's index after `ticks` ticks
		allocs    uint64
		afterLeft int64 // chunks staged by the tick after the Leave
		want      string
		logged    []string
	)
	r := twice(t, func() *wheelRig {
		logged, want = nil, ""
		r := newWheelRig(t, Config{
			Scheme:       wheelScheme(t, 10, 20),
			Unit:         100 * time.Millisecond,
			BytesPerUnit: 4096,
			ChunkBytes:   1024,
			Logf:         func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
		})
		var addr *net.UDPAddr
		for _, g := range heard {
			addr = r.join(t, g)
		}
		first := r.sh.entries[3*20+6] // heard[1]
		var m0 uint64
		var staged0 int64
		gcPercent := 0
		failAt := 0
		r.vc.onPark = func(n int) {
			switch n {
			case ticks + 1:
				cursor = r.sh.next
				r.log.quiet = true // the frames of the first ticks are checked; the rest are counted
			case measure:
				// No collection in the window: a GC cycle wakes runtime
				// goroutines that allocate (the unique package's map
				// cleanup, the scavenger's timer), and mallocs counts the
				// whole process.
				gcPercent, m0 = debug.SetGCPercent(-1), mallocs()
			case leave:
				allocs = mallocs() - m0
				debug.SetGCPercent(gcPercent)
				r.srv.hub.Leave(heard[0], addr)
				staged0 = r.srv.egressStaged.Value()
			case leave + 1:
				afterLeft = r.srv.egressStaged.Value() - staged0
			}
			switch {
			case n > leave+1 && failAt == 0 && r.sh.next%int64(first.chunks) == int64(first.chunks-1):
				// Not the first due entry, which nobody hears any more, and
				// not the repetition the index moves on to.
				failAt, want = n, fmt.Sprintf("sending %v seq %d: refused", first.group, r.sh.next/int64(first.chunks))
				r.log.err = errors.New("refused")
			case failAt > 0:
				r.log.err = nil
			}
		}
		r.play(leave + 12)
		return r
	})

	if spacing := r.srv.cfg.Unit / 4; cursor != ticks || r.sh.chunkDue(cursor) != ticks*spacing {
		t.Fatalf("after %d ticks the index is at chunk %d, due at %v; want chunk %d, due at %v",
			ticks, cursor, r.sh.chunkDue(cursor), ticks, ticks*spacing)
	}
	by := r.channels()
	if len(by) != len(heard) {
		t.Errorf("frames sent for %d groups, want the %d heard ones", len(by), len(heard))
	}
	for _, g := range heard {
		frames := by[chanKey{g.Video, g.Channel}]
		if len(frames) != ticks || frames[0].n != 0 || frames[0].c != 0 {
			t.Fatalf("%v: %d frames from the first %d ticks, want one a tick from (0, 0)", g, len(frames), ticks)
		}
		checkContiguous(t, chanKey{g.Video, g.Channel}, events(frames), r.grid(g).chunks)
	}
	if got, want := r.srv.egressScheduled.Value(), int64(200*r.srv.wheelWakeups.Value()); got != want {
		t.Errorf("egressScheduled = %d, want %d: every channel every tick", got, want)
	}
	if r.log.bad != 0 || r.log.batches != int(r.srv.wheelWakeups.Value()) {
		t.Errorf("sender saw %d batches (%d bad frames) in %d ticks, want one a tick, all good", r.log.batches, r.log.bad, r.srv.wheelWakeups.Value())
	}
	if st := r.srv.cache.stats(); st.Hits+st.Misses != int64(r.log.frames) {
		t.Errorf("frame cache served %d materialisations for %d frames sent", st.Hits+st.Misses, r.log.frames)
	}
	if allocs != 0 && !raceEnabled {
		t.Errorf("50 steady-state ticks allocated %d times, want 0", allocs)
	}
	if afterLeft != int64(len(heard)-1) {
		t.Errorf("tick after a Leave staged %d chunks, want %d", afterLeft, len(heard)-1)
	}
	if i := slices.IndexFunc(logged, func(l string) bool { return strings.Contains(l, "sending") }); i < 0 || !strings.Contains(logged[i], want) {
		t.Errorf("failed send logged %q, want it to name %q", logged, want)
	}
}

// faultRig is a wheelRig with the stripe on and a fault plan deciding
// every frame at stage.
func faultRig(t *testing.T, plan faults.Plan, videos, channels, bytesPerUnit int) *wheelRig {
	t.Helper()
	r := newWheelRig(t, Config{
		Scheme:       wheelScheme(t, videos, channels),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: bytesPerUnit,
		ChunkBytes:   1024,
		FecGroup:     4,
		Faults:       &plan,
		Logf:         t.Logf,
	})
	inj, err := faults.New(r.log, plan)
	if err != nil {
		t.Fatal(err)
	}
	r.srv.inj = inj
	r.vc.work = 2 * time.Microsecond
	return r
}

// TestDispatchFaultCountsIgnoreHeardGroups: the fault plan's counts over a
// stretch of schedule are the same whether every group is heard, so every
// frame is built and sent through the injector, nobody listens,
// members sit on a few groups, or members come and go from tick to tick;
// and only heard frames reach the wire. This pins the positions the engine
// hands to Injector.Stage — data offsets, parity bases, tail-group
// coverage — to be the same whether or not a frame was built, and that
// each frame is decided exactly once, at stage, whatever the membership
// does.
func TestDispatchFaultCountsIgnoreHeardGroups(t *testing.T) {
	const ticks = 60 // ten repetitions of the longest channel
	plan := faults.Plan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05,
		BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	some := []mcast.Group{{Video: 0, Channel: 1}, {Video: 1, Channel: 3}, {Video: 2, Channel: 5}}
	// flip, when set, runs in each hold: after the tick was staged and
	// before it is released. It reports whether it changed the membership.
	run := func(everyone bool, heard []mcast.Group, flip func(r *wheelRig, hold int) bool) (faults.Counts, *sendLog, int) {
		var counts faults.Counts
		flipped := 0
		r := twice(t, func() *wheelRig {
			flipped = 0
			// 3-chunk units under G=4: groups straddle units, tails are short.
			r := faultRig(t, plan, 3, 5, 3*1024)
			if everyone {
				r.hearAll(t)
			}
			for _, g := range heard {
				r.join(t, g)
			}
			if flip != nil {
				r.vc.onHold = func(n int) {
					if flip(r, n) {
						flipped++
					}
				}
			}
			r.play(ticks)
			counts = r.srv.inj.Counts()
			return r
		})
		return counts, r.log, flipped
	}
	all, allWire, _ := run(true, nil, nil)
	none, noneWire, _ := run(false, nil, nil)
	three, threeWire, _ := run(false, some, nil)
	// The three groups' members join in every odd hold and leave in every
	// even one, between a tick's stage and its release: every release
	// meets a membership its stage did not read, and no two ticks in a
	// row stage for the same audience.
	addrs := make([]*net.UDPAddr, len(some))
	flipping, flippingWire, flipped := run(false, nil, func(r *wheelRig, hold int) bool {
		for j, g := range some {
			if hold%2 == 1 {
				addrs[j] = r.join(t, g)
			} else {
				r.srv.hub.Leave(g, addrs[j])
			}
		}
		return r.srv.hub.Listeners() != r.sh.seen
	})
	// Every tick but the first two holds: until it has measured both its
	// staging time and its wake-up, the shard does not lead an instant by
	// enough to reach it early.
	if flipped != ticks-2 {
		t.Fatalf("membership changed between stage and release in %d of %d ticks, want %d", flipped, ticks, ticks-2)
	}
	if all.Dropped == 0 || all.BurstDropped == 0 || all.Duplicated == 0 || all.Reordered == 0 {
		t.Fatalf("plan left a fault kind unexercised: %+v", all)
	}
	if none != all || three != all || flipping != all {
		t.Errorf("fault counts depend on the audience:\n  everyone %+v\n  nobody   %+v\n  3 of 15  %+v\n  flipping %+v", all, none, three, flipping)
	}
	if noneWire.frames != 0 {
		t.Errorf("%d frames reached the wire with nobody listening", noneWire.frames)
	}
	if threeWire.frames == 0 || threeWire.frames >= allWire.frames || threeWire.parity == 0 || threeWire.bad+allWire.bad != 0 {
		t.Errorf("wire: %d frames (%d parity, %d bad) for 3 heard groups, %d (%d bad) for all 15", threeWire.frames, threeWire.parity, threeWire.bad, allWire.frames, allWire.bad)
	}
	// Each member is present at every other stage, so the flipping run
	// puts some frames on the wire, and fewer than the steady three.
	if flippingWire.frames == 0 || flippingWire.frames >= threeWire.frames || flippingWire.bad != 0 {
		t.Errorf("wire: %d frames (%d bad) with members flipping between ticks, %d with them steady", flippingWire.frames, flippingWire.bad, threeWire.frames)
	}
}

// coldLog is a sendLog whose warms do nothing: the seam of a server that
// does not warm.
type coldLog struct{ *sendLog }

func (coldLog) Warm() {}

// TestFaultCountsIgnoreWarm: the warm is invisible to the fault plan. A
// seeded plan run with the stage's warms noted, and run again with them
// doing nothing, books the same counts, releases the same frames at the
// same instants, and only the first run warmed — once a heard tick.
func TestFaultCountsIgnoreWarm(t *testing.T) {
	const ticks = 60
	plan := faults.Plan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05,
		BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	run := func(warm bool) (faults.Counts, *wheelRig) {
		var counts faults.Counts
		r := twice(t, func() *wheelRig {
			r := faultRig(t, plan, 3, 5, 3*1024)
			if !warm {
				r.srv.send = coldLog{r.log}
			}
			for _, e := range r.sh.entries[:5] {
				r.join(t, e.group)
			}
			r.play(ticks)
			counts = r.srv.inj.Counts()
			return r
		})
		return counts, r
	}
	warmCounts, warmed := run(true)
	coldCounts, cold := run(false)
	if warmCounts.Dropped == 0 || warmCounts.Duplicated == 0 || warmCounts.Reordered == 0 {
		t.Fatalf("plan left a fault kind unexercised: %+v", warmCounts)
	}
	if warmCounts != coldCounts {
		t.Errorf("fault counts depend on the warm:\n  warmed %+v\n  cold   %+v", warmCounts, coldCounts)
	}
	if !slices.Equal(warmed.log.sent, cold.log.sent) {
		t.Errorf("warmed run released %d frames, cold run %d, not the same", len(warmed.log.sent), len(cold.log.sent))
	}
	if len(warmed.log.warms) != warmed.log.batches || len(cold.log.warms) != 0 {
		t.Errorf("%d warms for %d releases warmed, %d cold; want one a release, and none", len(warmed.log.warms), warmed.log.batches, len(cold.log.warms))
	}
}

// TestStageSendsNothingBeforeRelease: staging a tick — fault plan and all
// — puts nothing on the wire; release hands the tick over in one batch,
// and no frame leaves before its grid instant.
func TestStageSendsNothingBeforeRelease(t *testing.T) {
	plan := faults.Plan{Seed: 3, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05,
		BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	var problems []string
	r := twice(t, func() *wheelRig {
		problems = nil
		r := faultRig(t, plan, 10, 20, 4096)
		for j := 0; j < len(r.sh.entries); j += 20 {
			r.join(t, r.sh.entries[j].group)
		}
		// What the sender had seen when the tick's park returned.
		frames, batches := 0, 0
		r.vc.onPark = func(n int) {
			if n > 1 && r.log.batches != batches+1 {
				problems = append(problems, fmt.Sprintf("tick %d: released %d batches, want 1", n-1, r.log.batches-batches))
			}
			frames, batches = r.log.frames, r.log.batches
		}
		r.log.onSend = func([]mcast.BatchEntry) {
			if r.log.frames != frames || r.log.batches != batches {
				problems = append(problems, fmt.Sprintf("staging sent %d frames in %d batches", r.log.frames-frames, r.log.batches-batches))
			}
		}
		r.play(40)
		return r
	})
	for _, p := range problems {
		t.Error(p)
	}
	if r.log.frames == 0 || r.log.bad != 0 {
		t.Errorf("wire: %d frames, %d bad", r.log.frames, r.log.bad)
	}
	for _, f := range r.log.sent {
		if due := r.grid(f.g).dueOf(f.n, f.c); f.at < due {
			t.Fatalf("%v (rep %d, chunk %d) left at epoch+%v, before its instant %v", f.g, f.n, f.c, f.at, due)
		}
	}
}

// TestJoinBeforeTickHearsThatTick: gating adds no off-by-one to start
// latency. A group's first member, joined before tick t's staging begins,
// receives chunk t; one that joins an empty group once staging has read
// the membership — here in tick t's hold, before its release — is not
// heard by tick t and starts with t+1.
func TestJoinBeforeTickHearsThatTick(t *testing.T) {
	g, gLate := mcast.Group{Video: 0, Channel: 2}, mcast.Group{Video: 0, Channel: 3} // 8 chunks per repetition each
	joinedLate := false
	r := twice(t, func() *wheelRig {
		joinedLate = false
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: 100 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
		r.vc.work = 2 * time.Microsecond // staging takes time, so the shard leads and holds
		r.vc.onPark = func(n int) {
			if n == 3 { // before chunk 2's stage
				r.join(t, g)
			}
		}
		r.vc.onHold = func(int) {
			if !joinedLate && len(r.sh.batch) > 0 { // chunk 2's tick: the first one anybody hears
				joinedLate = true
				r.join(t, gLate)
			}
		}
		r.play(4)
		return r
	})
	if !joinedLate {
		t.Fatal("the tick that staged chunk 2 never held: nothing joined between its stage and its release")
	}
	by := r.channels()
	if f := by[chanKey{0, 2}]; len(f) == 0 || (event{f[0].n, f[0].c}) != (event{0, 2}) {
		t.Errorf("member joined before tick 2's stage first received %v, want (0, 2)", events(f))
	}
	if f := by[chanKey{0, 3}]; len(f) == 0 || (event{f[0].n, f[0].c}) != (event{0, 3}) {
		t.Errorf("member joined in tick 2's hold first received %v, want (0, 3)", events(f))
	}
}

// TestServerHeapFlatAcrossCatalog: the server's heap does not follow the
// catalog. Over a catalog four times the 64 MiB the resident-frame cache
// used to fill, each channel gains its listener at a different tick,
// mid-repetition, and loses it exactly one full period later — so the
// audience keeps moving across the groups and every chunk of every
// channel is materialised exactly once — and what stays on the heap
// afterwards is the CRC table plus a fixed few MiB.
func TestServerHeapFlatAcrossCatalog(t *testing.T) {
	const (
		videos, channels = 4, 10
		bytesPerUnit     = 512 << 10
		chunkBytes       = 1024
		stagger          = 137 // ticks between one group's join and the next's
		slack            = 6 << 20
	)
	heapInuse := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heapInuse()

	sch := cacheScheme(t, videos, channels, 52) // 1,2,2,5,5,12,12,25,25,52 units
	r := newWheelRig(t, Config{
		Scheme:       sch,
		Unit:         100 * time.Millisecond,
		BytesPerUnit: bytesPerUnit,
		ChunkBytes:   chunkBytes,
		Logf:         t.Logf,
	})
	r.log.quiet = true
	// Every channel has the same chunk spacing, so a tick is one chunk per
	// channel and a channel's period is its chunk count in ticks.
	type stint struct {
		g           mcast.Group
		join, leave int
		addr        *net.UDPAddr
	}
	var stints []stint
	var words int64
	last := 0
	for j, e := range r.sh.entries {
		st := stint{g: e.group, join: j * stagger, leave: j*stagger + e.chunks}
		stints = append(stints, st)
		words += int64(e.chunks)
		last = max(last, st.leave)
	}
	if catalog := words * chunkBytes; catalog < 4*(64<<20) {
		t.Fatalf("catalog is %d MiB, want at least 256", catalog>>20)
	}
	r.vc.onPark = func(n int) {
		tick := n - 1
		for j := range stints {
			switch st := &stints[j]; tick {
			case st.join:
				st.addr = r.join(t, st.g)
			case st.leave:
				r.srv.hub.Leave(st.g, st.addr)
			}
		}
	}
	r.play(last)
	if r.log.bad != 0 {
		t.Fatalf("%d sent frames failed to decode", r.log.bad)
	}
	st := r.srv.cache.stats()
	if want := (CacheStats{Misses: words, Bytes: 8 * words}); st != want {
		t.Errorf("frame cache %+v, want %+v: every chunk of the catalog materialised exactly once, cold", st, want)
	}
	after := heapInuse()
	runtime.KeepAlive(r)
	t.Logf("catalog %d MiB materialised; CRC table %d KiB; heap in use %d KiB before, %d KiB after",
		words*chunkBytes>>20, st.Bytes>>10, before>>10, after>>10)
	if grew := after - before; grew > st.Bytes+slack {
		t.Errorf("heap grew %d KiB across a %d MiB catalog, want at most the %d KiB CRC table + %d MiB",
			grew>>10, words*chunkBytes>>20, st.Bytes>>10, slack>>20)
	}
}

// benchFullDispatch is BenchmarkWheelDispatch's whole-tick case on a
// 10-video, k-channel schedule where every 20th channel (5 %) has a
// listener. With faulted set the sender stands behind a fault injector
// running skybench's lossy plan with a G=4 stripe, so staging also pays
// the plan's per-entry decisions, heard and unheard. Every iteration is
// one tick of the shard's loop on a virtual clock; phase picks which part
// ns/op times: "stage" — from the wake to the hand-over: gate,
// materialise, decide with the fault plan, what the shard does
// before the instant — or "release" — from the hand-over to the next
// park: the send, what is left for the instant. allocs/op counts the
// whole tick.
func benchFullDispatch(b *testing.B, k int, faulted bool, phase string) {
	cfg := Config{
		Scheme:       wheelScheme(b, 10, k),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
	}
	if faulted {
		cfg.FecGroup = 4
		cfg.Faults = &faults.Plan{Seed: 1, Drop: 0.02, Duplicate: 0.01, Reorder: 0.01,
			BurstEnter: 0.01, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	}
	r := newWheelRig(b, cfg)
	if faulted {
		inj, err := faults.New(r.log, *cfg.Faults)
		if err != nil {
			b.Fatal(err)
		}
		r.srv.inj = inj
	}
	r.log.quiet = true
	for j := 0; j < len(r.sh.entries); j += 20 {
		r.join(b, r.sh.entries[j].group)
	}
	// The timed ticks are warmTicks+1 … warmTicks+b.N: the arena and batch
	// are at their steady size by then.
	var mark time.Time
	var spent time.Duration
	var staged int64
	r.vc.onPark = func(n int) {
		now := time.Now()
		switch n {
		case warmTicks + 1:
			staged = -r.srv.egressStaged.Value()
			b.ReportAllocs()
			b.ResetTimer()
		case warmTicks + b.N + 1:
			staged += r.srv.egressStaged.Value()
			b.StopTimer()
		}
		if n > warmTicks+1 && phase == "release" {
			spent += now.Sub(mark)
		}
		mark = now
	}
	r.log.onSend = func([]mcast.BatchEntry) {
		now := time.Now()
		if p := r.vc.parks; p > warmTicks && p <= warmTicks+b.N && phase == "stage" {
			spent += now.Sub(mark)
		}
		mark = now
	}
	r.play(warmTicks + b.N + 1)
	b.ReportMetric(float64(spent)/float64(b.N), "ns/op")
	b.ReportMetric(float64(staged)/float64(b.N), "staged/tick")
	b.ReportMetric(float64(len(r.sh.entries)), "channels/tick")
}

// nackPrev steps, through a session's controlSession.step at the virtual
// clock's instant, a NACK for one chunk of the repetition before the one
// channel ch of video 0 is on, and reports that repetition and whether the
// NACK opened a re-send (ok false: no earlier repetition yet, or a window
// was open).
func nackPrev(t *testing.T, r *wheelRig, cs *controlSession, ch, chunk int) (seq uint32, ok bool) {
	t.Helper()
	n := uint32(r.vc.t.Sub(r.srv.epoch) / r.grid(mcast.Group{Video: 0, Channel: ch}).period())
	if n == 0 {
		return 0, false
	}
	before := r.srv.nackResends.Value()
	reply, _ := cs.step(r.vc.t, &wire.Control{Kind: wire.KindNack, Nack: wire.NackFromChunks(0, ch, n-1, []int{chunk})})
	if reply.Kind != wire.KindNackOK || !reply.Nack.Has(chunk) {
		t.Fatalf("NACK for channel %d rep %d chunk %d answered %+v", ch, n-1, chunk, reply)
	}
	return n - 1, r.srv.nackResends.Value() > before
}

// TestNackResendRidesWheel steps NACKs through controlSession.step from
// the virtual clock's hooks — at random instants in the first half of a
// park, and in the hold between a tick's stage and its release — while
// the shard materialises every channel's chunks for a member each tick.
// A NACK stepped in a park pokes the shard: its re-send leaves in the
// very next release, before the tick the shard was parked for. One
// stepped in a hold leaves with that tick's release or the next. None
// leaves before its NACK. Every re-sent frame decodes, verifies against
// the content function and carries the requester's Seq — a repetition
// the schedule has moved past — and each channel's other frames walk its
// grid one per tick, none early, so no scheduled frame carries a
// re-send's Seq.
func TestNackResendRidesWheel(t *testing.T) {
	if !haveTimerfd {
		t.Skip("the rig's tick source stands in for the timerfd, which this build lacks")
	}
	const ticks = 200
	// pending is one fresh NACK, stepped at `at`: its re-send must leave
	// before `by`, in a release numbered first to last.
	type pending struct {
		ch, chunk   int
		seq         uint32
		at, by      time.Duration
		first, last int
	}
	var nacks []pending
	r := twice(t, func() *wheelRig {
		nacks = nil
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: 100 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
		r.hearAll(t)
		r.vc.work = 2 * time.Microsecond
		q, cs, rng := r.sh.tickSpan(), r.srv.newSession("cohort"), rand.New(rand.NewSource(7))
		nack := func(by time.Duration, more int) {
			ch := 1 + rng.Intn(3)
			chunk := rng.Intn(r.grid(mcast.Group{Video: 0, Channel: ch}).chunks)
			if seq, ok := nackPrev(t, r, cs, ch, chunk); ok {
				nacks = append(nacks, pending{ch, chunk, seq, r.vc.t.Sub(r.srv.epoch), by, r.log.batches + 1, r.log.batches + 1 + more})
			}
		}
		r.vc.onPark = func(int) {
			if span := r.vc.until.Sub(r.vc.t); span > q/2 && rng.Intn(3) == 0 {
				r.vc.t = r.vc.t.Add(time.Duration(rng.Int63n(int64(span / 2))))
				nack((r.vc.t.Sub(r.srv.epoch)/q+1)*q, 0) // before the tick the shard parked for
			}
		}
		r.vc.onHold = func(int) {
			if rng.Intn(3) == 0 {
				nack(time.Hour, 1)
			}
		}
		r.play(ticks)
		return r
	})
	if r.log.bad != 0 {
		t.Errorf("%d frames failed to decode or verify", r.log.bad)
	}
	parked, held := 0, 0
	for k, frames := range r.channels() {
		g := r.grid(frames[0].g)
		next, scheduled := event{0, 0}, 0
		for _, f := range frames {
			if (event{f.n, f.c}) == next {
				if due := g.dueOf(f.n, f.c); f.at < due {
					t.Fatalf("video%d/ch%d (rep %d, chunk %d) left at epoch+%v, before its instant %v", k.video, k.channel, f.n, f.c, f.at, due)
				}
				if next.c++; next.c == g.chunks {
					next = event{next.n + 1, 0}
				}
				scheduled++
				continue
			}
			i := slices.IndexFunc(nacks, func(p pending) bool { return p.ch == k.channel && p.seq == f.n && p.chunk == f.c })
			if i < 0 {
				t.Fatalf("video%d/ch%d: (rep %d, chunk %d) at epoch+%v is neither the schedule's next %v nor a NACKed chunk", k.video, k.channel, f.n, f.c, f.at, next)
			}
			p := nacks[i]
			nacks = slices.Delete(nacks, i, i+1)
			if f.at < p.at || f.at >= p.by || f.batch < p.first || f.batch > p.last {
				t.Errorf("%+v left at epoch+%v in release %d", p, f.at, f.batch)
			}
			if p.first == p.last {
				parked++
			} else {
				held++
			}
		}
		if scheduled != ticks {
			t.Errorf("video%d/ch%d: %d scheduled frames in %d ticks", k.video, k.channel, scheduled, ticks)
		}
	}
	if len(nacks) != 0 {
		t.Errorf("NACKed re-sends that never left: %+v", nacks)
	}
	if parked < 10 || held < 10 {
		t.Errorf("%d re-sends NACKed in a park and %d in a hold; the script checks too little", parked, held)
	}
}

// TestNackResendBypassesFaultPlan: under a plan that drops every
// scheduled frame, the re-sends of a NACK stepped mid-run still reach the
// sender, and the plan's counts are those of the same run without the
// NACK: a re-send never meets the plan whose loss it repairs.
func TestNackResendBypassesFaultPlan(t *testing.T) {
	const ticks = 40
	play := func(nack bool) *wheelRig {
		r := faultRig(t, faults.Plan{Seed: 3, Drop: 1}, 1, 3, 4096)
		r.hearAll(t)
		cs := r.srv.newSession("cohort")
		r.vc.onPark = func(n int) {
			if nack && n == ticks/2 {
				for chunk := 0; chunk < 4; chunk++ {
					if _, ok := nackPrev(t, r, cs, 1, chunk); !ok {
						t.Fatalf("NACK for chunk %d opened no re-send", chunk)
					}
				}
			}
		}
		r.play(ticks)
		return r
	}
	quiet, nacked := play(false), play(true)
	if quiet.log.frames != 0 {
		t.Fatalf("a plan dropping everything let %d frames through", quiet.log.frames)
	}
	if nacked.log.frames != 4 || nacked.log.bad != 0 {
		t.Errorf("%d re-sent frames reached the sender (%d bad), want the 4 NACKed", nacked.log.frames, nacked.log.bad)
	}
	if q, n := quiet.srv.inj.Counts(), nacked.srv.inj.Counts(); q != n {
		t.Errorf("fault counts %+v with the NACK, %+v without: the plan met a re-send", n, q)
	}
}

// TestNackResendQueueConcurrent: control sessions on two goroutines queue
// re-sends on a running server's shards while the shards tick, stage and
// release. Under -race this is the proof that the queue is all the two
// sides share; every NACKed chunk leaves, one datagram per member.
func TestNackResendQueueConcurrent(t *testing.T) {
	const unit = 20 * time.Millisecond
	srv, err := New(Config{Scheme: wheelScheme(t, 1, 3), Unit: unit, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	recv, err := mcast.NewReceiver() // never read: the kernel drops what overflows
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	chunks := 0
	for ch := 1; ch <= 3; ch++ {
		if err := srv.Hub().Join(mcast.Group{Video: 0, Channel: ch}, recv.Addr()); err != nil {
			t.Fatal(err)
		}
		chunks += srv.fragmentBytes(ch) / 1024
	}
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := srv.newSession("cohort")
			for ch := 1; ch <= 3; ch++ {
				for chunk := half; chunk < srv.fragmentBytes(ch)/1024; chunk += 2 {
					now := time.Now()
					seq := uint32(now.Sub(srv.Epoch()) / (time.Duration(srv.cfg.Scheme.Sizes()[ch-1]) * unit))
					if reply, _ := cs.step(now, &wire.Control{Kind: wire.KindNack, Nack: wire.NackFromChunks(0, ch, seq, []int{chunk})}); reply.Kind != wire.KindNackOK || !reply.Nack.Has(chunk) {
						t.Errorf("NACK for channel %d rep %d chunk %d answered %+v", ch, seq, chunk, reply)
					}
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "every re-send staged", func() bool { return srv.Status().RepairDatagrams == int64(chunks) })
}

// TestStripeTickIsOneRun: a parity frame is a data frame's size, so a
// FecGroup 4 tick — every heard group's data chunk, and on every fourth
// tick its parity frame behind it — reaches a receiver joined to all the
// groups as one GSO super-frame per destination, cut only by the
// super-frame's byte and segment caps, at 1 KiB and 4 KiB chunks alike.
func TestStripeTickIsOneRun(t *testing.T) {
	const groups, maxSuperBytes = 10, 65000 // the hub's super-frame byte cap
	for _, chunkBytes := range []int{1024, 4096} {
		t.Run(fmt.Sprintf("chunk=%d", chunkBytes), func(t *testing.T) {
			r := newWheelRig(t, Config{
				Scheme:       wheelScheme(t, 1, groups),
				Unit:         100 * time.Millisecond,
				BytesPerUnit: 4 * chunkBytes,
				ChunkBytes:   chunkBytes,
				FecGroup:     4,
				Logf:         t.Logf,
			})
			hub := r.srv.hub
			if !hub.GSO() {
				t.Skip("no UDP GSO on this host")
			}
			r.srv.send = hub // the real fan-out, to a real receiver
			recv, err := mcast.NewReceiver()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { recv.Close() })
			for _, e := range r.sh.entries {
				if err := hub.Join(e.group, recv.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			perSuper := min(64, maxSuperBytes/wire.EncodedSize(chunkBytes))
			parityTicks := 0
			var before mcast.HubStats
			// Each park but the first checks the tick before it, whose
			// batch is still the shard's.
			r.vc.onPark = func(n int) {
				after := hub.Stats()
				if n > 1 {
					frames := len(r.sh.batch)
					if frames == 2*groups {
						parityTicks++
					}
					supers, segs := after.Superframes-before.Superframes, after.GSOSegments-before.GSOSegments
					if want := int64((frames + perSuper - 1) / perSuper); supers != want || segs != int64(frames) {
						t.Errorf("tick %d: %d frames left as %d super-frames of %d segments, want %d super-frames",
							n-1, frames, supers, segs, want)
					}
				}
				before = after
			}
			r.play(9)
			if parityTicks != 2 {
				t.Fatalf("%d of 8 ticks carried parity, want 2", parityTicks)
			}
		})
	}
}
