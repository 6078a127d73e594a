package server

import (
	"errors"
	"fmt"
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
// steady state: far more than the due list, arena and batch take to reach
// their steady size.
const warmTicks = 256

// mallocs is how many heap objects the process has allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestDispatchStagesOnlyHeardGroups: on a 200-channel schedule with
// members on 5 groups, every channel's cursor walks the grid a chunk a
// tick, but only the 5 heard groups' chunks are materialised and staged,
// and a steady-state tick allocates nothing. A group that loses its last
// member stops costing from the next tick, and a failed send is logged
// against the first chunk it staged.
func TestDispatchStagesOnlyHeardGroups(t *testing.T) {
	const ticks = 40
	heard := []mcast.Group{{Video: 0, Channel: 1}, {Video: 3, Channel: 7}, {Video: 5, Channel: 20}, {Video: 9, Channel: 2}, {Video: 9, Channel: 19}}
	const (
		measure = ticks + 1 + warmTicks // the park that begins the alloc-free window
		leave   = measure + 50          // the park that ends it and empties heard[0]
	)
	var (
		cursors   []time.Duration // every entry's next due offset after `ticks` ticks
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
				cursors = nil
				for _, e := range r.sh.entries {
					cursors = append(cursors, e.due)
				}
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
			case n > leave+1 && failAt == 0 && first.c == first.chunks-1:
				// Not the first due entry, which nobody hears any more, and
				// not the repetition the cursor moves on to.
				failAt, want = n, fmt.Sprintf("sending %v seq %d: refused", first.group, first.n)
				r.log.err = errors.New("refused")
			case failAt > 0:
				r.log.err = nil
			}
		}
		r.play(leave + 12)
		return r
	})

	for j, e := range r.sh.entries {
		if cursors[j] != ticks*e.spacing {
			t.Fatalf("%v: after %d ticks the cursor is due at %v, want %v", e.group, ticks, cursors[j], ticks*e.spacing)
		}
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
	if allocs != 0 {
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
// stretch of schedule are the same whether every frame is built and sent
// through the injector (no gate — the parent's behaviour), nobody listens,
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
	run := func(gated bool, heard []mcast.Group, flip func(r *wheelRig, hold int) bool) (faults.Counts, *sendLog, int) {
		var counts faults.Counts
		flipped := 0
		r := twice(t, func() *wheelRig {
			flipped = 0
			// 3-chunk units under G=4: groups straddle units, tails are short.
			r := faultRig(t, plan, 3, 5, 3*1024)
			if !gated {
				r.srv.hub = nil // no membership to ask: everything is staged
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
	all, allWire, _ := run(false, nil, nil)
	none, noneWire, _ := run(true, nil, nil)
	three, threeWire, _ := run(true, some, nil)
	// The three groups' members join in every odd hold and leave in every
	// even one, between a tick's stage and its release: every release
	// meets a membership its stage did not read, and no two ticks in a
	// row stage for the same audience.
	addrs := make([]*net.UDPAddr, len(some))
	flipping, flippingWire, flipped := run(true, nil, func(r *wheelRig, hold int) bool {
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
		t.Errorf("fault counts depend on the audience:\n  ungated  %+v\n  nobody   %+v\n  3 of 15  %+v\n  flipping %+v", all, none, three, flipping)
	}
	if noneWire.frames != 0 {
		t.Errorf("%d frames reached the wire with nobody listening", noneWire.frames)
	}
	if threeWire.frames == 0 || threeWire.frames >= allWire.frames || threeWire.parity == 0 || threeWire.bad+allWire.bad != 0 {
		t.Errorf("wire: %d frames (%d parity, %d bad) for 3 heard groups, %d (%d bad) ungated", threeWire.frames, threeWire.parity, threeWire.bad, allWire.frames, allWire.bad)
	}
	// Each member is present at every other stage, so the flipping run
	// puts some frames on the wire, and fewer than the steady three.
	if flippingWire.frames == 0 || flippingWire.frames >= threeWire.frames || flippingWire.bad != 0 {
		t.Errorf("wire: %d frames (%d bad) with members flipping between ticks, %d with them steady", flippingWire.frames, flippingWire.bad, threeWire.frames)
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
// ns/op times: "stage" — from the wake to the hand-over: collect, gate,
// materialise, decide with the fault plan, advance, what the shard does
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
	// The timed ticks are warmTicks+1 … warmTicks+b.N: the due list, arena
	// and batch are at their steady size by then.
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

// TestNackResendNeverAliasesDispatch runs NACK re-sends flat out, from
// two connections' worth of arenas, against a wheel that is materialising
// the very same chunks for a live member every tick. Under -race this is
// the proof that a re-send shares no memory with a dispatch (each builds
// its own frame with its own Seq); every frame — scheduled or re-sent —
// must decode, verify against the content function, and carry the Seq
// its sender meant.
func TestNackResendNeverAliasesDispatch(t *testing.T) {
	const resendSeq = 1 << 30 // far above any repetition the schedule reaches
	r := twice(t, func() *wheelRig {
		r := newWheelRig(t, Config{
			Scheme:       wheelScheme(t, 1, 3),
			Unit:         4 * time.Millisecond, // a dispatch per channel per millisecond
			BytesPerUnit: 4096,
			ChunkBytes:   1024,
			Logf:         t.Logf,
		})
		r.hearAll(t)
		r.vc.work = time.Microsecond
		done := make(chan struct{})
		var wg, ready sync.WaitGroup
		for conn := 0; conn < 2; conn++ {
			wg.Add(1)
			ready.Add(1)
			go func() {
				defer wg.Done()
				var arena frameArena
				for seq := uint32(resendSeq); ; seq++ {
					for ch := 1; ch <= 3; ch++ {
						r.srv.nackResend(0, ch, seq, []int{0, 1, 2, 3}, &arena)
					}
					if seq == resendSeq {
						ready.Done()
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		r.vc.onPark = func(n int) {
			if n == 1 { // both connections are re-sending before the first tick
				ready.Wait()
			}
		}
		r.play(300)
		close(done)
		wg.Wait()
		return r
	})
	if r.log.resent == 0 {
		t.Fatal("no re-send was exercised")
	}
	if r.log.bad != 0 {
		t.Errorf("%d frames failed to decode or verify", r.log.bad)
	}
	if r.log.frames != 3*300 {
		t.Errorf("%d scheduled frames in 300 ticks of 3 channels", r.log.frames)
	}
	for _, f := range r.log.sent {
		if f.n >= resendSeq {
			t.Fatalf("a scheduled frame carries re-send Seq %d", f.n)
		}
	}
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
