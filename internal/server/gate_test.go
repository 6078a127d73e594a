package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// countingBatchSender is a stub fan-out for dispatches driven by hand: it
// checks every staged frame (decodes, belongs to its entry's group) and
// counts, allocating nothing.
type countingBatchSender struct {
	batches, frames, parity, bad int
	groups                       map[mcast.Group]int // frames per group; nil = not tracked
	err                          error               // what SendBatch reports, having counted
}

func (r *countingBatchSender) Send(g mcast.Group, frame []byte) (int, error) {
	r.note(g, frame)
	return 1, nil
}

func (r *countingBatchSender) SendBatch(entries []mcast.BatchEntry) (int, error) {
	r.batches++
	for i := range entries {
		r.note(entries[i].Group, entries[i].Frame)
	}
	return len(entries), r.err
}

func (r *countingBatchSender) note(g mcast.Group, frame []byte) {
	r.frames++
	video, channel, _, _, ok := wire.PeekID(frame)
	if !ok || int(video) != g.Video || int(channel) != g.Channel {
		r.bad++
		return
	}
	if wire.IsParity(frame) {
		r.parity++
		if _, err := wire.DecodeParity(frame); err != nil {
			r.bad++
		}
	} else if _, err := wire.Decode(frame); err != nil {
		r.bad++
	}
	if r.groups != nil {
		r.groups[g]++
	}
}

// sendOnly lifts a scheduled-egress stub to the server's hub seam: it
// holds no memberships, and re-send batches go where scheduled ones do.
type sendOnly struct{ mcast.BatchSender }

func (o sendOnly) SendRepairBatch(entries []mcast.BatchEntry) (int, error) {
	return o.SendBatch(entries)
}
func (sendOnly) Join(mcast.Group, *net.UDPAddr) error { return nil }
func (sendOnly) Leave(mcast.Group, *net.UDPAddr)      {}

// warmTicks is how many ticks a test runs before it measures a dispatch's
// steady state: far more than the due list, arena and batch take to reach
// their steady size.
const warmTicks = 256

// handDriven is a server that was never started, with a real hub for
// membership, a caller-chosen sender, and one shard owning every channel,
// driven tick by tick on the wheel's own virtual time: stage() collects
// exactly the next due instant's entries and stages them, release() puts
// them on the wire, and tick() is the two in a row. The epoch sits an
// hour ahead of the wall clock, so no entry ever looks behind and every
// tick stages exactly one chunk per due entry.
type handDriven struct {
	srv *Server
	sh  *wheelShard
}

func newHandDriven(t testing.TB, cfg Config, send mcast.BatchSender) *handDriven {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := mcast.NewHub()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	srv.hub = hub
	srv.send = hub
	if send != nil {
		srv.send = sendOnly{send}
	}
	srv.epoch = time.Now().Add(time.Hour)
	sh := &wheelShard{s: srv}
	sch := cfg.Scheme
	for v := 0; v < sch.Config().Videos; v++ {
		for i := 1; i <= sch.K(); i++ {
			sh.entries = append(sh.entries, srv.newWheelEntry(v, i))
		}
	}
	sh.tickLen = sh.quantum()
	for _, e := range sh.entries {
		e.resync(0)
	}
	return &handDriven{srv: srv, sh: sh}
}

// stage collects and stages the next due instant, as a shard does inside
// its wake lead, and reports how many entries it held.
func (h *handDriven) stage() int {
	next, _ := h.sh.nextDue()
	h.sh.collect(next)
	if len(h.sh.due) > 0 {
		h.sh.stage(next)
	}
	return len(h.sh.due)
}

// release sends what stage staged, as a shard does at the instant.
func (h *handDriven) release() {
	if len(h.sh.due) > 0 {
		h.sh.release()
	}
}

// tick stages and releases the next due instant and reports how many
// entries it held.
func (h *handDriven) tick() int {
	n := h.stage()
	h.release()
	return n
}

// join subscribes a throwaway loopback address to g.
func (h *handDriven) join(t testing.TB, g mcast.Group) *net.UDPAddr {
	t.Helper()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9} // discard; a stub sender never writes
	if err := h.srv.hub.Join(g, addr); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestDispatchStagesOnlyHeardGroups: on a 200-channel schedule with
// members on 5 groups, every channel's hook still sees every (rep, chunk)
// in grid order, but only the 5 heard groups' chunks are materialised and
// staged, and a steady-state dispatch allocates nothing.
func TestDispatchStagesOnlyHeardGroups(t *testing.T) {
	const ticks = 40
	sch := wheelScheme(t, 10, 20)
	events := make(map[chanKey][]event)
	recording := true
	var lastLog string
	rec := &countingBatchSender{groups: make(map[mcast.Group]int)}
	h := newHandDriven(t, Config{
		Scheme:       sch,
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			if recording {
				events[chanKey{v, i}] = append(events[chanKey{v, i}], event{n, c})
			}
		},
		Logf: func(f string, a ...any) { lastLog = fmt.Sprintf(f, a...) },
	}, rec)
	heard := []mcast.Group{{Video: 0, Channel: 1}, {Video: 3, Channel: 7}, {Video: 5, Channel: 20}, {Video: 9, Channel: 2}, {Video: 9, Channel: 19}}
	var addr *net.UDPAddr
	for _, g := range heard {
		addr = h.join(t, g)
	}
	for i := 0; i < ticks; i++ {
		if n := h.tick(); n != 200 {
			t.Fatalf("tick %d dispatched %d entries, want all 200 (equal spacing)", i, n)
		}
	}

	for v := 0; v < 10; v++ {
		for i := 1; i <= 20; i++ {
			k := chanKey{v, i}
			evs := events[k]
			if len(evs) != ticks || evs[0] != (event{0, 0}) {
				t.Fatalf("video%d/ch%d: hook saw %d chunks starting at %v, want %d from (0, 0)", v, i, len(evs), evs[0], ticks)
			}
			checkContiguous(t, k, evs, int(sch.Sizes()[i-1])*4)
		}
	}
	if got, want := h.srv.egressScheduled.Value(), int64(200*ticks); got != want {
		t.Errorf("egressScheduled = %d, want %d", got, want)
	}
	if got, want := h.srv.egressStaged.Value(), int64(len(heard)*ticks); got != want {
		t.Errorf("egressStaged = %d, want %d (chunks with a member)", got, want)
	}
	if rec.frames != len(heard)*ticks || rec.batches != ticks || rec.bad != 0 {
		t.Errorf("sender saw %d frames in %d batches (%d bad), want %d in %d, all good", rec.frames, rec.batches, rec.bad, len(heard)*ticks, ticks)
	}
	if len(rec.groups) != len(heard) {
		t.Errorf("frames staged for %d groups, want the %d heard ones", len(rec.groups), len(heard))
	}
	for _, g := range heard {
		if rec.groups[g] != ticks {
			t.Errorf("%v: %d frames staged, want %d", g, rec.groups[g], ticks)
		}
	}
	if st := h.srv.cache.stats(); st.Hits+st.Misses != int64(len(heard)*ticks) {
		t.Errorf("frame cache served %d materialisations, want %d", st.Hits+st.Misses, len(heard)*ticks)
	}

	// The due list, arena and batch grow in the first ticks; a while later
	// the dispatch cycle is in its steady state.
	recording, rec.groups = false, nil
	for i := 0; i < warmTicks; i++ {
		h.tick()
	}
	if allocs := testing.AllocsPerRun(50, func() { h.tick() }); allocs != 0 {
		t.Errorf("steady-state dispatch allocates %v times, want 0", allocs)
	}

	// A group that loses its last member stops costing from the next tick.
	h.srv.hub.Leave(heard[0], addr)
	before := h.srv.egressStaged.Value()
	h.tick()
	if got := h.srv.egressStaged.Value() - before; got != int64(len(heard)-1) {
		t.Errorf("tick after a Leave staged %d chunks, want %d", got, len(heard)-1)
	}

	// A failed send is logged against the first chunk it staged: not the
	// first due entry, which nobody hears any more, and not the repetition
	// the cursor moves on to when that chunk was the last of its own.
	first := h.sh.entries[3*20+6]
	if first.group != heard[1] {
		t.Fatalf("entry %d is %v, want %v", 3*20+6, first.group, heard[1])
	}
	for first.c != first.chunks-1 {
		h.tick()
	}
	want := fmt.Sprintf("sending %v seq %d: refused", first.group, first.n)
	rec.err = errors.New("refused")
	h.tick()
	if !strings.Contains(lastLog, want) {
		t.Errorf("failed send logged %q, want it to name %q", lastLog, want)
	}
}

// TestDispatchFaultCountsIgnoreHeardGroups: the fault plan's counts over a
// stretch of schedule are the same whether every frame is built and sent
// through the injector (no gate — the parent's behaviour), nobody listens,
// members sit on a few groups, or members come and go between a tick's
// stage and its release; and only heard frames reach the wire. This pins
// the positions the engine hands to Injector.Stage — data offsets, parity
// bases, tail-group coverage — to be the same whether or not a frame was
// built, and that each frame is decided exactly once, at stage, whatever
// the membership does in between.
func TestDispatchFaultCountsIgnoreHeardGroups(t *testing.T) {
	plan := faults.Plan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05,
		BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	some := []mcast.Group{{Video: 0, Channel: 1}, {Video: 1, Channel: 3}, {Video: 2, Channel: 5}}
	// between, when set, runs between each tick's stage and its release.
	run := func(gated bool, heard []mcast.Group, between func(h *handDriven, tick int)) (faults.Counts, *countingBatchSender) {
		onWire := &countingBatchSender{}
		inj, err := faults.New(onWire, plan)
		if err != nil {
			t.Fatal(err)
		}
		h := newHandDriven(t, Config{
			Scheme:       wheelScheme(t, 3, 5),
			Unit:         100 * time.Millisecond,
			BytesPerUnit: 3 * 1024, // 3-chunk units under G=4: groups straddle units, tails are short
			ChunkBytes:   1024,
			FecGroup:     4,
			Faults:       &plan,
			Logf:         t.Logf,
		}, onWire)
		h.srv.inj = inj
		if !gated {
			h.srv.hub = nil // no membership to ask: everything is staged
		}
		for _, g := range heard {
			h.join(t, g)
		}
		for i := 0; i < 60; i++ { // ten repetitions of the longest channel
			h.stage()
			if between != nil {
				between(h, i)
			}
			h.release()
		}
		return inj.Counts(), onWire
	}
	all, allWire := run(false, nil, nil)
	none, noneWire := run(true, nil, nil)
	three, threeWire := run(true, some, nil)
	// The three groups' members leave after one tick's stage and come back
	// after the next one's: every tick's membership at release differs
	// from what its stage read.
	addrs := make([]*net.UDPAddr, len(some))
	flipping, flippingWire := run(true, nil, func(h *handDriven, tick int) {
		for j, g := range some {
			if tick%2 == 0 {
				addrs[j] = h.join(t, g)
			} else {
				h.srv.hub.Leave(g, addrs[j])
			}
		}
	})
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
		t.Errorf("wire: %d frames (%d bad) with members flipping between stage and release, %d with them steady", flippingWire.frames, flippingWire.bad, threeWire.frames)
	}
}

// TestStageSendsNothingBeforeRelease: staging a tick — fault plan and all
// — puts nothing on the wire and fires no hook; release fires the hook for
// every staged chunk and hands the tick over in one batch.
func TestStageSendsNothingBeforeRelease(t *testing.T) {
	plan := faults.Plan{Seed: 3, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05,
		BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	onWire := &countingBatchSender{}
	inj, err := faults.New(onWire, plan)
	if err != nil {
		t.Fatal(err)
	}
	hooked := 0
	h := newHandDriven(t, Config{
		Scheme:       wheelScheme(t, 10, 20),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		FecGroup:     4,
		Faults:       &plan,
		PacerHook:    func(v, i int, n uint32, c int) { hooked++ },
		Logf:         t.Logf,
	}, onWire)
	h.srv.inj = inj
	for j := 0; j < len(h.sh.entries); j += 20 {
		h.join(t, h.sh.entries[j].group)
	}
	for i := 0; i < 40; i++ {
		frames, batches := onWire.frames, onWire.batches
		hooked = 0
		due := h.stage()
		if onWire.frames != frames || onWire.batches != batches || hooked != 0 {
			t.Fatalf("tick %d: staging sent %d frames in %d batches and fired the hook %d times, want none",
				i, onWire.frames-frames, onWire.batches-batches, hooked)
		}
		if len(h.sh.batch) == 0 {
			t.Fatalf("tick %d: nothing staged for 10 heard groups", i)
		}
		h.release()
		if hooked != due {
			t.Fatalf("tick %d: release fired the hook %d times for %d staged chunks", i, hooked, due)
		}
		if onWire.batches > batches+1 {
			t.Fatalf("tick %d: release sent %d batches, want at most 1", i, onWire.batches-batches)
		}
	}
	if onWire.frames == 0 || onWire.bad != 0 {
		t.Errorf("wire: %d frames, %d bad", onWire.frames, onWire.bad)
	}
}

// firstChunk reads one datagram from r and returns its (rep, chunk).
func firstChunk(t *testing.T, r *mcast.Receiver, chunkBytes int) event {
	t.Helper()
	buf := make([]byte, wire.EncodedSize(chunkBytes))
	if err := r.Conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := r.Conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return event{c.Seq, int(c.Offset) / chunkBytes}
}

// TestJoinBeforeTickHearsThatTick: gating adds no off-by-one to start
// latency. A group's first member, joined before tick t's staging begins,
// receives chunk t; one that joins an empty group once staging has read
// the membership — here between tick t's stage and its release, where the
// hook now fires — is not heard by tick t and starts with t+1.
func TestJoinBeforeTickHearsThatTick(t *testing.T) {
	g, gLate := mcast.Group{Video: 0, Channel: 2}, mcast.Group{Video: 0, Channel: 3} // 8 chunks per repetition each
	early, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	late, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	h := newHandDriven(t, Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Logf:         t.Logf,
	}, nil) // the real hub sends
	h.tick() // chunk 0
	h.tick() // chunk 1
	if err := h.srv.hub.Join(g, early.Addr()); err != nil {
		t.Fatal(err)
	}
	h.stage() // chunk 2: early is a member
	if err := h.srv.hub.Join(gLate, late.Addr()); err != nil {
		t.Fatal(err)
	}
	h.release() // late joined after the stage
	h.tick()    // chunk 3
	if got := firstChunk(t, early, 1024); got != (event{0, 2}) {
		t.Errorf("member joined before tick 2's stage first received (rep %d, chunk %d), want (0, 2)", got.n, got.c)
	}
	if got := firstChunk(t, late, 1024); got != (event{0, 3}) {
		t.Errorf("member joined between tick 2's stage and release first received (rep %d, chunk %d), want (0, 3)", got.n, got.c)
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
	rec := &countingBatchSender{}
	h := newHandDriven(t, Config{
		Scheme:       sch,
		Unit:         100 * time.Millisecond,
		BytesPerUnit: bytesPerUnit,
		ChunkBytes:   chunkBytes,
		Logf:         t.Logf,
	}, rec)
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
	for j, e := range h.sh.entries {
		st := stint{g: e.group, join: j * stagger, leave: j*stagger + e.chunks}
		stints = append(stints, st)
		words += int64(e.chunks)
		if st.leave > last {
			last = st.leave
		}
	}
	if catalog := words * chunkBytes; catalog < 4*(64<<20) {
		t.Fatalf("catalog is %d MiB, want at least 256", catalog>>20)
	}
	for tick := 0; tick < last; tick++ {
		for j := range stints {
			switch st := &stints[j]; tick {
			case st.join:
				st.addr = h.join(t, st.g)
			case st.leave:
				h.srv.hub.Leave(st.g, st.addr)
			}
		}
		h.tick()
	}
	if rec.bad != 0 {
		t.Fatalf("%d staged frames failed to decode", rec.bad)
	}
	st := h.srv.cache.stats()
	if want := (CacheStats{Misses: words, Bytes: 8 * words}); st != want {
		t.Errorf("frame cache %+v, want %+v: every chunk of the catalog materialised exactly once, cold", st, want)
	}
	after := heapInuse()
	runtime.KeepAlive(h)
	t.Logf("catalog %d MiB materialised; CRC table %d KiB; heap in use %d KiB before, %d KiB after",
		words*chunkBytes>>20, st.Bytes>>10, before>>10, after>>10)
	if grew := after - before; grew > st.Bytes+slack {
		t.Errorf("heap grew %d KiB across a %d MiB catalog, want at most the %d KiB CRC table + %d MiB",
			grew>>10, words*chunkBytes>>20, st.Bytes>>10, slack>>20)
	}
}

// benchFullDispatch is BenchmarkWheelDispatch's whole-tick case on a
// 10-video, k-channel schedule where every 20th channel (5 %) has a
// listener. With faulted set the stub sender stands behind a fault
// injector running skybench's lossy plan with a G=4 stripe, so staging
// also pays the plan's per-entry decisions, heard and unheard. Every
// iteration stages and releases one tick, as a shard does; phase picks
// which half ns/op times: "stage" — collect, gate, materialise, decide
// with the fault plan, advance: what the shard does before the instant —
// or "release" — the batch hand-off to the sender: what is left for the
// instant. allocs/op counts the whole tick.
func benchFullDispatch(b *testing.B, k int, faulted bool, phase string) {
	rec := &countingBatchSender{}
	cfg := Config{
		Scheme:       wheelScheme(b, 10, k),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
	}
	var inj *faults.Injector
	if faulted {
		cfg.FecGroup = 4
		cfg.Faults = &faults.Plan{Seed: 1, Drop: 0.02, Duplicate: 0.01, Reorder: 0.01,
			BurstEnter: 0.01, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
		var err error
		if inj, err = faults.New(rec, *cfg.Faults); err != nil {
			b.Fatal(err)
		}
	}
	h := newHandDriven(b, cfg, rec)
	h.srv.inj = inj
	for j := 0; j < len(h.sh.entries); j += 20 {
		h.join(b, h.sh.entries[j].group)
	}
	for i := 0; i < warmTicks; i++ { // due list, arena and batch at their steady size
		h.tick()
	}
	before := h.srv.egressStaged.Value()
	var spent time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		began := time.Now()
		h.stage()
		staged := time.Now()
		h.release()
		if phase == "stage" {
			spent += staged.Sub(began)
		} else {
			spent += time.Since(staged)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(spent)/float64(b.N), "ns/op")
	b.ReportMetric(float64(h.srv.egressStaged.Value()-before)/float64(b.N), "staged/tick")
	b.ReportMetric(float64(len(h.sh.entries)), "channels/tick")
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
			h := newHandDriven(t, Config{
				Scheme:       wheelScheme(t, 1, groups),
				Unit:         100 * time.Millisecond,
				BytesPerUnit: 4 * chunkBytes,
				ChunkBytes:   chunkBytes,
				FecGroup:     4,
				Logf:         t.Logf,
			}, nil)
			hub := h.srv.hub
			if !hub.GSO() {
				t.Skip("no UDP GSO on this host")
			}
			r, err := mcast.NewReceiver()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			for _, e := range h.sh.entries {
				if err := hub.Join(e.group, r.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			perSuper := min(64, maxSuperBytes/wire.EncodedSize(chunkBytes))
			parityTicks := 0
			for tick := 0; tick < 8; tick++ {
				before := hub.Stats()
				h.stage()
				frames := len(h.sh.batch)
				if frames == 2*groups {
					parityTicks++
				}
				h.release()
				after := hub.Stats()
				supers, segs := after.Superframes-before.Superframes, after.GSOSegments-before.GSOSegments
				if want := int64((frames + perSuper - 1) / perSuper); supers != want || segs != int64(frames) {
					t.Errorf("tick %d: %d frames left as %d super-frames of %d segments, want %d super-frames",
						tick, frames, supers, segs, want)
				}
			}
			if parityTicks != 2 {
				t.Fatalf("%d of 8 ticks carried parity, want 2", parityTicks)
			}
		})
	}
}
