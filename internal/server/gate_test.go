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

// warmTicks is how many ticks a test runs before it measures a dispatch's
// steady state: far more than the due list, arena and batch take to reach
// their steady size.
const warmTicks = 256

// handDriven is a server that was never started, with a real hub for
// membership, a caller-chosen sender, and one shard owning every channel,
// driven tick by tick on the wheel's own virtual time: tick() collects
// exactly the next due instant's entries and dispatches them. The epoch
// sits an hour ahead of the wall clock, so no entry ever looks behind and
// every dispatch stages exactly one chunk per due entry.
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
	srv.send = send
	if send == nil {
		srv.send = hub
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

// tick dispatches the next due instant and reports how many entries it held.
func (h *handDriven) tick() int {
	next, _ := h.sh.nextDue()
	h.sh.collect(next)
	if len(h.sh.due) > 0 {
		h.sh.dispatch()
	}
	return len(h.sh.due)
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
// or members sit on a few groups; and only heard frames reach the wire.
// This pins the positions the engine hands to Injector.Unheard — data
// offsets, parity bases, parity indices, tail-group coverage — to the ones
// the frames themselves would have carried.
func TestDispatchFaultCountsIgnoreHeardGroups(t *testing.T) {
	plan := faults.Plan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05,
		BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
	run := func(gated bool, heard []mcast.Group) (faults.Counts, *countingBatchSender) {
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
			FecMode:      "rs",
			Faults:       &plan,
			Logf:         t.Logf,
		}, inj)
		h.srv.inj = inj
		if !gated {
			h.srv.hub = nil // no membership to ask: everything is staged
		}
		for _, g := range heard {
			h.join(t, g)
		}
		for i := 0; i < 60; i++ { // ten repetitions of the longest channel
			h.tick()
		}
		return inj.Counts(), onWire
	}
	all, allWire := run(false, nil)
	none, noneWire := run(true, nil)
	some, someWire := run(true, []mcast.Group{{Video: 0, Channel: 1}, {Video: 1, Channel: 3}, {Video: 2, Channel: 5}})
	if all.Dropped == 0 || all.BurstDropped == 0 || all.Duplicated == 0 || all.Reordered == 0 {
		t.Fatalf("plan left a fault kind unexercised: %+v", all)
	}
	if none != all || some != all {
		t.Errorf("fault counts depend on the audience:\n  ungated %+v\n  nobody  %+v\n  3 of 15 %+v", all, none, some)
	}
	if noneWire.frames != 0 {
		t.Errorf("%d frames reached the wire with nobody listening", noneWire.frames)
	}
	if someWire.frames == 0 || someWire.frames >= allWire.frames || someWire.parity == 0 || someWire.bad+allWire.bad != 0 {
		t.Errorf("wire: %d frames (%d parity, %d bad) for 3 heard groups, %d (%d bad) ungated", someWire.frames, someWire.parity, someWire.bad, allWire.frames, allWire.bad)
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
// latency. A group's first member, joined before tick t's dispatch begins,
// receives chunk t; one that joins an empty group once the dispatch has
// read the membership — here from inside tick t's own hook — is not heard
// by tick t and starts with t+1.
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
	var h *handDriven
	h = newHandDriven(t, Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			if v == gLate.Video && i == gLate.Channel && n == 0 && c == 2 {
				if err := h.srv.hub.Join(gLate, late.Addr()); err != nil {
					t.Error(err)
				}
			}
		},
		Logf: t.Logf,
	}, nil) // the real hub sends
	h.tick() // chunk 0
	h.tick() // chunk 1
	if err := h.srv.hub.Join(g, early.Addr()); err != nil {
		t.Fatal(err)
	}
	h.tick() // chunk 2: early is a member; late joins mid-dispatch
	h.tick() // chunk 3
	if got := firstChunk(t, early, 1024); got != (event{0, 2}) {
		t.Errorf("member joined before tick 2's dispatch first received (rep %d, chunk %d), want (0, 2)", got.n, got.c)
	}
	if got := firstChunk(t, late, 1024); got != (event{0, 3}) {
		t.Errorf("member joined during tick 2's dispatch first received (rep %d, chunk %d), want (0, 3)", got.n, got.c)
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

// benchFullDispatch is BenchmarkWheelDispatch's whole-dispatch case:
// collect, gate, materialise, batch hand-off to a stub sender, advance, on
// a 10-video, k-channel schedule where every 20th channel (5 %) has a
// listener. With faulted set the stub stands behind a fault injector
// running skybench's lossy plan with a G=4 stripe, so the tick also pays
// the plan's per-entry decisions, heard and unheard. ns/op is ns per
// dispatch.
func benchFullDispatch(b *testing.B, k int, faulted bool) {
	rec := &countingBatchSender{}
	cfg := Config{
		Scheme:       wheelScheme(b, 10, k),
		Unit:         100 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
	}
	var send mcast.BatchSender = rec
	var inj *faults.Injector
	if faulted {
		cfg.FecGroup = 4
		cfg.Faults = &faults.Plan{Seed: 1, Drop: 0.02, Duplicate: 0.01, Reorder: 0.01,
			BurstEnter: 0.01, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 1024}
		var err error
		if inj, err = faults.New(rec, *cfg.Faults); err != nil {
			b.Fatal(err)
		}
		send = inj
	}
	h := newHandDriven(b, cfg, send)
	h.srv.inj = inj
	for j := 0; j < len(h.sh.entries); j += 20 {
		h.join(b, h.sh.entries[j].group)
	}
	for i := 0; i < warmTicks; i++ { // due list, arena and batch at their steady size
		h.tick()
	}
	before := h.srv.egressStaged.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(h.srv.egressStaged.Value()-before)/float64(b.N), "staged/tick")
	b.ReportMetric(float64(len(h.sh.entries)), "channels/tick")
}
