package viewer

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"skyscraper/internal/content"
	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// routeGeometry is the fragment the router tests broadcast: channel 2 of
// video 1, 4 units of 16 KiB in 512-byte chunks (128 chunks, 32 stripe
// groups of G=4), repetition 3, starting routeBase bytes into the video.
const (
	routeChunk, routeUnitBytes, routeSize, routeG = 512, 16384, 4, 4
	routeTotal                                    = routeSize * routeUnitBytes
	routeChunks                                   = routeTotal / routeChunk
	routeSeq                                      = 3
	routeBase                                     = 1 << 16
)

// routeParams is the fragment's machine for a cohort playing it from
// playUnit, with repair off: what the stripe does not heal is lost.
func routeParams(epoch time.Time, tuneUnit, playUnit int64) FragmentParams {
	return FragmentParams{Video: 1, Channel: 2, Size: routeSize, TuneUnit: tuneUnit, PlayUnit: playUnit,
		TotalBytes: routeTotal, ChunkBytes: routeChunk, BytesPerUnit: routeUnitBytes,
		Epoch: epoch, Unit: 10 * time.Millisecond, Slack: time.Second, Lag: time.Second,
		FecGroup: routeG, DisableRepair: true}
}

// routeBroadcast is the repetition as the server sends it: each stripe
// group's data chunks, then its parity frame.
func routeBroadcast(t testing.TB) [][]byte {
	t.Helper()
	var frames [][]byte
	for g := 0; g < routeChunks/routeG; g++ {
		block := make([]byte, routeChunk)
		for idx := g * routeG; idx < (g+1)*routeG; idx++ {
			frame := dataFrame(t, 1, 2, routeSeq, routeTotal, routeChunk, routeBase, idx)
			wire.XorAccum(block, frame[wire.HeaderSize:])
			frames = append(frames, frame)
		}
		parity, err := wire.EncodeParityFrame(nil, 1, 2, routeSeq, uint32(g*routeG*routeChunk), routeTotal, 0, block, wire.PayloadCRC(block))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, parity)
	}
	return frames
}

// recordSender keeps a copy of every frame it is handed, in order.
type recordSender struct{ frames [][]byte }

func (r *recordSender) Send(_ mcast.Group, frame []byte) (int, error) {
	r.frames = append(r.frames, append([]byte(nil), frame...))
	return 1, nil
}

// faulted is the broadcast after plan: what a listener's socket reads.
func faulted(t *testing.T, plan faults.Plan) ([][]byte, faults.Counts) {
	t.Helper()
	rec := &recordSender{}
	inj, err := faults.New(rec, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range routeBroadcast(t) {
		if _, err := inj.Send(mcast.Group{Video: 1, Channel: 2}, frame); err != nil {
			t.Fatal(err)
		}
	}
	inj.Flush()
	return rec.frames, inj.Counts()
}

// perCohortPass replays frames through one cohort's own decode and stripe,
// as each cohort did before the router: every frame decoded, a chunk
// folded only if its machine accepted it. It returns the machine.
func perCohortPass(t *testing.T, p FragmentParams, frames [][]byte, at func(i int) time.Time) *Machine {
	t.Helper()
	m := NewMachine(p)
	st := newStripe(routeG, routeChunk, routeChunks)
	var heals []Heal
	for i, frame := range frames {
		if m.Done() {
			break
		}
		if wire.IsParity(frame) {
			par, err := wire.DecodeParity(frame)
			if err != nil {
				t.Fatal(err)
			}
			heals = st.Parity(&par, heals[:0])
		} else {
			c, err := wire.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			idx := int(c.Offset) / routeChunk
			if m.Chunk(idx, at(i)) == Duplicate {
				continue
			}
			heals = st.Data(idx, c.Payload, heals[:0])
		}
		for _, h := range heals {
			m.FecHealed(h.Idx, at(i))
		}
	}
	return m
}

// TestRouteDecodesOncePerDatagram: three cohorts on one repetition of a
// channel, at three playback starts, and a fourth tuned to the channel's
// next repetition, hear the repetition under a seeded plan that drops,
// duplicates and reorders, with a G=4 stripe, repair off, and at most one
// erasure in any stripe group. The router decodes each datagram read
// once, yet Result.Datagrams still counts one per (datagram, tuned
// fragment), the fourth cohort's strays included; every cohort loses
// nothing, and books exactly the duplicates and heals its own
// decode-and-stripe pass would have.
func TestRouteDecodesOncePerDatagram(t *testing.T) {
	frames, counts := faulted(t, faults.Plan{Seed: 7, Drop: 0.04, Duplicate: 0.04, Reorder: 0.04})
	if counts.Dropped == 0 || counts.Duplicated == 0 || counts.Reordered == 0 {
		t.Fatalf("plan injected %+v, want drops, duplicates and reorders", counts)
	}
	var have [routeChunks]bool
	for _, frame := range frames {
		if !wire.IsParity(frame) {
			_, _, _, off, _ := wire.PeekID(frame)
			have[off/routeChunk] = true
		}
	}
	for g := 0; g < routeChunks/routeG; g++ {
		missing := 0
		for idx := g * routeG; idx < (g+1)*routeG; idx++ {
			if !have[idx] {
				missing++
			}
		}
		if missing > 1 {
			t.Fatalf("stripe group %d lost %d chunks; the plan must leave every group healable", g, missing)
		}
	}

	m := testMux(routeChunk, routeUnitBytes, routeG)
	epoch := time.Unix(5000, 0)
	start := epoch.Add(routeSeq * routeSize * 10 * time.Millisecond)
	at := func(i int) time.Time { return start.Add(time.Duration(i) * 100 * time.Microsecond) }
	var frags []*frag
	for k, play := range []int64{20, 21, 22} {
		c := &cohort{mux: m, video: 1, viewers: []int{k}, playStart: epoch.Add(time.Duration(play) * 10 * time.Millisecond)}
		frags = append(frags, tuneFrag(c, routeParams(epoch, routeSeq*routeSize, play), routeBase))
	}
	next := tuneFrag(&cohort{mux: m, video: 1, viewers: []int{3}}, routeParams(epoch, (routeSeq+1)*routeSize, 30), routeBase)

	const batch = 5 // a read of a few datagrams at a time
	for i := 0; i < len(frames); i += batch {
		m.route.route(frames[i:min(i+batch, len(frames))], at(i))
		for _, f := range frags {
			if f.err != nil {
				t.Fatal(f.err)
			}
		}
	}
	if got := m.route.decoded; got != int64(len(frames)) {
		t.Errorf("%d decodes for %d datagrams read, want one each", got, len(frames))
	}
	if got, want := m.route.delivered, int64(4*len(frames)); got != want {
		t.Errorf("Datagrams = %d, want %d: one per (datagram, tuned fragment), strays included", got, want)
	}
	if st := next.m.Stats(); st != (MachineStats{}) || next.err != nil {
		t.Errorf("the next repetition's fragment booked %+v (err %v) from another repetition's datagrams", st, next.err)
	}
	for idx := range routeChunks {
		if next.m.resolved(idx) {
			t.Fatalf("the next repetition's fragment holds chunk %d of another repetition", idx)
		}
	}
	for k, f := range frags {
		ref := perCohortPass(t, routeParams(epoch, routeSeq*routeSize, 20+int64(k)), frames, func(i int) time.Time { return at(i - i%batch) })
		got, want := f.m.Stats(), ref.Stats()
		if !f.m.Done() || got.Lost != 0 {
			t.Errorf("cohort %d: done=%v, %d lost, want every chunk", k, f.m.Done(), got.Lost)
		}
		if got.Duplicates != want.Duplicates || got.FecHeals != want.FecHeals {
			t.Errorf("cohort %d: %d duplicates and %d heals, its own pass books %d and %d",
				k, got.Duplicates, got.FecHeals, want.Duplicates, want.FecHeals)
		}
		if got.Duplicates == 0 || got.FecHeals == 0 {
			t.Errorf("cohort %d: %d duplicates, %d heals; the comparison is vacuous", k, got.Duplicates, got.FecHeals)
		}
		if n := f.c.byteErrors; n != 0 {
			t.Errorf("cohort %d: %d byte errors on clean content", k, n)
		}
	}
}

// TestRouteByteErrorsPerCohort: a datagram whose CRC fails, and one whose
// payload is not the video's content, are each one byte error for every
// cohort tuned to the repetition — checked once, counted per cohort.
func TestRouteByteErrorsPerCohort(t *testing.T) {
	m := testMux(routeChunk, routeUnitBytes, 0)
	epoch := time.Unix(5000, 0)
	var frags []*frag
	for k := range 3 {
		c := &cohort{mux: m, video: 1, viewers: []int{k}, playStart: epoch}
		frags = append(frags, tuneFrag(c, routeParams(epoch, routeSeq*routeSize, 20), routeBase))
	}
	badCRC := dataFrame(t, 1, 2, routeSeq, routeTotal, routeChunk, routeBase, 0)
	badCRC[len(badCRC)-1] ^= 1
	payload := make([]byte, routeChunk)
	content.Fill(payload, 1, routeBase+routeChunk)
	payload[3] ^= 0xFF
	wrong, err := (&wire.Chunk{Video: 1, Channel: 2, Seq: routeSeq, Offset: routeChunk, Total: routeTotal, Payload: payload}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	m.route.route([][]byte{badCRC, wrong}, epoch)
	if got := m.route.decoded; got != 2 {
		t.Errorf("%d decodes for 2 datagrams", got)
	}
	for k, f := range frags {
		if f.err != nil {
			t.Fatal(f.err)
		}
		if n := f.c.byteErrors; n != 2 {
			t.Errorf("cohort %d: %d byte errors, want 2 (the bad CRC and the wrong content)", k, n)
		}
	}
}

// TestRouteZeroAlloc is the alloc gate of the receive pass: routing a
// steady-state read — every datagram decoded, CRC-checked, verified and
// folded into the stripe, a heal reconstructed and verified, and applied
// in place to each of four tuned fragments, one of them on another
// repetition — allocates nothing.
func TestRouteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the gate")
	}
	m := testMux(routeChunk, routeUnitBytes, routeG)
	epoch := time.Unix(5000, 0)
	var frags []*frag
	for k := range 3 {
		c := &cohort{mux: m, video: 1, viewers: []int{k}, playStart: epoch}
		frags = append(frags, tuneFrag(c, routeParams(epoch, routeSeq*routeSize, 20), routeBase))
	}
	frags = append(frags, tuneFrag(&cohort{mux: m, video: 1}, routeParams(epoch, (routeSeq+1)*routeSize, 30), routeBase))
	// Two stripe groups: the first without chunk 1, which its parity
	// heals; the second whole.
	all := routeBroadcast(t)
	frames := [][]byte{all[0], all[2], all[3], all[4], all[5], all[6], all[7], all[8], all[9]}
	b := frags[0].b
	read := func() {
		clear(b.seen) // a fresh repetition's worth of first copies
		m.route.route(frames, epoch)
	}
	read()
	if heals := frags[0].m.Stats().FecHeals; heals != 1 || frags[3].m.Stats() != (MachineStats{}) {
		t.Fatalf("%d heals, and %+v booked on the other repetition's fragment; want 1 and nothing",
			heals, frags[3].m.Stats())
	}
	decoded, delivered := m.route.decoded, m.route.delivered
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("a routed read allocates %v objects, want 0", allocs)
	}
	if per := float64(m.route.decoded-decoded) / 101 / float64(len(frames)); per != 1 {
		t.Errorf("%v decodes per datagram, want 1", per)
	}
	if per := float64(m.route.delivered-delivered) / 101 / float64(len(frames)); per != float64(len(frags)) {
		t.Errorf("%v deliveries per datagram, want one per tuned fragment, %d", per, len(frags))
	}
}

// TestRouteTapTurnoverRetainsNothing: a steady cycle of two cohorts
// tuning one repetition, hearing a burst and untuning allocates a small
// fixed amount — two fragments and their machines, a broadcast state —
// less than one 256-event queue of the kind a tuned fragment once held,
// and the router keeps nothing of a repetition nobody is tuned to: its
// table empties and the stripe's accumulators go back to the pool.
func TestRouteTapTurnoverRetainsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the gate")
	}
	m := testMux(routeChunk, routeUnitBytes, routeG)
	epoch := time.Unix(5000, 0)
	burst := routeBroadcast(t)[:10] // two stripe groups and their parity
	cycle := func() {
		var frags [2]*frag
		for k := range frags {
			frags[k] = tuneFrag(&cohort{mux: m, video: 1, playStart: epoch}, routeParams(epoch, routeSeq*routeSize, 20), routeBase)
		}
		m.route.route(burst, epoch)
		for _, f := range frags {
			if f.err != nil {
				t.Fatal(f.err)
			}
			m.route.untap(f)
		}
	}
	for range 3 {
		cycle() // warm the stripe pool
	}
	pooled := len(m.route.stripes.states)
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	// Two fragments holding 256-event queues would take twice this.
	if limit := uint64(256 * unsafe.Sizeof(rxEvent{})); perCycle > limit {
		t.Errorf("a tune/untune cycle allocates %d bytes, want <= %d (one full event queue)", perCycle, limit)
	}
	if n := len(m.route.groups); n != 0 {
		t.Errorf("router still routes %d groups nobody is tuned to", n)
	}
	if n := len(m.route.stripes.states); n != pooled {
		t.Errorf("stripe pool holds %d accumulators after %d cycles, %d when warm", n, cycles, pooled)
	}
}
