package viewer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/des"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// ---------------------------------------------------------------------------
// Cohort-equivalence property: a cohort of N viewers multiplexed through one
// shared Observe-mode machine plus lazily-materialized per-viewer machines
// must produce bit-identical per-viewer stats to N independent repair-mode
// machines — the live client's exact configuration — fed the same broadcast
// arrivals and the same deterministic repair outcomes. Machines are pure
// state over explicit clocks, so the whole property runs in virtual time.
// ---------------------------------------------------------------------------

// equivGeometry is the fragment shape the property runs on: 8 chunks over
// 4 units, tuned at absolute unit 8, playing at unit 12.
func equivGeometry() FragmentParams {
	return FragmentParams{
		Video:        1,
		Channel:      3,
		Size:         4,
		TuneUnit:     8,
		PlayUnit:     12,
		TotalBytes:   8192,
		ChunkBytes:   1024,
		BytesPerUnit: 2048,
		Epoch:        time.Unix(1000, 0),
		Unit:         10 * time.Millisecond,
		Slack:        10 * time.Millisecond,
		Lag:          5 * time.Millisecond,
	}
}

// oracleOutcome is the deterministic repair-server stand-in: the outcome of
// viewer seed's attempt-th round trip for (channel, idx). Both harnesses
// consult it, so any stats divergence is the multiplexer's fault.
func oracleOutcome(seed uint64, channel, idx, attempt int) RepairOutcome {
	key := uint64(channel)<<40 | uint64(idx)<<16 | uint64(attempt)
	r := des.NewRand(des.SubSeed(des.SubSeed(seed, 0xFEED), key))
	switch p := r.Float64(); {
	case p < 0.30:
		return RepairOK
	case p < 0.55:
		return RepairBusy
	default:
		return RepairFailed
	}
}

// equivLedger is the per-viewer outcome record both harnesses produce.
type equivLedger struct {
	lost, late, dup, repaired int64
	reqs, busy                int64
}

type arrival struct {
	at  time.Time
	idx int
}

// dropPlan derives the cohort-wide drop set (the fault injector keys drops
// without Seq, so every viewer of a repetition-invariant broadcast sees the
// same injured positions) and the arrival schedule for surviving chunks.
func dropPlan(p FragmentParams, dropSeed uint64) (map[int]bool, []arrival) {
	n := (p.TotalBytes + p.ChunkBytes - 1) / p.ChunkBytes
	spacing := time.Duration(p.Size) * p.Unit / time.Duration(n)
	start := p.Epoch.Add(time.Duration(p.TuneUnit) * p.Unit)
	r := des.NewRand(dropSeed)
	drops := map[int]bool{}
	for idx := 0; idx < n; idx++ {
		if r.Float64() < 0.35 {
			drops[idx] = true
		}
	}
	if len(drops) == 0 {
		drops[3] = true
	}
	var arr []arrival
	for idx := 0; idx < n; idx++ {
		if !drops[idx] {
			arr = append(arr, arrival{at: start.Add(time.Duration(idx)*spacing + spacing/2), idx: idx})
		}
	}
	return drops, arr
}

// runIndependent drives one repair-mode machine — the live client's loader
// configuration — through the arrival schedule in virtual time.
func runIndependent(t *testing.T, p FragmentParams, seed uint64, arrivals []arrival) equivLedger {
	t.Helper()
	var led equivLedger
	p.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
		return JitterIn(seed, key, stream, window)
	}
	p.OnLost = func(int, int) { led.lost++ }
	m := NewMachine(p)
	now := p.Epoch.Add(time.Duration(p.TuneUnit) * p.Unit)
	ai := 0
	for iter := 0; !m.Done() || ai < len(arrivals); iter++ {
		if iter > 100_000 {
			t.Fatal("independent driver did not converge")
		}
		if m.Done() {
			// Post-completion arrivals would book duplicates; the drop-only
			// plan never produces them (see the completion argument below).
			t.Fatalf("machine done with %d arrivals undelivered", len(arrivals)-ai)
		}
		act := m.Next(now)
		if act.Kind == ActRepair {
			led.reqs++
			out := oracleOutcome(seed, p.Channel, act.Idx, act.Attempt)
			if out == RepairBusy {
				led.busy++
			}
			m.RepairResult(act.Idx, out, 0, now)
			continue
		}
		// ActWait: advance to the earlier of the wake and the next arrival.
		if ai < len(arrivals) && !arrivals[ai].at.After(act.Wake) {
			now = arrivals[ai].at
			m.Chunk(arrivals[ai].idx, now)
			ai++
			continue
		}
		now = act.Wake
	}
	st := m.Stats()
	led.late, led.dup, led.repaired = st.Late, st.Duplicates, st.Repaired
	return led
}

// runCohortSim drives the multiplexer's exact divergence protocol in
// virtual time: a shared Observe machine detects gaps; the first gap
// materializes per-viewer machines with every other chunk pre-resolved;
// later gaps reopen them; finished viewers fold stat deltas into ledgers
// exactly as the worker pool does.
func runCohortSim(t *testing.T, base FragmentParams, muxSeed uint64, nviewers int, arrivals []arrival) []equivLedger {
	t.Helper()
	leds := make([]equivLedger, nviewers)

	var sharedLost int64
	op := base
	op.Observe = true
	op.OnLost = func(int, int) { sharedLost++ }
	shared := NewMachine(op)

	n := shared.NChunks()
	diverged := make([]bool, n)
	vms := []*Machine(nil)
	vmDone := make([]bool, nviewers)
	folded := make([]MachineStats, nviewers)

	materialize := func(gapIdx int) {
		vms = make([]*Machine, nviewers)
		for v := 0; v < nviewers; v++ {
			v := v
			p := base
			seed := ViewerSeed(muxSeed, v)
			p.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
				return JitterIn(seed, key, stream, window)
			}
			p.OnLost = func(int, int) { leds[v].lost++ }
			vms[v] = NewMachine(p)
			for x := 0; x < n; x++ {
				if x != gapIdx {
					vms[v].ResolveRepaired(x)
				}
			}
		}
	}
	diverge := func(idx int) {
		diverged[idx] = true
		if vms == nil {
			materialize(idx)
			return
		}
		for v := range vms {
			vmDone[v] = false
			vms[v].Reopen(idx)
		}
	}
	// driveVM mirrors worker.step + worker.finish (delta folding included).
	driveVM := func(v int, now time.Time) (acted bool, wake time.Time) {
		seed := ViewerSeed(muxSeed, v)
		for {
			if vms[v].Done() {
				if !vmDone[v] {
					vmDone[v] = true
					st := vms[v].Stats()
					leds[v].late += st.Late - folded[v].Late
					leds[v].dup += st.Duplicates - folded[v].Duplicates
					leds[v].repaired += st.Repaired - folded[v].Repaired
					folded[v] = st
					acted = true
				}
				return acted, time.Time{}
			}
			act := vms[v].Next(now)
			if act.Kind != ActRepair {
				return acted, act.Wake
			}
			acted = true
			leds[v].reqs++
			out := oracleOutcome(seed, base.Channel, act.Idx, act.Attempt)
			if out == RepairBusy {
				leds[v].busy++
			}
			vms[v].RepairResult(act.Idx, out, 0, now)
		}
	}

	now := base.Epoch.Add(time.Duration(base.TuneUnit) * base.Unit)
	ai := 0
	for iter := 0; ; iter++ {
		if iter > 200_000 {
			t.Fatal("cohort driver did not converge")
		}
		// Fire everything due at now before advancing the clock.
		acted := false
		var wakes []time.Time
		if !shared.Done() {
			act := shared.Next(now)
			if act.Kind == ActGap {
				diverge(act.Idx)
				continue
			}
			wakes = append(wakes, act.Wake)
		}
		for v := range vms {
			if vmDone[v] {
				continue
			}
			a, wake := driveVM(v, now)
			acted = acted || a
			if !wake.IsZero() {
				wakes = append(wakes, wake)
			}
		}
		if acted {
			continue
		}
		allDone := shared.Done()
		for v := range vms {
			if !vmDone[v] {
				allDone = false
			}
		}
		if allDone {
			if ai < len(arrivals) {
				t.Fatalf("cohort done with %d arrivals undelivered", len(arrivals)-ai)
			}
			break
		}
		// Advance to the earliest wake or arrival.
		var next time.Time
		for _, w := range wakes {
			if next.IsZero() || w.Before(next) {
				next = w
			}
		}
		if ai < len(arrivals) && (next.IsZero() || !arrivals[ai].at.After(next)) {
			now = arrivals[ai].at
			idx := arrivals[ai].idx
			ai++
			if diverged[idx] {
				t.Fatalf("drop-only plan delivered diverged chunk %d", idx)
			}
			shared.Chunk(idx, now)
			continue
		}
		if next.IsZero() {
			t.Fatal("cohort driver stuck: nothing pending")
		}
		now = next
	}
	if sharedLost != 0 {
		t.Fatalf("shared Observe machine booked %d losses itself; all gaps belong to the viewer plane", sharedLost)
	}
	// Shared-machine outcomes apply to every cohort member.
	st := shared.Stats()
	for v := range leds {
		leds[v].late += st.Late
		leds[v].dup += st.Duplicates
	}
	return leds
}

func TestCohortEquivalenceProperty(t *testing.T) {
	base := equivGeometry()
	const nviewers = 3
	var divergedRuns, repairedTotal, lostTotal int64
	for _, muxSeed := range []uint64{1, 2, 3} {
		for _, dropSeed := range []uint64{10, 11, 12} {
			drops, arrivals := dropPlan(base, dropSeed)
			cohortLeds := runCohortSim(t, base, muxSeed, nviewers, arrivals)
			for v := 0; v < nviewers; v++ {
				want := runIndependent(t, base, ViewerSeed(muxSeed, v), arrivals)
				if got := cohortLeds[v]; got != want {
					t.Errorf("muxSeed %d dropSeed %d (drops %v) viewer %d:\n cohort      %+v\n independent %+v",
						muxSeed, dropSeed, drops, v, got, want)
				}
				repairedTotal += cohortLeds[v].repaired
				lostTotal += cohortLeds[v].lost
			}
			divergedRuns++
		}
	}
	// The property must have exercised real divergence, not vacuous runs.
	if repairedTotal == 0 || lostTotal == 0 {
		t.Errorf("weak coverage across %d runs: repaired %d, lost %d — tune drop rates",
			divergedRuns, repairedTotal, lostTotal)
	}
}

// TestCohortReopenAfterFinishFoldsDeltas pins the double-fold hazard: a
// viewer that finishes a fragment, is reopened by a later gap, and finishes
// again must credit its ledger with stat deltas, not cumulative totals.
func TestCohortReopenAfterFinishFoldsDeltas(t *testing.T) {
	base := equivGeometry()
	// Oracle for seed ViewerSeed(21, v) resolves both gaps; what matters is
	// only that two gap checkpoints are far enough apart that viewers finish
	// between them: drop chunks 0 and 7.
	start := base.Epoch.Add(time.Duration(base.TuneUnit) * base.Unit)
	spacing := time.Duration(base.Size) * base.Unit / 8
	var arrivals []arrival
	for idx := 1; idx < 7; idx++ {
		arrivals = append(arrivals, arrival{at: start.Add(time.Duration(idx)*spacing + spacing/2), idx: idx})
	}
	leds := runCohortSim(t, base, 21, 2, arrivals)
	for v, led := range leds {
		if led.repaired+led.lost != 2 {
			t.Errorf("viewer %d: repaired %d + lost %d chunks, want exactly the 2 dropped",
				v, led.repaired, led.lost)
		}
		want := runIndependent(t, base, ViewerSeed(21, v), arrivals)
		if led != want {
			t.Errorf("viewer %d:\n cohort      %+v\n independent %+v", v, led, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Steady-state hot path: one converged datagram must cost zero allocations.
// ---------------------------------------------------------------------------

func TestCohortConvergedPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the gate")
	}
	const chunkBytes, nchunks = 512, 5
	m := &Mux{w: &wire.Welcome{ChunkBytes: chunkBytes, BytesPerUnit: 1024},
		unit: 10 * time.Millisecond, videoBytes: 1 << 20}
	c := &cohort{mux: m, video: 1, playStart: time.Unix(2001, 0)}
	f := &cohortFrag{
		c:       c,
		channel: 2,
		wantSeq: 3,
		params: FragmentParams{
			Video: 1, Channel: 2,
			Size: 2, TuneUnit: 6, PlayUnit: 100,
			TotalBytes: nchunks * chunkBytes, ChunkBytes: chunkBytes, BytesPerUnit: 1024,
			Epoch: time.Unix(2000, 0), Unit: 10 * time.Millisecond,
			Slack: time.Second, Lag: time.Second,
		},
		videoBase: 4096,
		wake:      make(chan struct{}, 1),
	}
	op := f.params
	op.Observe = true
	f.m = NewMachine(op)

	// Only nchunks-1 distinct frames, so the machine never completes and
	// repeated deliveries walk the Accepted, then the Duplicate, branch.
	frames := make([][]byte, nchunks-1)
	for i := range frames {
		payload := make([]byte, chunkBytes)
		content.Fill(payload, 1, f.videoBase+int64(i*chunkBytes))
		ch := wire.Chunk{Video: 1, Channel: 2, Seq: 3, Offset: uint32(i * chunkBytes),
			Total: nchunks * chunkBytes, Payload: payload}
		frame, err := ch.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	now := f.params.Epoch.Add(60 * time.Millisecond)
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		if err := c.handleFrame(f, frames[i%len(frames)], now); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("converged receive path allocates %.1f bytes-objects per datagram, want 0", allocs)
	}
	if c.byteErrors.Load() != 0 || c.dup.Load() != 0 {
		t.Errorf("byteErrors %d dup %d after clean redeliveries", c.byteErrors.Load(), c.dup.Load())
	}
	if want := int64((nchunks - 1) * chunkBytes); c.maxBuffer.Load() != want {
		t.Errorf("buffer high-water %d before playback, want the %d bytes accepted (duplicates uncounted)", c.maxBuffer.Load(), want)
	}
}

// ---------------------------------------------------------------------------
// The cohort buffer ledger: downloaded minus played, sampled at arrivals, a
// chunk counting from the first instant any member holds it.
// ---------------------------------------------------------------------------

// TestCohortBufferLedger scripts one fragment in virtual time through
// every way a chunk can come to be held — shared arrivals, a stripe heal,
// a unicast repair of a diverged chunk, then that chunk's late broadcast
// copy and a plain duplicate — and holds the high-water mark to the
// hand-computed value. Playback runs at 1024 bytes per 10 ms unit from
// t = 0; chunks are 512 bytes; chunk 2 (healed) and chunk 5 (repaired)
// are the two the broadcast drops.
//
//	t (ms)  event                         downloaded  played  level
//	 -30    chunk 0, shared                   512        0     512
//	 -20    chunk 1, shared                  1024        0    1024
//	 -10    chunk 3, shared                  1536        0    1536
//	   0    parity: chunk 2 healed           2048        0    2048
//	   5    chunk 4, shared                  2560      512    2048
//	   6    chunk 5, viewer 0's repair       3072      614    2458  <- high
//	   7    chunk 5, late broadcast copy     3072      716    (held: uncounted)
//	   8    chunk 0, duplicate               3072      819    (uncounted)
//	  20    chunk 6, shared                  3584     2048    1536
func TestCohortBufferLedger(t *testing.T) {
	const chunkBytes, nchunks, highWater = 512, 8, 2458
	playStart := time.Unix(3000, 0)
	at := func(ms int) time.Time { return playStart.Add(time.Duration(ms) * time.Millisecond) }
	sess := &Session{}
	m := &Mux{w: &wire.Welcome{ChunkBytes: chunkBytes, BytesPerUnit: 1024}, sess: sess,
		unit: 10 * time.Millisecond, videoBytes: 1 << 20,
		ledgers: make([]viewerLedger, 1), workers: []*worker{{in: make(chan wcmd, 64)}}}
	c := &cohort{mux: m, video: 1, viewers: []int{0}, playStart: playStart}
	f := &cohortFrag{
		c: c, channel: 2, wantSeq: 3, videoBase: 0,
		params: FragmentParams{
			Video: 1, Channel: 2, Size: 4, TuneUnit: 12, PlayUnit: 100,
			TotalBytes: nchunks * chunkBytes, ChunkBytes: chunkBytes, BytesPerUnit: 1024,
			Epoch: playStart.Add(-time.Second), Unit: 10 * time.Millisecond,
			Slack: time.Second, Lag: time.Second, FecGroup: 4,
		},
		wake: make(chan struct{}, 1),
	}
	op := f.params
	op.Observe = true
	f.m = NewMachine(op)
	f.stripe = NewStripe(4, wire.FecModeXOR, chunkBytes, nchunks)

	payload := func(idx int) []byte {
		b := make([]byte, chunkBytes)
		content.Fill(b, 1, int64(idx*chunkBytes))
		return b
	}
	data := func(idx int) []byte {
		frame, err := (&wire.Chunk{Video: 1, Channel: 2, Seq: 3, Offset: uint32(idx * chunkBytes),
			Total: nchunks * chunkBytes, Payload: payload(idx)}).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	block := make([]byte, chunkBytes)
	for idx := 0; idx < 4; idx++ {
		wire.XorAccum(block, payload(idx))
	}
	pp := wire.AppendParityPayload(nil, 4, block)
	parity, err := wire.EncodeParityFrame(nil, 1, 2, 3, 0, nchunks*chunkBytes, 0, pp, wire.PayloadCRC(pp))
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(ms int, frame []byte, wantLevel int64) {
		t.Helper()
		if err := c.handleFrame(f, frame, at(ms)); err != nil {
			t.Fatal(err)
		}
		if got := c.downloaded.Load() - m.playedBytes(at(ms).Sub(playStart)); got != wantLevel {
			t.Errorf("t=%dms: buffer level %d, want %d", ms, got, wantLevel)
		}
	}
	deliver(-30, data(0), 512)
	deliver(-20, data(1), 1024)
	deliver(-10, data(3), 1536)
	deliver(0, parity, 2048)
	if f.m.Stats().FecHeals != 1 {
		t.Fatalf("parity frame healed %d chunks, want chunk 2", f.m.Stats().FecHeals)
	}
	deliver(5, data(4), 2048)
	c.diverge(f, 5)                                     // the gap detector hands chunk 5 to the viewer plane
	f.creditFirst(f.divergenceOf(5), chunkBytes, at(6)) // ... whose worker books viewer 0's repair (worker.step)
	deliver(7, data(5), 3072-716)
	deliver(8, data(0), 3072-819)
	deliver(20, data(6), 1536)

	if got := c.maxBuffer.Load(); got != highWater {
		t.Errorf("buffer high-water %d, want %d", got, highWater)
	}
	if c.byteErrors.Load() != 0 {
		t.Errorf("%d byte errors on clean content", c.byteErrors.Load())
	}
	// The capacity is enforced against the same mark: one byte under it
	// fails the session, at or over it does not.
	sess.MaxBufferBytes = highWater - 1
	if err := c.overCap(); err == nil {
		t.Errorf("a %d-byte disk held a %d-byte high-water", sess.MaxBufferBytes, highWater)
	}
	sess.MaxBufferBytes = highWater + 1
	if err := c.overCap(); err != nil {
		t.Errorf("a %d-byte disk refused a %d-byte high-water: %v", sess.MaxBufferBytes, highWater, err)
	}
}

func TestPlayedBytes(t *testing.T) {
	m := &Mux{w: &wire.Welcome{SizeUnits: []int64{1, 2}, BytesPerUnit: 100}, unit: time.Second, videoBytes: 300}
	if got := m.playedBytes(-time.Second); got != 0 {
		t.Errorf("before start: %d", got)
	}
	if got := m.playedBytes(1500 * time.Millisecond); got != 150 {
		t.Errorf("1.5 units in: %d, want 150", got)
	}
	if got := m.playedBytes(time.Hour); got != 300 {
		t.Errorf("past end: %d, want 300 (capped)", got)
	}
}

func TestMaxInt64(t *testing.T) {
	var a atomic.Int64
	maxInt64(&a, 5)
	maxInt64(&a, 3)
	maxInt64(&a, 9)
	if a.Load() != 9 {
		t.Errorf("maxInt64 = %d, want 9", a.Load())
	}
}

// TestTuneTurnoverAllocatesNoSlotMemory is the turnover mirror of the
// gate above: once the receive arena is warm, a cohort's steady cycle of
// tune (subscribe at the mux's depth), receive a burst, untune must not
// allocate frame memory again — what a cycle allocates stays a small
// fraction of one subscription's slot quota, which is what the
// per-subscription rings used to allocate on every tune. Two cohorts
// tune the group each cycle, and a datagram both hear occupies one slot,
// so the slot peak stays within one burst, not two.
func TestTuneTurnoverAllocatesNoSlotMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the gate")
	}
	g := mcast.Group{Video: 1, Channel: 2}
	rcv, err := mcast.NewSharedReceiver(0, func([]byte) (mcast.Group, bool) { return g, true })
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	hub, err := mcast.NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Join(g, rcv.Addr()); err != nil {
		t.Fatal(err)
	}
	const depth, burst = 256, 8
	slotBytes := wire.EncodedSize(1024)
	frame := make([]byte, slotBytes)
	cycle := func() {
		var subs [2]*mcast.Subscription
		for k := range subs {
			sub, err := rcv.Subscribe(g, depth, slotBytes)
			if err != nil {
				t.Fatal(err)
			}
			subs[k] = sub
		}
		for i := 0; i < burst; i++ {
			if _, err := hub.Send(g, frame); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range subs {
			for i := 0; i < burst; i++ {
				select {
				case slot := <-sub.Ready():
					sub.Release(slot)
				case <-time.After(5 * time.Second):
					t.Fatal("no delivery within 5s")
				}
			}
			rcv.Unsubscribe(sub)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the arena
	}
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	if limit := uint64(depth * slotBytes / 16); perCycle > limit {
		t.Errorf("a tune/untune cycle allocates %d bytes, want <= %d (1/16 of the %d-slot quota it may fill)",
			perCycle, limit, depth)
	}
	if peak := rcv.Stats().SlotsPeak; peak > burst {
		t.Errorf("slot peak %d over %d cycles of %d-frame bursts to two subscriptions, want <= %d (one slot per datagram)",
			peak, cycles+3, burst, burst)
	}
	if n := rcv.Stats().SlotsInUse; n != 0 {
		t.Errorf("%d slots in use after every frame was released", n)
	}
}

// ---------------------------------------------------------------------------
// Admission-wait histogram plumbing.
// ---------------------------------------------------------------------------

func TestWaitQuantile(t *testing.T) {
	hist := []WaitBucket{{MilliUnits: 100, Count: 5}, {MilliUnits: 500, Count: 3}, {MilliUnits: 900, Count: 2}}
	if got := WaitQuantile(hist, 10, 0.5); got != 0.101 {
		t.Errorf("p50 = %v, want 0.101", got)
	}
	if got := WaitQuantile(hist, 10, 0.99); got != 0.901 {
		t.Errorf("p99 = %v, want 0.901", got)
	}
	if got := WaitQuantile(nil, 0, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	r := &Result{Viewers: 10, WaitHist: hist}
	if got := r.WaitQuantile(0.8); got != 0.501 {
		t.Errorf("result p80 = %v, want 0.501", got)
	}
}

func TestMergeWaitHists(t *testing.T) {
	a := []WaitBucket{{MilliUnits: 100, Count: 2}, {MilliUnits: 300, Count: 1}}
	b := []WaitBucket{{MilliUnits: 300, Count: 4}, {MilliUnits: 50, Count: 1}}
	got := MergeWaitHists(a, b)
	want := []WaitBucket{{MilliUnits: 50, Count: 1}, {MilliUnits: 100, Count: 2}, {MilliUnits: 300, Count: 5}}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}

// TestDivergenceRecordsPublish: workers read a fragment's divergence
// records while the loader appends them across block boundaries; every
// published record is whole, in hand-over order (run under -race).
func TestDivergenceRecordsPublish(t *testing.T) {
	const n = 100
	p := testParams(time.Unix(1000, 0))
	p.TotalBytes = n * p.ChunkBytes
	f := &cohortFrag{m: NewMachine(p)}
	order := func(k int) int { return 3 * k % n } // a permutation of 0..n-1
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nd := 0; nd < n; {
				nd = int(f.ndiverged.Load())
				for k := range nd {
					if d := f.divergence(k); d.idx != order(k) {
						t.Errorf("record %d holds chunk %d, want %d", k, d.idx, order(k))
						return
					}
				}
			}
		}()
	}
	for k := range n {
		f.addDivergence(order(k))
	}
	wg.Wait()
	for k := range n {
		if d := f.divergenceOf(order(k)); d == nil || d != f.divergence(k) || !f.diverged.has(order(k)) {
			t.Fatalf("chunk %d: record %p, want record %d", order(k), d, k)
		}
	}
}
