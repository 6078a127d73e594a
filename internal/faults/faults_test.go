package faults

import (
	"sync"
	"testing"
	"time"

	"skyscraper/internal/des"
	"skyscraper/internal/mcast"
	"skyscraper/internal/trace"
	"skyscraper/internal/wire"
)

// recorder is an mcast.Sender that keeps a copy of every frame, in send
// order. Copies matter: the injector may pass through the caller's buffer,
// which real pacers reuse.
type recorder struct {
	mu     sync.Mutex
	frames map[mcast.Group][][]byte
}

func newRecorder() *recorder {
	return &recorder{frames: make(map[mcast.Group][][]byte)}
}

func (r *recorder) Send(g mcast.Group, frame []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames[g] = append(r.frames[g], append([]byte(nil), frame...))
	return len(frame), nil
}

func (r *recorder) offsets(g mcast.Group) []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []uint32
	for _, f := range r.frames[g] {
		_, _, _, off, ok := wire.PeekID(f)
		if !ok {
			out = append(out, ^uint32(0))
			continue
		}
		out = append(out, off)
	}
	return out
}

// sendStream pushes nchunks frames for one channel through the injector,
// reusing the encode buffer the way the server's pacer does.
func sendStream(t *testing.T, in *Injector, g mcast.Group, video, channel uint16, nchunks int) {
	t.Helper()
	var buf []byte
	for i := 0; i < nchunks; i++ {
		c := wire.Chunk{
			Video: video, Channel: channel, Seq: 1,
			Offset: uint32(i * 64), Total: uint32(nchunks * 64),
			Payload: make([]byte, 64),
		}
		frame, err := c.Encode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = frame
		if _, err := in.Send(g, frame); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []Plan{
		{Drop: -0.1},
		{Duplicate: 1.5},
		{Reorder: 2},
		{Delay: -1},
		{Delay: 0.5}, // MaxDelay missing
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) accepted", i, p)
		}
	}
	good := Plan{Drop: 0.1, Duplicate: 0.2, Reorder: 0.3, Delay: 0.4, MaxDelay: time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if _, err := New(nil, Plan{}); err == nil {
		t.Error("nil sender accepted")
	}
}

// TestFaultPlanDeterministic is the heart of the chaos design: two
// injectors built from the same plan must injure exactly the same chunk
// positions, regardless of when they run.
func TestFaultPlanDeterministic(t *testing.T) {
	g := mcast.Group{}
	plan := Plan{Seed: 42, Drop: 0.3, Duplicate: 0.2, Reorder: 0.2}
	var seqs [2][]uint32
	var counts [2]Counts
	for run := 0; run < 2; run++ {
		rec := newRecorder()
		in, err := New(rec, plan)
		if err != nil {
			t.Fatal(err)
		}
		sendStream(t, in, g, 1, 3, 200)
		in.Flush()
		seqs[run] = rec.offsets(g)
		counts[run] = in.Counts()
	}
	if counts[0] != counts[1] {
		t.Errorf("fault counts differ between identical plans: %+v vs %+v", counts[0], counts[1])
	}
	if len(seqs[0]) != len(seqs[1]) {
		t.Fatalf("output lengths differ: %d vs %d", len(seqs[0]), len(seqs[1]))
	}
	for i := range seqs[0] {
		if seqs[0][i] != seqs[1][i] {
			t.Fatalf("send order diverges at %d: %d vs %d", i, seqs[0][i], seqs[1][i])
		}
	}
	if counts[0].Dropped == 0 || counts[0].Duplicated == 0 || counts[0].Reordered == 0 {
		t.Errorf("expected all enabled faults to fire over 200 chunks: %+v", counts[0])
	}
}

// TestFaultSeqIndependence checks the deliberate design choice that a chunk
// position injured in one broadcast repetition is injured in every one.
func TestFaultSeqIndependence(t *testing.T) {
	plan := Plan{Seed: 7, Drop: 0.4}
	g := mcast.Group{}
	var perSeq [2]Counts
	for i, seq := range []uint32{1, 900} {
		rec := newRecorder()
		in, err := New(rec, plan)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 100; c++ {
			frame, err := (&wire.Chunk{
				Video: 2, Channel: 1, Seq: seq,
				Offset: uint32(c * 64), Total: 6400, Payload: make([]byte, 64),
			}).Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.Send(g, frame); err != nil {
				t.Fatal(err)
			}
		}
		perSeq[i] = in.Counts()
	}
	if perSeq[0] != perSeq[1] {
		t.Errorf("fault pattern depends on repetition number: %+v vs %+v", perSeq[0], perSeq[1])
	}
}

func TestFaultDropRate(t *testing.T) {
	const n, rate = 2000, 0.25
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 11, Drop: rate})
	if err != nil {
		t.Fatal(err)
	}
	sendStream(t, in, mcast.Group{}, 1, 2, n)
	dropped := float64(in.Counts().Dropped)
	if got := dropped / n; got < rate-0.05 || got > rate+0.05 {
		t.Errorf("drop rate %v far from configured %v", got, rate)
	}
	if sent := len(rec.offsets(mcast.Group{})); sent != n-int(dropped) {
		t.Errorf("sent %d frames, want %d", sent, n-int(dropped))
	}
}

// TestFaultReorderSwaps verifies held frames are released after their
// successor, and that Flush releases a frame held at stream end.
func TestFaultReorderSwaps(t *testing.T) {
	g := mcast.Group{}
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 3, Reorder: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	sendStream(t, in, g, 1, 1, n)
	in.Flush()
	offs := rec.offsets(g)
	if len(offs) != n {
		t.Fatalf("reordering changed frame count: %d vs %d", len(offs), n)
	}
	seen := make(map[uint32]bool)
	inOrder := true
	var prev uint32
	for i, o := range offs {
		if seen[o] {
			t.Fatalf("offset %d sent twice", o)
		}
		seen[o] = true
		if i > 0 && o < prev {
			inOrder = false
		}
		prev = o
	}
	if got := in.Counts().Reordered; got == 0 {
		t.Fatal("no reorders over 100 chunks at rate 0.3")
	}
	if inOrder {
		t.Error("reordering left the stream fully ordered")
	}
}

func TestFaultDelayDefers(t *testing.T) {
	g := mcast.Group{}
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 5, Delay: 0.5, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	sendStream(t, in, g, 1, 1, n)
	delayed := in.Counts().Delayed
	if delayed == 0 {
		t.Fatal("no delays over 60 chunks at rate 0.5")
	}
	// Deferred sends land within MaxDelay; wait it out, then everything
	// must have arrived exactly once.
	deadline := time.Now().Add(time.Second)
	for {
		if got := len(rec.offsets(g)); got == n {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames after delay window", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// parityFrame encodes the parity frame of the group based at chunk base
// of an nchunks-chunk fragment, with 64-byte chunks to match sendStream.
func parityFrame(t testing.TB, video, channel uint16, base, nchunks int, seq uint32) []byte {
	t.Helper()
	block := make([]byte, 64)
	frame, err := wire.EncodeParityFrame(nil, video, channel, seq,
		uint32(base*64), uint32(nchunks*64), 0, block, wire.PayloadCRC(block))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// dataOffsets is recorder.offsets restricted to data chunks.
func (r *recorder) dataOffsets(g mcast.Group) []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []uint32
	for _, f := range r.frames[g] {
		if wire.IsParity(f) {
			continue
		}
		if _, _, _, off, ok := wire.PeekID(f); ok {
			out = append(out, off)
		}
	}
	return out
}

func TestFaultBurstValidate(t *testing.T) {
	bad := []Plan{
		{BurstEnter: -0.1, BurstExit: 0.5, BurstDrop: 1, ChunkBytes: 64},
		{BurstEnter: 0.1}, // no exit rate
		{BurstEnter: 0.1, BurstExit: 0.5, BurstDrop: 1}, // no chunk size
		{BurstEnter: 0.1, BurstExit: 1.5, BurstDrop: 1, ChunkBytes: 64},
		{BurstEnter: 0.1, BurstExit: 0.5, BurstDrop: 2, ChunkBytes: 64},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("burst plan %d (%+v) accepted", i, p)
		}
	}
	good := Plan{BurstEnter: 0.05, BurstExit: 0.5, BurstDrop: 1, ChunkBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid burst plan rejected: %v", err)
	}
}

// TestFaultBurstDeterministic: the Gilbert–Elliott chain is part of the
// plan's reproducibility contract — same plan, same injured positions.
func TestFaultBurstDeterministic(t *testing.T) {
	g := mcast.Group{}
	plan := Plan{Seed: 21, BurstEnter: 0.05, BurstExit: 0.4, BurstDrop: 1, ChunkBytes: 64}
	var offs [2][]uint32
	var counts [2]Counts
	for run := 0; run < 2; run++ {
		rec := newRecorder()
		in, err := New(rec, plan)
		if err != nil {
			t.Fatal(err)
		}
		sendStream(t, in, g, 1, 2, 500)
		offs[run] = rec.offsets(g)
		counts[run] = in.Counts()
	}
	if counts[0] != counts[1] || counts[0].BurstDropped == 0 {
		t.Errorf("burst counts not reproducible (or zero): %+v vs %+v", counts[0], counts[1])
	}
	if len(offs[0]) != len(offs[1]) {
		t.Fatalf("output lengths differ: %d vs %d", len(offs[0]), len(offs[1]))
	}
	for i := range offs[0] {
		if offs[0][i] != offs[1][i] {
			t.Fatalf("burst pattern diverges at %d", i)
		}
	}
}

// TestFaultBurstShape: losses cluster — the stationary loss rate tracks
// enter/(enter+exit), and runs of consecutive drops (the whole point of
// the two-state chain) actually occur.
func TestFaultBurstShape(t *testing.T) {
	const n = 4000
	g := mcast.Group{}
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 13, BurstEnter: 0.05, BurstExit: 0.5, BurstDrop: 1, ChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	sendStream(t, in, g, 1, 1, n)
	dropped := in.Counts().BurstDropped
	// Stationary bad fraction = enter/(enter+exit) ≈ 9.1%.
	if rate := float64(dropped) / n; rate < 0.04 || rate > 0.16 {
		t.Errorf("burst drop rate %v far from stationary 0.091", rate)
	}
	// Reconstruct the drop pattern and check for a multi-chunk burst: with
	// mean burst length 1/exit = 2, a run of >= 2 is effectively certain.
	sent := make(map[uint32]bool)
	for _, o := range rec.offsets(g) {
		sent[o] = true
	}
	longest, run := 0, 0
	for c := 0; c < n; c++ {
		if !sent[uint32(c*64)] {
			run++
		} else {
			run = 0
		}
		if run > longest {
			longest = run
		}
	}
	if longest < 2 {
		t.Errorf("longest loss run = %d, want >= 2 (iid-like pattern defeats the burst mode)", longest)
	}
}

// TestFaultBurstSeqIndependence: like the iid faults, the chain is keyed
// on chunk position, never the repetition number, so every repetition
// sees the same injured positions.
func TestFaultBurstSeqIndependence(t *testing.T) {
	plan := Plan{Seed: 17, BurstEnter: 0.1, BurstExit: 0.5, BurstDrop: 1, ChunkBytes: 64}
	g := mcast.Group{}
	var perSeq [2]Counts
	for i, seq := range []uint32{1, 900} {
		rec := newRecorder()
		in, err := New(rec, plan)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 200; c++ {
			frame, err := (&wire.Chunk{
				Video: 2, Channel: 1, Seq: seq,
				Offset: uint32(c * 64), Total: 200 * 64, Payload: make([]byte, 64),
			}).Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.Send(g, frame); err != nil {
				t.Fatal(err)
			}
		}
		perSeq[i] = in.Counts()
	}
	if perSeq[0] != perSeq[1] {
		t.Errorf("burst pattern depends on repetition number: %+v vs %+v", perSeq[0], perSeq[1])
	}
}

// TestFaultParityDoesNotShiftData is the FEC-off golden gate at the
// injector level: staging parity frames between the data chunks must not
// change which data chunks are injured — parity rolls live on shifted
// substreams, so turning the stripe on cannot reshuffle the loss pattern
// a seeded run was recorded under.
func TestFaultParityDoesNotShiftData(t *testing.T) {
	const n, group = 240, 8
	plan := Plan{Seed: 29, Drop: 0.2, BurstEnter: 0.05, BurstExit: 0.5, BurstDrop: 1, ChunkBytes: 64}
	g := mcast.Group{Video: 1, Channel: 2}
	run := func(striped bool) []uint32 {
		rec := newBatchRecorder()
		in, err := New(rec, plan)
		if err != nil {
			t.Fatal(err)
		}
		var a tickArena
		for c := 0; c < n; c++ {
			batch := in.Stage(nil, g, 1, uint32(c*64), 0, dataFrame(t, 1, 2, 1, c, n), a.take)
			if striped && (c+1)%group == 0 {
				base := c + 1 - group
				batch = in.Stage(batch, g, 1, uint32(base*64), wire.ParityCount(uint32(base*64), n*64, group, 64),
					parityFrame(t, 1, 2, base, n, 1), a.take)
			}
			rec.SendBatch(batch)
		}
		return rec.dataOffsets(g)
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("surviving data count changed with parity interleaved: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("data loss pattern shifted at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFaultParityFaulted: parity frames are subject to the plan like any
// chunk — a Drop=1 plan eats a staged one (it is not control
// passthrough), on its own roll substream. Send, which cannot know a
// parity frame's coverage, forwards one untouched.
func TestFaultParityFaulted(t *testing.T) {
	g := mcast.Group{Video: 1, Channel: 2}
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 31, Drop: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	frame := parityFrame(t, 1, 2, 0, 64, 1)
	if batch := in.Stage(nil, g, 1, 0, 8, frame, nil); len(batch) != 0 {
		t.Error("Drop=1 plan staged a parity frame")
	}
	if c := in.Counts(); c.Dropped != 1 {
		t.Errorf("counts = %+v, want the parity frame counted dropped", c)
	}
	if _, err := in.Send(g, frame); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames[g]) != 1 {
		t.Error("Send did not forward a parity frame untouched")
	}
	if c := in.Counts(); c.Dropped != 1 {
		t.Errorf("counts = %+v after Send of a parity frame, want it not decided", c)
	}
}

// TestFaultNonChunkPassthrough: frames that are not data chunks go through
// untouched.
func TestFaultNonChunkPassthrough(t *testing.T) {
	g := mcast.Group{}
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 1, Drop: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Send(g, []byte("not a chunk frame")); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames[g]) != 1 {
		t.Errorf("non-chunk frame was dropped by a Drop=1 plan")
	}
}

// TestFaultZeroPlanTransparent: an all-zero plan must be a perfect wire.
func TestFaultZeroPlanTransparent(t *testing.T) {
	g := mcast.Group{}
	rec := newRecorder()
	in, err := New(rec, Plan{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sendStream(t, in, g, 1, 1, 50)
	offs := rec.offsets(g)
	if len(offs) != 50 {
		t.Fatalf("zero plan changed frame count: %d", len(offs))
	}
	for i, o := range offs {
		if o != uint32(i*64) {
			t.Fatalf("zero plan changed order at %d: %d", i, o)
		}
	}
	if c := in.Counts(); c != (Counts{}) {
		t.Errorf("zero plan injected faults: %+v", c)
	}
}

// stripeSchedule lists two repetitions of nchunks data chunks with the
// parity frame behind every group of g (the tail group may be short) —
// the order the server's egress stages them.
func stripeSchedule(g mcast.Group, nchunks, group int) []scheduled {
	var steps []scheduled
	for seq := uint32(1); seq <= 2; seq++ {
		for c := 0; c < nchunks; c++ {
			steps = append(steps, scheduled{g: g, seq: seq, offset: uint32(c * 64)})
			if (c+1)%group == 0 || c == nchunks-1 {
				base := uint32(c / group * group * 64)
				steps = append(steps, scheduled{g: g, seq: seq, offset: base,
					covered: wire.ParityCount(base, uint32(nchunks*64), group, 64)})
			}
		}
	}
	return steps
}

// driveSchedule stages a schedule through a fresh injector a frame a
// tick, building the frames heard(i) selects and staging the rest
// unbuilt, and sends each tick's batch. It returns the injector, what
// reached the wire, and the trace.
func driveSchedule(t *testing.T, plan Plan, steps []scheduled, nchunks int, heard func(i int) bool) (*Injector, *recorder, []trace.Event) {
	t.Helper()
	plan.Trace = trace.New(1 << 14)
	rec := newBatchRecorder()
	in, err := New(rec, plan)
	if err != nil {
		t.Fatal(err)
	}
	var a tickArena
	for i, st := range steps {
		if heard(i) {
			video, channel := uint16(st.g.Video), uint16(st.g.Channel)
			if st.covered > 0 {
				st.frame = parityFrame(t, video, channel, int(st.offset/64), nchunks, st.seq)
			} else {
				st.frame = dataFrame(t, video, channel, st.seq, int(st.offset/64), nchunks)
			}
		}
		if batch := in.Stage(nil, st.g, st.seq, st.offset, st.covered, st.frame, a.take); len(batch) > 0 {
			rec.SendBatch(batch)
		}
	}
	return in, &rec.recorder, plan.Trace.Events()
}

// TestFaultUnheardKeepsThePlan: a schedule staged partly unbuilt (its
// group unheard) injures exactly the positions, with exactly the counts,
// that the same schedule injures when every frame is built and sent —
// the counts stay a function of the seed alone however the audience
// moves — and every frame that was sent meets the same decision either
// way.
func TestFaultUnheardKeepsThePlan(t *testing.T) {
	g := mcast.Group{Video: 3, Channel: 2}
	const nchunks = 300
	steps := stripeSchedule(g, nchunks, 4)
	all := func(int) bool { return true }
	// An arbitrary audience: listeners come and go in uneven stretches,
	// mid-group and across group boundaries.
	mix := func(i int) bool { return des.SubSeed(17, uint64(i/5))%3 != 0 }

	t.Run("counts and decisions", func(t *testing.T) {
		plan := Plan{Seed: 7, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, Delay: 0.05, MaxDelay: time.Millisecond,
			BurstEnter: 0.03, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 64}
		inA, _, evA := driveSchedule(t, plan, steps, nchunks, all)
		inB, _, evB := driveSchedule(t, plan, steps, nchunks, mix)
		if a, b := inA.Counts(), inB.Counts(); a != b {
			t.Fatalf("counts diverge: all heard %+v, heard/unheard mix %+v", a, b)
		}
		if c := inA.Counts(); c.Dropped == 0 || c.BurstDropped == 0 || c.Duplicated == 0 || c.Reordered == 0 || c.Delayed == 0 {
			t.Fatalf("plan left a fault kind unexercised: %+v", c)
		}
		if len(evA) != len(evB) {
			t.Fatalf("%d fault events all heard, %d mixed", len(evA), len(evB))
		}
		for i := range evA {
			if evA[i].Kind != evB[i].Kind || evA[i].Detail != evB[i].Detail {
				t.Fatalf("fault event %d: all heard %s %q, mixed %s %q", i, evA[i].Kind, evA[i].Detail, evB[i].Kind, evB[i].Detail)
			}
		}
	})

	t.Run("wire", func(t *testing.T) {
		// Without delay and reorder a frame reaches the wire in its own
		// tick, so the wire itself is comparable: every frame that was sent
		// appears as often (0, 1 or 2 times) as when everything is sent,
		// and nothing unheard appears at all.
		plan := Plan{Seed: 7, Drop: 0.1, Duplicate: 0.1, BurstEnter: 0.03, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 64}
		_, recA, _ := driveSchedule(t, plan, steps, nchunks, all)
		_, recB, _ := driveSchedule(t, plan, steps, nchunks, mix)
		type key struct {
			seq, offset uint32
			parity      bool
		}
		tally := func(r *recorder) map[key]int {
			m := make(map[key]int)
			for _, f := range r.frames[g] {
				_, _, seq, off, _ := wire.PeekID(f)
				m[key{seq, off, wire.IsParity(f)}]++
			}
			return m
		}
		a, b := tally(recA), tally(recB)
		for i, st := range steps {
			k := key{st.seq, st.offset, st.covered > 0}
			if want := a[k]; mix(i) && b[k] != want {
				t.Fatalf("step %d (%+v) sent in both runs: on the wire %d times mixed, %d times all heard", i, k, b[k], want)
			}
			if !mix(i) && b[k] != 0 {
				t.Fatalf("step %d (%+v) was unheard yet reached the wire", i, k)
			}
		}
	})

	t.Run("held frame released", func(t *testing.T) {
		// Every frame is held for its successor; when the successor is
		// unheard the held copy must go back to the pool, not wait for
		// Flush, and must not reach the wire.
		in, rec, _ := driveSchedule(t, Plan{Seed: 7, Reorder: 1}, steps[:2], nchunks, func(i int) bool { return i == 0 })
		in.mu.Lock()
		held := len(in.held)
		in.mu.Unlock()
		if held != 0 {
			t.Errorf("%d frames still held after the group went quiet", held)
		}
		if n := len(rec.frames[g]); n != 0 {
			t.Errorf("%d frames reached the wire, want 0", n)
		}
		if c := in.Counts(); c.Reordered != 2 {
			t.Errorf("Reordered = %d, want 2 (the unheard frame's decision is still booked)", c.Reordered)
		}
	})
}
