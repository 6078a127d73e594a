package viewer

import (
	"testing"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/wire"
)

// ---------------------------------------------------------------------------
// Steady-state hot path: applying one routed datagram must cost zero
// allocations.
// ---------------------------------------------------------------------------

// testMux is a mux that was never run: its geometry, and a router with a
// stripe of width fecGroup (0: none).
func testMux(chunkBytes, bytesPerUnit, fecGroup int) *Mux {
	return &Mux{w: &wire.Welcome{ChunkBytes: chunkBytes, BytesPerUnit: bytesPerUnit, FecGroup: fecGroup},
		sess: &Session{}, unit: 10 * time.Millisecond, videoBytes: 1 << 20,
		route: newRouter(chunkBytes, fecGroup)}
}

// tuneFrag tunes a fragment of cohort c with parameters p, starting
// videoBase bytes into the video: its machine, tapped on the mux's
// router.
func tuneFrag(c *cohort, p FragmentParams, videoBase int64) *frag {
	f := &frag{tuneEntry: tuneEntry{channel: p.Channel, seq: uint32(p.TuneUnit / p.Size), videoBase: videoBase},
		c: c, m: NewMachine(p)}
	c.mux.route.tap(f)
	return f
}

// deliver routes frames, read off the socket at at, through f's router,
// which applies them to f in place, and returns what failed f, if
// anything.
func deliver(f *frag, at time.Time, frames ...[]byte) error {
	f.c.mux.route.route(frames, at)
	return f.err
}

// dataFrame is chunk idx of fragment (video, channel, seq), total bytes
// starting videoBase into the video, with its true content.
func dataFrame(t testing.TB, video, channel int, seq uint32, total, chunkBytes int, videoBase int64, idx int) []byte {
	t.Helper()
	off := idx * chunkBytes
	payload := make([]byte, min(chunkBytes, total-off))
	content.Fill(payload, video, videoBase+int64(off))
	frame, err := (&wire.Chunk{Video: uint16(video), Channel: uint16(channel), Seq: seq, Offset: uint32(off),
		Total: uint32(total), Payload: payload}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCohortConvergedPathZeroAlloc: routing datagrams to a cohort, which
// applies each to its machine in place — accepted, then duplicate —
// allocates nothing.
func TestCohortConvergedPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the gate")
	}
	const chunkBytes, nchunks = 512, 5
	m := testMux(chunkBytes, 1024, 0)
	c := &cohort{mux: m, video: 1, playStart: time.Unix(2001, 0)}
	p := FragmentParams{
		Video: 1, Channel: 2,
		Size: 2, TuneUnit: 6, PlayUnit: 100,
		TotalBytes: nchunks * chunkBytes, ChunkBytes: chunkBytes, BytesPerUnit: 1024,
		Epoch: time.Unix(2000, 0), Unit: 10 * time.Millisecond,
		Slack: time.Second, Lag: time.Second,
	}
	f := tuneFrag(c, p, 4096)

	// Only nchunks-1 distinct frames, so the machine never completes and
	// repeated events walk the Accepted, then the Duplicate, branch.
	frames := make([][]byte, nchunks-1)
	for i := range frames {
		frames[i] = dataFrame(t, 1, 2, 3, nchunks*chunkBytes, chunkBytes, f.videoBase, i)
	}
	at := p.Epoch.Add(60 * time.Millisecond)
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		k := i % len(frames)
		m.route.route(frames[k:k+1], at)
		i++
	})
	if allocs != 0 {
		t.Errorf("routing and applying a datagram allocates %.1f objects, want 0", allocs)
	}
	if f.err != nil {
		t.Fatal(f.err)
	}
	if st := f.m.Stats(); st.Duplicates != int64(i-len(frames)) {
		t.Errorf("%d duplicates booked over %d deliveries of %d frames", st.Duplicates, i, len(frames))
	}
	if c.byteErrors != 0 {
		t.Errorf("byteErrors %d after clean redeliveries", c.byteErrors)
	}
	if want := int64((nchunks - 1) * chunkBytes); c.maxBuffer != want {
		t.Errorf("buffer high-water %d before playback, want the %d bytes accepted (duplicates uncounted)", c.maxBuffer, want)
	}
}

// ---------------------------------------------------------------------------
// The cohort buffer ledger: downloaded minus played, sampled at arrivals, a
// chunk counting from the first instant any member holds it.
// ---------------------------------------------------------------------------

// stripeChunkBytes and stripeNChunks are the geometry of stripeCohort's
// fragment: eight 512-byte chunks under a G=4 stripe.
const stripeChunkBytes, stripeNChunks = 512, 8

// stripeCohort is a one-viewer cohort receiving fragment 2 of video 1,
// repetition 3, in virtual time — stripeNChunks chunks of
// stripeChunkBytes under a G=4 stripe — with playback at 1024 bytes per
// 10 ms unit from playStart. Its frames are stripeData and stripeParity.
func stripeCohort(t *testing.T, playStart time.Time) (*cohort, *frag) {
	t.Helper()
	m := testMux(stripeChunkBytes, 1024, 4)
	c := &cohort{mux: m, video: 1, viewers: []int{0}, playStart: playStart}
	f := tuneFrag(c, FragmentParams{
		Video: 1, Channel: 2, Size: 4, TuneUnit: 12, PlayUnit: 100,
		TotalBytes: stripeNChunks * stripeChunkBytes, ChunkBytes: stripeChunkBytes, BytesPerUnit: 1024,
		Epoch: playStart.Add(-time.Second), Unit: 10 * time.Millisecond,
		Slack: time.Second, Lag: time.Second, FecGroup: 4,
	}, 0)
	return c, f
}

// stripePayload is the content of stripeCohort's chunk idx.
func stripePayload(idx int) []byte {
	b := make([]byte, stripeChunkBytes)
	content.Fill(b, 1, int64(idx*stripeChunkBytes))
	return b
}

// stripeData is stripeCohort's data frame for chunk idx.
func stripeData(t *testing.T, idx int) []byte {
	t.Helper()
	return dataFrame(t, 1, 2, 3, stripeNChunks*stripeChunkBytes, stripeChunkBytes, 0, idx)
}

// stripeParity is the parity frame of stripeCohort's first group, with
// the group base and fragment size its header claims.
func stripeParity(t *testing.T, base, total uint32) []byte {
	t.Helper()
	block := make([]byte, stripeChunkBytes)
	for idx := 0; idx < 4; idx++ {
		wire.XorAccum(block, stripePayload(idx))
	}
	frame, err := wire.EncodeParityFrame(nil, 1, 2, 3, base, total, 0, block, wire.PayloadCRC(block))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCohortBufferLedger scripts one fragment in virtual time through
// every way a chunk can come to be held — broadcast arrivals, a stripe
// heal, the multicast re-send the cohort's NACK brought, then a second
// copy of that chunk and a plain duplicate — and holds the high-water mark
// to the hand-computed value. Playback runs at 1024 bytes per 10 ms unit
// from t = 0; chunks are 512 bytes; chunk 2 (healed) and chunk 5 (re-sent)
// are the two the broadcast drops.
//
//	t (ms)  event                         downloaded  played  level
//	 -30    chunk 0, shared                   512        0     512
//	 -20    chunk 1, shared                  1024        0    1024
//	 -10    chunk 3, shared                  1536        0    1536
//	   0    parity: chunk 2 healed           2048        0    2048
//	   5    chunk 4, shared                  2560      512    2048
//	   6    chunk 5, the NACK's re-send      3072      614    2458  <- high
//	   7    chunk 5, a second copy           3072      716    (held: uncounted)
//	   8    chunk 0, duplicate               3072      819    (uncounted)
//	  20    chunk 6, shared                  3584     2048    1536
func TestCohortBufferLedger(t *testing.T) {
	playStart := time.Unix(3000, 0)
	const highWater = 2458
	c, f := stripeCohort(t, playStart)
	m, sess := c.mux, c.mux.sess
	at := func(ms int) time.Time { return playStart.Add(time.Duration(ms) * time.Millisecond) }
	parity := stripeParity(t, 0, stripeNChunks*stripeChunkBytes)
	arrive := func(ms int, frame []byte, wantLevel int64) {
		t.Helper()
		if err := deliver(f, at(ms), frame); err != nil {
			t.Fatal(err)
		}
		if got := c.downloaded - m.playedBytes(at(ms).Sub(playStart)); got != wantLevel {
			t.Errorf("t=%dms: buffer level %d, want %d", ms, got, wantLevel)
		}
	}
	data := func(idx int) []byte { return stripeData(t, idx) }
	arrive(-30, data(0), 512)
	arrive(-20, data(1), 1024)
	arrive(-10, data(3), 1536)
	arrive(0, parity, 2048)
	if f.m.Stats().FecHeals != 1 {
		t.Fatalf("parity frame healed %d chunks, want chunk 2", f.m.Stats().FecHeals)
	}
	arrive(5, data(4), 2048)
	arrive(6, data(5), 2458)
	arrive(7, data(5), 3072-716)
	arrive(8, data(0), 3072-819)
	arrive(20, data(6), 1536)

	if got := c.maxBuffer; got != highWater {
		t.Errorf("buffer high-water %d, want %d", got, highWater)
	}
	if c.byteErrors != 0 {
		t.Errorf("%d byte errors on clean content", c.byteErrors)
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
