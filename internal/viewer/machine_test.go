package viewer

import (
	"fmt"
	"testing"
	"time"
)

// testParams is a small fragment with easy arithmetic: 4 chunks of 64
// bytes paced 1s apart, tuning at unit 4, playing at unit 8, so chunk
// idx is expected at epoch+(5+idx)s, plays at epoch+(8+idx)s, and is
// lost half a second later.
func testParams(epoch time.Time) FragmentParams {
	return FragmentParams{
		Video:        0,
		Channel:      2,
		Size:         4,
		TuneUnit:     4,
		PlayUnit:     8,
		TotalBytes:   256,
		ChunkBytes:   64,
		BytesPerUnit: 64,
		Epoch:        epoch,
		Unit:         time.Second,
		Slack:        500 * time.Millisecond,
		Lag:          250 * time.Millisecond,
		Jitter:       func(key, stream uint64, window time.Duration) time.Duration { return time.Millisecond },
	}
}

func TestMachineGeometry(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	if m.nchunks != 4 {
		t.Fatalf("nchunks = %d, want 4", m.nchunks)
	}
	if m.WantSeq() != 1 {
		t.Errorf("wantSeq = %d, want 1 (tune unit 4 / size 4)", m.WantSeq())
	}
	if want := epoch.Add(14 * time.Second); !m.Deadline().Equal(want) {
		t.Errorf("deadline = %v, want %v (end + %d units grace)", m.Deadline(), want, DefaultGraceUnits)
	}
	for idx := 0; idx < 4; idx++ {
		if want := epoch.Add(time.Duration(8+idx) * time.Second); !m.PlayAt(idx).Equal(want) {
			t.Errorf("playAt(%d) = %v, want %v", idx, m.PlayAt(idx), want)
		}
		if want := m.PlayAt(idx).Add(500 * time.Millisecond); !m.LostBy(idx).Equal(want) {
			t.Errorf("lostBy(%d) = %v, want %v", idx, m.LostBy(idx), want)
		}
		if m.ChunkLen(idx) != 64 {
			t.Errorf("chunkLen(%d) = %d, want 64", idx, m.ChunkLen(idx))
		}
	}
}

func TestMachineTailChunkLen(t *testing.T) {
	p := testParams(time.Unix(1000, 0))
	p.TotalBytes = 250 // tail chunk short by 6 bytes
	m := NewMachine(p)
	if m.nchunks != 4 {
		t.Fatalf("nchunks = %d, want 4", m.nchunks)
	}
	if m.ChunkLen(3) != 58 {
		t.Errorf("tail chunkLen = %d, want 58", m.ChunkLen(3))
	}
}

// TestMachineHappyPath: all chunks arrive on schedule; Next only ever
// waits, stats stay clean.
func TestMachineHappyPath(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	for idx := 0; idx < 4; idx++ {
		now := epoch.Add(time.Duration(5+idx)*time.Second - 100*time.Millisecond)
		if act := m.Next(now); act.Kind != ActWait {
			t.Fatalf("chunk %d: Next = %+v, want wait", idx, act)
		}
		if v := m.Chunk(idx, now); v != Accepted {
			t.Fatalf("chunk %d verdict = %v, want Accepted", idx, v)
		}
	}
	if !m.Done() {
		t.Fatal("machine not done after all chunks")
	}
	if st := m.Stats(); st != (MachineStats{}) {
		t.Errorf("clean reception dirtied stats: %+v", st)
	}
}

// TestMachineGapCheckpoint: the gap detector fires one Lag past a
// chunk's expected arrival, and Next's wake converges on that checkpoint,
// where the chunk NACKs.
func TestMachineGapCheckpoint(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	checkpoint := epoch.Add(5*time.Second + 250*time.Millisecond) // expected(0)+Lag

	act := m.Next(epoch.Add(4 * time.Second))
	if act.Kind != ActWait || !act.Wake.Equal(checkpoint) {
		t.Fatalf("Next before checkpoint = %+v, want wait until %v", act, checkpoint)
	}
	act = m.Next(checkpoint)
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("Next at checkpoint = %+v, want nack [0]", act)
	}
}

// TestMachineRepairFailureExhaustsToLost: NACK round trips that fail
// re-listen, then ask again, until the round cap; the chunk then rides
// the broadcast and is declared lost at its deadline, with OnLost told
// how many rounds it joined.
func TestMachineRepairFailureExhaustsToLost(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.Slack = 5 * time.Second // LostBy(0) = 13s: room for every round
	var lostIdx, lostRounds = -1, -1
	p.OnLost = func(idx, rounds int) { lostIdx, lostRounds = idx, rounds }
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	now := m.checkpoint(0)
	nacks := 0
	for {
		act := m.Next(now)
		if m.Done() {
			break
		}
		if act.Kind == ActNack {
			nacks++
			m.NackResult(act.Chunks, now.Add(time.Millisecond)) // failed round trip
			continue
		}
		now = act.Wake
	}
	if nacks != DefaultMaxNackRounds {
		t.Errorf("%d NACK rounds, want the cap of %d", nacks, DefaultMaxNackRounds)
	}
	if !now.Equal(m.LostBy(0)) {
		t.Errorf("declared lost at %v, want its loss deadline %v", now, m.LostBy(0))
	}
	if lostIdx != 0 || lostRounds != DefaultMaxNackRounds {
		t.Errorf("OnLost(%d, %d), want (0, %d)", lostIdx, lostRounds, DefaultMaxNackRounds)
	}
	if st := m.Stats(); st.Lost != 1 || st.Nacks != int64(DefaultMaxNackRounds) {
		t.Errorf("stats = %+v, want 1 lost after %d nacks", st, DefaultMaxNackRounds)
	}
}

// TestMachineRepairDisabledParks: once RepairsEnabled says no (a draining
// server), a due chunk joins no NACK round and rides the broadcast to its
// loss deadline — and the broadcast can still deliver it.
func TestMachineRepairDisabledParks(t *testing.T) {
	epoch := time.Unix(1000, 0)
	enabled := false
	p := testParams(epoch)
	p.RepairsEnabled = func() bool { return enabled }
	m := NewMachine(p)
	now := m.checkpoint(0)
	if act := m.Next(now); act.Kind != ActWait || !act.Wake.Equal(m.checkpoint(1)) {
		t.Fatalf("Next = %+v, want wait until the next checkpoint %v", act, m.checkpoint(1))
	}
	// The chunk left the ladder for good: turning rounds back on does not
	// bring it back, and it wakes only at its loss deadline.
	enabled = true
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, now)
	}
	if act := m.Next(now.Add(time.Second)); act.Kind != ActWait || !act.Wake.Equal(m.LostBy(0)) {
		t.Fatalf("Next = %+v, want wait until lostBy(0) %v", act, m.LostBy(0))
	}
	if v := m.Chunk(0, now.Add(2*time.Second)); v != Accepted {
		t.Fatalf("verdict = %v, want Accepted", v)
	}
	if st := m.Stats(); st.Nacks != 0 || st.Lost != 0 {
		t.Errorf("stats = %+v, want no NACK and no loss", st)
	}
}

// TestMachineDeadlinePassesToLost: a chunk neither broadcast nor
// repaired is declared lost the moment Next observes its deadline gone.
func TestMachineDeadlinePassesToLost(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.DisableRepair = true
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	act := m.Next(m.LostBy(0)) // exactly at the loss deadline
	if !m.Done() {
		t.Fatalf("machine not done after deadline pass (act %+v)", act)
	}
	if st := m.Stats(); st.Lost != 1 {
		t.Errorf("stats = %+v, want 1 lost", st)
	}
}

// TestMachineLateAndDuplicate: arrivals after playback+slack count as
// jitter; retransmissions of resolved chunks are discarded.
func TestMachineLateAndDuplicate(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	late := m.PlayAt(0).Add(501 * time.Millisecond)
	if v := m.Chunk(0, late); v != Accepted {
		t.Fatalf("late verdict = %v, want Accepted", v)
	}
	if v := m.Chunk(0, late); v != Duplicate {
		t.Fatalf("dup verdict = %v, want Duplicate", v)
	}
	st := m.Stats()
	if st.Late != 1 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 late 1 dup", st)
	}
}

// TestMachineLostByCappedByDeadline: chunks whose playback lies past the
// receive cutoff give up at the cutoff, not at playback.
func TestMachineLostByCappedByDeadline(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.PlayUnit = 40 // playback far beyond the broadcast's end
	m := NewMachine(p)
	for idx := 0; idx < 4; idx++ {
		if !m.LostBy(idx).Equal(m.Deadline()) {
			t.Errorf("lostBy(%d) = %v, want receive cutoff %v", idx, m.LostBy(idx), m.Deadline())
		}
	}
}

// TestJitterInDeterminismAndBounds: same (seed, key, stream) always
// draws the same delay; distinct streams desynchronize; every draw is
// within (0, window] with the 1ms floor.
func TestJitterInDeterminismAndBounds(t *testing.T) {
	const window = 80 * time.Millisecond
	d1 := JitterIn(7, 3, 1, window)
	d2 := JitterIn(7, 3, 1, window)
	if d1 != d2 {
		t.Fatalf("same substream drew %v then %v", d1, d2)
	}
	if d1 < time.Millisecond || d1 > window {
		t.Fatalf("draw %v outside [1ms, %v]", d1, window)
	}
	distinct := map[time.Duration]bool{}
	for stream := uint64(0); stream < 8; stream++ {
		distinct[JitterIn(7, 3, stream, window)] = true
	}
	if len(distinct) < 6 {
		t.Errorf("8 streams drew only %d distinct delays", len(distinct))
	}
	if d := JitterIn(7, 3, 1, 0); d < time.Millisecond {
		t.Errorf("zero window drew %v, want >= 1ms floor", d)
	}
}

// TestMachineFootprint holds a machine's memory to its open gaps: a
// cohort's machine (NACK ladder, parity stripe) over a 384-chunk
// fragment received without loss allocates its two bits per chunk and its
// fixed fields, not per-chunk recovery state.
func TestMachineFootprint(t *testing.T) {
	const n = 384
	p := FragmentParams{
		Video: 1, Channel: 2, Size: 8, TuneUnit: 8, PlayUnit: 12,
		TotalBytes: n * 1024, ChunkBytes: 1024, BytesPerUnit: n * 1024 / 8,
		Epoch: time.Unix(1000, 0), Unit: 100 * time.Millisecond,
		Slack: 50 * time.Millisecond, Lag: 50 * time.Millisecond,
		FecGroup: 4,
		Jitter:   func(key, stream uint64, window time.Duration) time.Duration { return window },
	}
	var bad string
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			m := NewMachine(p)
			for idx := range n {
				at := m.arrival(idx)
				m.Chunk(idx, at)
				if act := m.Next(at); act.Kind != ActWait {
					bad = fmt.Sprintf("chunk %d: Next = %+v on a lossless pass", idx, act)
				}
			}
			if !m.Done() {
				bad = "machine not done after a lossless pass"
			}
		}
	})
	if bad != "" {
		t.Fatal(bad)
	}
	if got := res.AllocedBytesPerOp(); got > 512 {
		t.Errorf("NewMachine + lossless pass over %d chunks allocates %d B, want <= 512", n, got)
	}
}

// TestMachineCountersCappedAtWidth: the per-chunk NACK-round counter is a
// byte, so caps past 255 are clamped to 255 — a cap the counter can never
// reach would leave a chunk in the ladder for as long as its deadline
// allows.
func TestMachineCountersCappedAtWidth(t *testing.T) {
	for _, limit := range []int{255, 256, 1000} {
		want := min(limit, 255)
		epoch := time.Unix(1000, 0)
		p := nackParams(epoch)
		p.NackWindow = 10 * time.Millisecond
		p.MaxNackRounds = limit
		p.GraceUnits = 4000 // deadline room for far more rounds than the cap
		p.Slack = 4000 * time.Second
		m := NewMachine(p)
		for idx := 1; idx < 4; idx++ {
			m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
		}
		now := m.checkpoint(0)
		nacks := 0
		for iter := 0; !m.Done(); iter++ {
			if iter > 10*want {
				t.Fatalf("cap %d: chunk still in the NACK ladder after %d rounds", limit, nacks)
			}
			switch act := m.Next(now); act.Kind {
			case ActNack:
				nacks++
				m.NackResult(act.Chunks, now)
			default:
				now = act.Wake
			}
		}
		if nacks != want {
			t.Errorf("cap %d: %d NACK rounds before the chunk rode out, want %d", limit, nacks, want)
		}
	}
}
