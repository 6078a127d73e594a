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
	if m.NChunks() != 4 {
		t.Fatalf("nchunks = %d, want 4", m.NChunks())
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
	if m.NChunks() != 4 {
		t.Fatalf("nchunks = %d, want 4", m.NChunks())
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
// chunk's expected arrival, and Next's wake converges on that checkpoint.
func TestMachineGapCheckpoint(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	checkpoint := epoch.Add(5*time.Second + 250*time.Millisecond) // expected(0)+Lag

	act := m.Next(epoch.Add(4 * time.Second))
	if act.Kind != ActWait || !act.Wake.Equal(checkpoint) {
		t.Fatalf("Next before checkpoint = %+v, want wait until %v", act, checkpoint)
	}
	act = m.Next(checkpoint)
	if act.Kind != ActRepair || act.Idx != 0 || act.Attempt != 1 {
		t.Fatalf("Next at checkpoint = %+v, want repair chunk 0 attempt 1", act)
	}
}

// TestMachineRepairBusyThenOK: admission pushback reschedules at the
// hint plus jitter without burning the chunk, and a later success books
// it as repaired.
func TestMachineRepairBusyThenOK(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	now := epoch.Add(5*time.Second + 250*time.Millisecond)

	if d := m.RepairResult(0, RepairBusy, 100*time.Millisecond, now); d != Rescheduled {
		t.Fatalf("busy disposition = %v, want Rescheduled", d)
	}
	// Next must not re-fire before now + hint + jitter(=1ms).
	retry := now.Add(100*time.Millisecond + time.Millisecond)
	if act := m.Next(now.Add(50 * time.Millisecond)); act.Kind != ActWait || !act.Wake.Equal(retry) {
		t.Fatalf("Next during busy hold-off = %+v, want wait until %v", act, retry)
	}
	act := m.Next(retry)
	if act.Kind != ActRepair || act.Idx != 0 || act.Attempt != 2 {
		t.Fatalf("Next at retry = %+v, want repair chunk 0 attempt 2", act)
	}
	if d := m.RepairResult(0, RepairOK, 0, retry); d != Repaired {
		t.Fatalf("ok disposition = %v, want Repaired", d)
	}
	st := m.Stats()
	if st.Repaired != 1 || st.Late != 0 || st.Lost != 0 {
		t.Errorf("stats after repair = %+v, want 1 repaired", st)
	}
	if m.Attempts(0) != 2 {
		t.Errorf("attempts = %d, want 2", m.Attempts(0))
	}
}

// TestMachineBusyZeroHint: a zero retry hint means the answer is in
// flight on the broadcast group; the retry waits about two chunk
// intervals.
func TestMachineBusyZeroHint(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	now := epoch.Add(5*time.Second + 250*time.Millisecond)
	for idx := 1; idx < 4; idx++ { // resolve the rest so chunk 0 owns the wake
		m.Chunk(idx, now)
	}
	m.RepairResult(0, RepairBusy, 0, now)
	retry := now.Add(2*time.Second + time.Millisecond) // 2*spacing + jitter
	if act := m.Next(now); act.Kind != ActWait || !act.Wake.Equal(retry) {
		t.Fatalf("Next = %+v, want wait until %v", act, retry)
	}
}

// TestMachineRepairFailureExhaustsToLost: transport failures back off
// and retry until the attempt cap, then the chunk is declared lost.
func TestMachineRepairFailureExhaustsToLost(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	var lostIdx, lostAttempts = -1, -1
	p.OnLost = func(idx, attempts int) { lostIdx, lostAttempts = idx, attempts }
	m := NewMachine(p)
	now := epoch.Add(5*time.Second + 250*time.Millisecond)

	for try := 1; try < DefaultMaxRepairAttempts; try++ {
		if d := m.RepairResult(0, RepairFailed, 0, now); d != Rescheduled {
			t.Fatalf("attempt %d disposition = %v, want Rescheduled", try, d)
		}
		now = now.Add(2 * time.Millisecond)
	}
	if d := m.RepairResult(0, RepairFailed, 0, now); d != LostNow {
		t.Fatalf("final disposition = %v, want LostNow", d)
	}
	if lostIdx != 0 || lostAttempts != DefaultMaxRepairAttempts {
		t.Errorf("OnLost(%d, %d), want (0, %d)", lostIdx, lostAttempts, DefaultMaxRepairAttempts)
	}
	if st := m.Stats(); st.Lost != 1 {
		t.Errorf("stats = %+v, want 1 lost", st)
	}
	if !m.Have(0) {
		t.Error("lost chunk not resolved")
	}
}

// TestMachineRepairDisabledParks: a draining server parks the chunk on
// the broadcast; it is never repaired again but can still arrive.
func TestMachineRepairDisabledParks(t *testing.T) {
	epoch := time.Unix(1000, 0)
	enabled := true
	p := testParams(epoch)
	p.RepairsEnabled = func() bool { return enabled }
	m := NewMachine(p)
	now := epoch.Add(5*time.Second + 250*time.Millisecond)

	if d := m.RepairResult(0, RepairDisabled, 0, now); d != Parked {
		t.Fatalf("disposition = %v, want Parked", d)
	}
	enabled = false
	// No more repairs offered; the wake is the chunk's loss deadline.
	if act := m.Next(now.Add(time.Second)); act.Kind != ActWait || !act.Wake.Equal(m.LostBy(0)) {
		t.Fatalf("Next = %+v, want wait until lostBy(0) %v", act, m.LostBy(0))
	}
	// The broadcast can still deliver it.
	if v := m.Chunk(0, now.Add(2*time.Second)); v != Accepted {
		t.Fatalf("verdict = %v, want Accepted", v)
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

// TestMachineObserveGapOnce: in Observe mode the machine reports each
// gap exactly once and schedules no repairs of its own.
func TestMachineObserveGapOnce(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.Observe = true
	p.Jitter = nil // Observe mode draws no jitter
	m := NewMachine(p)
	checkpoint := epoch.Add(5*time.Second + 250*time.Millisecond)

	act := m.Next(checkpoint)
	if act.Kind != ActGap || act.Idx != 0 {
		t.Fatalf("Next = %+v, want gap chunk 0", act)
	}
	// The gap is handed over; only the loss deadline remains.
	act = m.Next(checkpoint)
	if act.Kind != ActWait {
		t.Fatalf("second Next = %+v, want wait", act)
	}
	if wantWake := epoch.Add(6*time.Second + 250*time.Millisecond); !act.Wake.Equal(wantWake) {
		t.Errorf("wake = %v, want chunk 1's checkpoint %v", act.Wake, wantWake)
	}
}

// TestMachineResolveRepaired: the cohort multiplexer closes a chunk all
// viewers recovered over unicast without touching arrival stats.
func TestMachineResolveRepaired(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.Observe = true
	p.Jitter = nil
	m := NewMachine(p)
	if !m.ResolveRepaired(2) {
		t.Fatal("resolve of outstanding chunk reported stale")
	}
	if m.ResolveRepaired(2) {
		t.Fatal("second resolve reported outstanding")
	}
	if st := m.Stats(); st != (MachineStats{}) {
		t.Errorf("resolve dirtied stats: %+v", st)
	}
	if !m.Have(2) {
		t.Error("resolved chunk not booked")
	}
}

// TestMachineObserveHandedOverClosesSilently: once a gap is handed to
// the per-viewer ledgers, the shared Observe machine closes it at its
// deadline without booking a loss — the viewers own the outcome.
func TestMachineObserveHandedOverClosesSilently(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.Observe = true
	p.Jitter = nil
	lostIdx := -1
	p.OnLost = func(idx, attempts int) { lostIdx = idx }
	m := NewMachine(p)
	if act := m.Next(epoch.Add(5*time.Second + 250*time.Millisecond)); act.Kind != ActGap || act.Idx != 0 {
		t.Fatalf("Next = %+v, want gap chunk 0", act)
	}
	// Resolve the rest so only the handed-over chunk remains, then pass
	// every deadline.
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(m.Deadline().Add(time.Second))
	if !m.Done() {
		t.Fatal("machine not done past its deadline")
	}
	if st := m.Stats(); st.Lost != 0 {
		t.Errorf("handed-over chunk booked as lost: %+v", st)
	}
	if lostIdx != -1 {
		t.Errorf("OnLost fired for handed-over chunk %d", lostIdx)
	}
}

// TestMachineReopen: Reopen reverses a ResolveRepaired, restoring the
// construction-time checkpoint and attempt count.
func TestMachineReopen(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(testParams(epoch))
	fresh := NewMachine(testParams(epoch))
	if !m.ResolveRepaired(1) {
		t.Fatal("resolve of outstanding chunk reported stale")
	}
	m.Reopen(1)
	if m.Have(1) || m.Attempts(1) != 0 {
		t.Fatalf("reopened chunk: have=%v attempts=%d, want outstanding with 0 attempts", m.Have(1), m.Attempts(1))
	}
	// Both machines now want the same first repair at chunk 1's checkpoint.
	at := epoch.Add(6*time.Second + 250*time.Millisecond)
	m.Chunk(0, epoch.Add(5*time.Second))
	fresh.Chunk(0, epoch.Add(5*time.Second))
	got, want := m.Next(at), fresh.Next(at)
	if got.Kind != want.Kind || got.Idx != want.Idx || got.Attempt != want.Attempt || !got.Wake.Equal(want.Wake) {
		t.Errorf("reopened Next = %+v, fresh Next = %+v", got, want)
	}
	m.Reopen(2) // no-op on an outstanding chunk
	if m.Have(2) {
		t.Error("Reopen dirtied an outstanding chunk")
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

// TestMachineFootprint holds a machine's memory to its open gaps: the
// cohort's shared machine (Observe mode, NACK ladder, parity stripe) over
// a 384-chunk fragment received without loss allocates its two bits per
// chunk and its fixed fields, not per-chunk recovery state.
func TestMachineFootprint(t *testing.T) {
	const n = 384
	p := FragmentParams{
		Video: 1, Channel: 2, Size: 8, TuneUnit: 8, PlayUnit: 12,
		TotalBytes: n * 1024, ChunkBytes: 1024, BytesPerUnit: n * 1024 / 8,
		Epoch: time.Unix(1000, 0), Unit: 100 * time.Millisecond,
		Slack: 50 * time.Millisecond, Lag: 50 * time.Millisecond,
		Observe: true, NackEnabled: true, FecGroup: 4,
		Jitter: func(key, stream uint64, window time.Duration) time.Duration { return window },
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

// TestMachineCountersCappedAtWidth: the per-chunk repair and NACK-round
// counters are bytes, so caps past 255 are clamped to 255 — a cap the
// counter can never reach would leave a chunk in the ladder, or retrying,
// for as long as its deadline allows.
func TestMachineCountersCappedAtWidth(t *testing.T) {
	for _, limit := range []int{255, 256, 1000} {
		want := min(limit, 255)
		epoch := time.Unix(1000, 0)
		p := nackParams(epoch)
		p.NackWindow = 10 * time.Millisecond
		p.MaxNackRounds = limit
		p.MaxRepairAttempts = limit
		p.GraceUnits = 4000 // deadline room for far more rounds than the cap
		p.Slack = 4000 * time.Second
		m := NewMachine(p)
		for idx := 1; idx < 4; idx++ {
			m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
		}
		now := m.checkpoint(0)
		nacks := 0
	ladder:
		for iter := 0; ; iter++ {
			if iter > 10*want {
				t.Fatalf("cap %d: chunk still in the NACK ladder after %d rounds", limit, nacks)
			}
			switch act := m.Next(now); act.Kind {
			case ActNack:
				nacks++
				m.NackResult(act.Chunks, func(int) bool { return true }, now)
			case ActRepair:
				break ladder
			default:
				now = act.Wake
			}
		}
		if nacks != want {
			t.Errorf("cap %d: %d NACK rounds before unicast, want %d", limit, nacks, want)
		}
		tries := 0
		for d := Rescheduled; d != LostNow; tries++ {
			if tries > 2*want {
				t.Fatalf("cap %d: chunk still retrying after %d repair attempts", limit, tries)
			}
			d = m.RepairResult(0, RepairFailed, 0, now)
		}
		if tries != want {
			t.Errorf("cap %d: lost after %d repair attempts, want %d", limit, tries, want)
		}
	}
}
