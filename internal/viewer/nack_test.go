package viewer

import (
	"testing"
	"time"
)

// nackParams is testParams with room for an aggregation window: the 1s
// window keeps the bound (window + 1.5 chunk intervals = 2.5s) under the
// geometry's 3.25s of checkpoint-to-deadline room. Jitter draws the full
// window, so window n fires exactly at anchor + 1s.
func nackParams(epoch time.Time) FragmentParams {
	p := testParams(epoch)
	p.NackWindow = time.Second
	p.Jitter = func(key, stream uint64, window time.Duration) time.Duration { return window }
	return p
}

// TestMachineNackAggregation: two chunks missing within one window are
// reported in a single ascending gap bitmap, re-listen, and both heal off
// the multicast re-send.
func TestMachineNackAggregation(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(nackParams(epoch))
	m.Chunk(2, epoch.Add(7*time.Second))
	m.Chunk(3, epoch.Add(8*time.Second))

	// Chunk 0's checkpoint (5.25s) arms the window, anchored at the
	// checkpoint, firing one window later.
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	if act.Kind != ActWait || !act.Wake.Equal(fire) {
		t.Fatalf("Next at first checkpoint = %+v, want wait until window fire %v", act, fire)
	}
	// At the fire time chunk 1 (checkpoint 6.25s) is due too: one bitmap.
	act = m.Next(fire)
	if act.Kind != ActNack || len(act.Chunks) != 2 || act.Chunks[0] != 0 || act.Chunks[1] != 1 {
		t.Fatalf("Next at window fire = %+v, want nack chunks [0 1]", act)
	}
	m.NackResult(act.Chunks, fire.Add(50*time.Millisecond))

	// The machine re-listens; the multicast re-send heals both chunks.
	if act := m.Next(fire.Add(100 * time.Millisecond)); act.Kind != ActWait {
		t.Fatalf("Next while re-listening = %+v, want wait", act)
	}
	for idx := 0; idx < 2; idx++ {
		if v := m.Chunk(idx, fire.Add(250*time.Millisecond)); v != Accepted {
			t.Fatalf("re-sent chunk %d verdict = %v, want Accepted", idx, v)
		}
	}
	if !m.Done() {
		t.Fatal("machine not done after the re-send")
	}
	st := m.Stats()
	if st.Nacks != 1 || st.NackRepaired != 2 || st.NacksSuppressed != 0 {
		t.Errorf("nack stats = %+v, want 1 nack, 2 multicast repairs", st)
	}
	if st.Lost != 0 || st.Late != 0 {
		t.Errorf("loss stats dirtied: %+v", st)
	}
}

// TestMachineNackSuppressedWindow: a window whose every chunk healed
// before it fired closes silently — the suppression that keeps control
// traffic O(cohorts) when someone else's NACK already triggered the
// re-send.
func TestMachineNackSuppressedWindow(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(nackParams(epoch))
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	if act := m.Next(epoch.Add(5*time.Second + 250*time.Millisecond)); act.Kind != ActWait {
		t.Fatalf("Next at checkpoint = %+v, want wait (window arming)", act)
	}
	// The broadcast (another viewer's re-send) delivers chunk 0 before
	// the window fires.
	m.Chunk(0, epoch.Add(5*time.Second+500*time.Millisecond))
	if act := m.Next(epoch.Add(6*time.Second + 300*time.Millisecond)); act.Kind != ActWait {
		t.Fatalf("Next past fire time = %+v, want wait (suppressed)", act)
	}
	st := m.Stats()
	if st.Nacks != 0 || st.NacksSuppressed != 1 {
		t.Errorf("nack stats = %+v, want 0 sent, 1 suppressed", st)
	}
}

// TestMachineNackLastRoundRidesBroadcast: an accepted NACK whose re-send
// never arrives re-listens until its clamped deadline; with no more than a
// chunk interval left for another round, the chunk then rides the
// broadcast to its loss deadline — no further control traffic.
func TestMachineNackLastRoundRidesBroadcast(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(nackParams(epoch))
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(epoch.Add(5*time.Second + 250*time.Millisecond)) // arm
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(fire)
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("Next at fire = %+v, want nack [0]", act)
	}
	m.NackResult(act.Chunks, fire)

	// Re-listen is clamped to LostBy-spacing = 7.5s; nothing arrives.
	relisten := epoch.Add(7*time.Second + 500*time.Millisecond)
	if act := m.Next(fire.Add(time.Second)); act.Kind != ActWait || !act.Wake.Equal(relisten) {
		t.Fatalf("Next while re-listening = %+v, want wait until %v", act, relisten)
	}
	if act := m.Next(relisten); act.Kind != ActWait || !act.Wake.Equal(m.LostBy(0)) {
		t.Fatalf("Next at re-listen expiry = %+v, want wait until lostBy(0) %v", act, m.LostBy(0))
	}
	m.Next(m.LostBy(0))
	if st := m.Stats(); st.Nacks != 1 || st.NackRepaired != 0 || st.Lost != 1 {
		t.Errorf("stats = %+v, want 1 nack, then 1 loss", st)
	}
}

// TestMachineNackRenack: with deadline room to spare, an expired
// re-listen re-enters the ladder for another aggregation round on a fresh
// jitter stream.
func TestMachineNackRenack(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.Slack = 5 * time.Second // LostBy(0) = 13s: room for several rounds
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(epoch.Add(5*time.Second + 250*time.Millisecond)) // arm round 1
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(fire)
	if act.Kind != ActNack {
		t.Fatalf("round 1 = %+v, want nack", act)
	}
	m.NackResult(act.Chunks, fire)

	// Re-listen (fire+2s, unclamped) expires: enough room remains, so the
	// chunk re-NACKs rather than riding out.
	expiry := fire.Add(2 * time.Second)
	act = m.Next(expiry) // back to nackPre, arms round 2 anchored at expiry
	if act.Kind != ActWait || !act.Wake.Equal(expiry.Add(time.Second)) {
		t.Fatalf("Next at expiry = %+v, want wait until round-2 fire %v", act, expiry.Add(time.Second))
	}
	act = m.Next(expiry.Add(time.Second))
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("round 2 = %+v, want nack [0]", act)
	}
	if st := m.Stats(); st.Nacks != 2 {
		t.Errorf("Nacks = %d, want 2 rounds", st.Nacks)
	}
}

// TestMachineNackRefusedFallsBack: a chunk the server refuses (budget) —
// or one whose round trip failed, which the machine cannot tell apart —
// is not re-sent, so it waits out a re-listen, the pause before it asks
// again, and then joins another round; the re-send of that one heals it.
func TestMachineNackRefusedFallsBack(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.Slack = 5 * time.Second
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(fire)
	if act.Kind != ActNack {
		t.Fatalf("Next at fire = %+v, want nack", act)
	}
	reply := fire.Add(10 * time.Millisecond)
	m.NackResult(act.Chunks, reply)
	relisten := reply.Add(2 * time.Second)
	if act := m.Next(reply); act.Kind != ActWait || !act.Wake.Equal(relisten) {
		t.Fatalf("Next after refusal = %+v, want wait until the re-listen deadline %v", act, relisten)
	}
	if act := m.Next(relisten); act.Kind != ActWait || !act.Wake.Equal(relisten.Add(time.Second)) {
		t.Fatalf("Next at re-listen expiry = %+v, want wait until round-2 fire %v", act, relisten.Add(time.Second))
	}
	act = m.Next(relisten.Add(time.Second))
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("round 2 = %+v, want nack [0]", act)
	}
	m.Chunk(0, relisten.Add(time.Second+10*time.Millisecond))
	if st := m.Stats(); st.Nacks != 2 || st.NackRepaired != 1 || st.Lost != 0 {
		t.Errorf("stats = %+v, want 2 nacks, 1 multicast repair", st)
	}
}

// TestMachineNackRoundCap: a chunk joins at most MaxNackRounds rounds;
// past the cap an expired re-listen leaves it on the broadcast even with
// deadline room left.
func TestMachineNackRoundCap(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.Slack = 5 * time.Second
	p.MaxNackRounds = 1
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(fire)
	if act.Kind != ActNack {
		t.Fatalf("round 1 = %+v, want nack", act)
	}
	m.NackResult(act.Chunks, fire)
	act = m.Next(fire.Add(2 * time.Second)) // re-listen expired, cap spent
	if act.Kind != ActWait || !act.Wake.Equal(m.LostBy(0)) {
		t.Fatalf("Next past round cap = %+v, want wait until lostBy(0) %v", act, m.LostBy(0))
	}
	if st := m.Stats(); st.Nacks != 1 {
		t.Errorf("Nacks = %d, want the cap of 1", st.Nacks)
	}
}

// TestMachineNackDeadlineIneligible: a chunk whose loss deadline leaves no
// room for an aggregation window — with the default 2-interval window the
// test geometry's 3.25s of headroom is under the 3.5s bound — NACKs at its
// ladder start, alone, in a zero-length window: no jitter is drawn.
func TestMachineNackDeadlineIneligible(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch) // default window: 2 chunk intervals = 2s
	p.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
		t.Fatalf("a zero-length window drew jitter (key %x, stream %d)", key, stream)
		return 0
	}
	m := NewMachine(p)
	checkpoint := epoch.Add(5*time.Second + 250*time.Millisecond)
	act := m.Next(checkpoint)
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("Next at checkpoint = %+v, want nack [0] at once", act)
	}
	if st := m.Stats(); st.Nacks != 1 {
		t.Errorf("Nacks = %d, want 1", st.Nacks)
	}
}

// TestMachineJustInTimeNackHeals: the just-in-time chunk — no room for a
// window — NACKs at its ladder start, alone, drawing no jitter: a driver
// that oversleeps past its neighbour's ladder start too still sends the
// neighbour in a bitmap of its own. The chunk then re-listens and heals
// off the re-send.
func TestMachineJustInTimeNackHeals(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
		t.Fatalf("a zero-length window drew jitter (key %x, stream %d)", key, stream)
		return 0
	}
	m := NewMachine(p)
	m.Chunk(2, m.arrival(2))
	m.Chunk(3, m.arrival(3))
	late := m.checkpoint(1).Add(300 * time.Millisecond) // chunks 0 and 1 both due
	for idx := 0; idx < 2; idx++ {
		act := m.Next(late)
		if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != idx {
			t.Fatalf("Next = %+v, want nack [%d] alone", act, idx)
		}
		m.NackResult(act.Chunks, late.Add(time.Millisecond))
	}
	// Both re-listen until LostBy(0)-spacing = 7.5s.
	if act := m.Next(late.Add(time.Millisecond)); act.Kind != ActWait || !act.Wake.Equal(epoch.Add(7500*time.Millisecond)) {
		t.Fatalf("Next while re-listening = %+v, want wait until 7.5s", act)
	}
	for idx := 0; idx < 2; idx++ {
		if v := m.Chunk(idx, late.Add(5*time.Millisecond)); v != Accepted {
			t.Fatalf("re-sent chunk %d verdict = %v, want Accepted", idx, v)
		}
	}
	if !m.Done() {
		t.Fatal("machine not done after the re-sends")
	}
	if st := m.Stats(); st.Nacks != 2 || st.NackRepaired != 2 || st.Late != 0 || st.Lost != 0 {
		t.Errorf("stats = %+v, want 2 nacks, 2 multicast repairs", st)
	}
}

// TestMachineNackDisabledByRepairOff: DisableRepair turns the ladder off
// — gaps ride to their loss deadlines.
func TestMachineNackDisabledByRepairOff(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.DisableRepair = true
	m := NewMachine(p)
	act := m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	if act.Kind != ActWait || !act.Wake.Equal(m.LostBy(0)) {
		t.Fatalf("Next = %+v, want wait until lostBy(0) (no recovery at all)", act)
	}
}
