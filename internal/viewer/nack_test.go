package viewer

import (
	"testing"
	"time"
)

// nackParams is testParams with the multicast-first ladder on and enough
// deadline headroom to use it: the 1s aggregation window keeps the
// eligibility bound (window + 1.5 chunk intervals = 2.5s) under the
// geometry's 3.25s of checkpoint-to-deadline room. Jitter draws the full
// window, so window n fires exactly at anchor + 1s.
func nackParams(epoch time.Time) FragmentParams {
	p := testParams(epoch)
	p.NackEnabled = true
	p.NackWindow = time.Second
	p.Jitter = func(key, stream uint64, window time.Duration) time.Duration { return window }
	return p
}

// TestMachineNackAggregation: two chunks missing within one window are
// reported in a single ascending gap bitmap, re-listen, and both heal off
// the multicast re-send — zero unicast round trips.
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
	m.NackResult(act.Chunks, func(int) bool { return true }, fire.Add(50*time.Millisecond))

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
	if st.Repaired != 0 || st.Lost != 0 || st.Late != 0 {
		t.Errorf("unicast/loss stats dirtied: %+v", st)
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

// TestMachineNackEscalatesToUnicast: an accepted NACK whose re-send never
// arrives escalates to the unicast plane at the re-listen deadline — with
// too little room left for another round, the chunk goes straight to
// ActRepair.
func TestMachineNackEscalatesToUnicast(t *testing.T) {
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
	m.NackResult(act.Chunks, func(int) bool { return true }, fire)

	// Re-listen is clamped to LostBy-spacing = 7.5s; nothing arrives.
	relisten := epoch.Add(7*time.Second + 500*time.Millisecond)
	if act := m.Next(fire.Add(time.Second)); act.Kind != ActWait || !act.Wake.Equal(relisten) {
		t.Fatalf("Next while re-listening = %+v, want wait until %v", act, relisten)
	}
	act = m.Next(relisten)
	if act.Kind != ActRepair || act.Idx != 0 || act.Attempt != 1 {
		t.Fatalf("Next at re-listen expiry = %+v, want unicast repair chunk 0", act)
	}
	if d := m.RepairResult(0, RepairOK, 0, relisten.Add(10*time.Millisecond)); d != Repaired {
		t.Fatalf("repair disposition = %v, want Repaired", d)
	}
	st := m.Stats()
	if st.Nacks != 1 || st.NackRepaired != 0 || st.Repaired != 1 {
		t.Errorf("stats = %+v, want 1 nack escalated into 1 unicast repair", st)
	}
}

// TestMachineNackRenack: with deadline room to spare, an expired
// re-listen re-enters the ladder for another aggregation round on a fresh
// jitter stream instead of burning a unicast round trip.
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
	m.NackResult(act.Chunks, func(int) bool { return true }, fire)

	// Re-listen (fire+2s, unclamped) expires: enough room remains, so the
	// chunk re-NACKs rather than escalating.
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

// TestMachineNackRefusedFallsBack: chunks the server refuses (budget) in
// the NackOK bitmap leave the ladder immediately and pull over unicast.
func TestMachineNackRefusedFallsBack(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(nackParams(epoch))
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(fire)
	if act.Kind != ActNack {
		t.Fatalf("Next at fire = %+v, want nack", act)
	}
	m.NackResult(act.Chunks, func(int) bool { return false }, fire.Add(10*time.Millisecond))
	act = m.Next(fire.Add(20 * time.Millisecond))
	if act.Kind != ActRepair || act.Idx != 0 {
		t.Fatalf("Next after refusal = %+v, want immediate unicast repair", act)
	}
}

// TestMachineNackObserveEscalatesToGap: in the cohort's Observe mode the
// ladder's unicast fallback is the per-viewer plane — an exhausted chunk
// surfaces as ActGap, exactly once.
func TestMachineNackObserveEscalatesToGap(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.Observe = true
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	fire := epoch.Add(6*time.Second + 250*time.Millisecond)
	act := m.Next(fire)
	if act.Kind != ActNack {
		t.Fatalf("Next at fire = %+v, want nack (ladder precedes divergence)", act)
	}
	m.NackResult(act.Chunks, func(int) bool { return false }, fire)
	act = m.Next(fire.Add(10 * time.Millisecond))
	if act.Kind != ActGap || act.Idx != 0 {
		t.Fatalf("Next after refusal = %+v, want gap handoff", act)
	}
	if act := m.Next(fire.Add(20 * time.Millisecond)); act.Kind != ActWait {
		t.Fatalf("gap handed twice: %+v", act)
	}
}

// TestMachineNackRoundCap: a chunk joins at most MaxNackRounds windows;
// past the cap an expired re-listen goes to the unicast plane even with
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
	m.NackResult(act.Chunks, func(int) bool { return true }, fire)
	act = m.Next(fire.Add(2 * time.Second)) // re-listen expired, cap spent
	if act.Kind != ActRepair || act.Idx != 0 {
		t.Fatalf("Next past round cap = %+v, want unicast repair", act)
	}
	if st := m.Stats(); st.Nacks != 1 {
		t.Errorf("Nacks = %d, want the cap of 1", st.Nacks)
	}
}

// TestMachineNackDeadlineIneligible: chunks whose loss deadline leaves no
// room for a multicast round never enter the ladder — with the default
// 2-interval window the test geometry's 3.25s of headroom is under the
// bound, so the first due chunk goes straight to unicast, exactly as with
// the ladder off.
func TestMachineNackDeadlineIneligible(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.NackEnabled = true // default window: 2 chunk intervals = 2s
	m := NewMachine(p)
	checkpoint := epoch.Add(5*time.Second + 250*time.Millisecond)
	act := m.Next(checkpoint)
	if act.Kind != ActRepair || act.Idx != 0 {
		t.Fatalf("Next at checkpoint = %+v, want unicast repair (ladder ineligible)", act)
	}
	if st := m.Stats(); st.Nacks != 0 {
		t.Errorf("ineligible geometry still sent %d nacks", st.Nacks)
	}
}

// TestMachineNackDisabledByRepairOff: DisableRepair wins over NackEnabled
// — the ladder stays off and gaps ride to their loss deadlines.
func TestMachineNackDisabledByRepairOff(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := nackParams(epoch)
	p.DisableRepair = true
	m := NewMachine(p)
	if m.p.NackEnabled {
		t.Fatal("ladder enabled under DisableRepair")
	}
	act := m.Next(epoch.Add(5*time.Second + 250*time.Millisecond))
	if act.Kind != ActWait {
		t.Fatalf("Next = %+v, want wait (no recovery at all)", act)
	}
}
