package viewer

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"skyscraper/internal/wire"
)

// fecChunk builds a deterministic 8-byte payload for chunk idx.
func fecChunk(idx int) []byte {
	b := make([]byte, 8)
	for j := range b {
		b[j] = byte(idx*31 + j*7 + 1)
	}
	return b
}

// fecParity computes the group's parity block over chunks [base, base+count):
// index 0 is the XOR sum P, index 1 the GF(256)-weighted sum Q.
func fecParity(base, count int, index uint8) []byte {
	block := make([]byte, 8)
	for pos := 0; pos < count; pos++ {
		d := fecChunk(base + pos)
		if index == 0 {
			wire.XorAccum(block, d)
		} else {
			wire.GfMulAccum(block, d, wire.GfExpPow(pos))
		}
	}
	return block
}

func fecFrame(t *testing.T, base, count int, index uint8) *wire.Parity {
	t.Helper()
	return &wire.Parity{
		Base:   uint32(base * 8),
		Total:  64,
		Index:  index,
		Count:  count,
		Block:  fecParity(base, count, index),
		Bitmap: []byte{0xff},
	}
}

// TestStripeXorHeal: one chunk of a group lost; the parity frame arriving
// after the survivors reconstructs it exactly.
func TestStripeXorHeal(t *testing.T) {
	s := NewStripe(4, wire.FecModeXOR, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 2, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	if len(heals) != 0 {
		t.Fatalf("heals before parity: %v", heals)
	}
	heals = s.Parity(fecFrame(t, 0, 4, 0), heals)
	if len(heals) != 1 || heals[0].Idx != 1 {
		t.Fatalf("heals = %v, want one heal of chunk 1", heals)
	}
	if !bytes.Equal(heals[0].Payload, fecChunk(1)) {
		t.Errorf("healed payload %v, want %v", heals[0].Payload, fecChunk(1))
	}
}

// TestStripeParityBeforeData: reordering puts the parity frame first; the
// heal fires the moment the last covering data chunk lands.
func TestStripeParityBeforeData(t *testing.T) {
	s := NewStripe(4, wire.FecModeXOR, 8, 8)
	heals := s.Parity(fecFrame(t, 0, 4, 0), nil)
	for _, idx := range []int{0, 1} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	if len(heals) != 0 {
		t.Fatalf("healed with two chunks still missing: %v", heals)
	}
	heals = s.Data(3, fecChunk(3), heals)
	if len(heals) != 1 || heals[0].Idx != 2 || !bytes.Equal(heals[0].Payload, fecChunk(2)) {
		t.Fatalf("heals = %v, want chunk 2 reconstructed", heals)
	}
}

// TestStripeRSTwoErasure: in Reed-Solomon mode the P+Q pair recovers two
// missing chunks of one group.
func TestStripeRSTwoErasure(t *testing.T) {
	s := NewStripe(4, wire.FecModeRS, 8, 8)
	var heals []Heal
	for _, idx := range []int{1, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	heals = s.Parity(fecFrame(t, 0, 4, 0), heals)
	if len(heals) != 0 {
		t.Fatalf("P alone healed a two-erasure group: %v", heals)
	}
	heals = s.Parity(fecFrame(t, 0, 4, 1), heals)
	if len(heals) != 2 {
		t.Fatalf("heals = %v, want chunks 0 and 2", heals)
	}
	for _, h := range heals {
		if h.Idx != 0 && h.Idx != 2 {
			t.Fatalf("healed unexpected chunk %d", h.Idx)
		}
		if !bytes.Equal(h.Payload, fecChunk(h.Idx)) {
			t.Errorf("chunk %d payload %v, want %v", h.Idx, h.Payload, fecChunk(h.Idx))
		}
	}
}

// TestStripeQOnlyHeal: the P frame was itself lost; Q alone still solves a
// single erasure (one GF scale).
func TestStripeQOnlyHeal(t *testing.T) {
	s := NewStripe(4, wire.FecModeRS, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 1, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	heals = s.Parity(fecFrame(t, 0, 4, 1), heals)
	if len(heals) != 1 || heals[0].Idx != 2 || !bytes.Equal(heals[0].Payload, fecChunk(2)) {
		t.Fatalf("heals = %v, want chunk 2 from Q alone", heals)
	}
}

// TestStripeTailGroup: the last group of a fragment is short; its parity
// covers only the remaining chunks.
func TestStripeTailGroup(t *testing.T) {
	s := NewStripe(4, wire.FecModeXOR, 8, 6) // groups {0..3}, {4,5}
	heals := s.Data(5, fecChunk(5), nil)
	heals = s.Parity(fecFrame(t, 4, 2, 0), heals)
	if len(heals) != 1 || heals[0].Idx != 4 || !bytes.Equal(heals[0].Payload, fecChunk(4)) {
		t.Fatalf("heals = %v, want tail chunk 4", heals)
	}
}

// TestStripeGeometryReject: parity whose geometry disagrees with the
// configured stripe is dropped, never folded.
func TestStripeGeometryReject(t *testing.T) {
	s := NewStripe(4, wire.FecModeXOR, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 2, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	bad := []*wire.Parity{
		{Base: 4, Count: 4, Index: 0, Block: fecParity(0, 4, 0)},     // misaligned byte base
		{Base: 8, Count: 4, Index: 0, Block: fecParity(0, 4, 0)},     // base not on a group boundary
		{Base: 0, Count: 3, Index: 0, Block: fecParity(0, 4, 0)},     // wrong coverage
		{Base: 0, Count: 4, Index: 0, Block: fecParity(0, 4, 0)[:4]}, // short block
		{Base: 0, Count: 4, Index: 1, Block: fecParity(0, 4, 1)},     // Q in XOR mode
		{Base: 64, Count: 4, Index: 0, Block: fecParity(0, 4, 0)},    // beyond the fragment
	}
	for i, p := range bad {
		if heals = s.Parity(p, heals); len(heals) != 0 {
			t.Fatalf("malformed parity %d produced heals: %v", i, heals)
		}
	}
	// The group is intact: the genuine parity frame still heals it.
	heals = s.Parity(fecFrame(t, 0, 4, 0), heals)
	if len(heals) != 1 || heals[0].Idx != 1 {
		t.Fatalf("heals after rejects = %v, want chunk 1", heals)
	}
}

// TestStripeDuplicateDataIgnored: retransmitted chunks must not fold into
// the accumulator twice, or the eventual heal would be garbage.
func TestStripeDuplicateDataIgnored(t *testing.T) {
	s := NewStripe(4, wire.FecModeXOR, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 0, 2, 2, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	heals = s.Parity(fecFrame(t, 0, 4, 0), heals)
	if len(heals) != 1 || !bytes.Equal(heals[0].Payload, fecChunk(1)) {
		t.Fatalf("heals = %v, want exact chunk 1 despite duplicates", heals)
	}
}

// TestStripeEviction: slots hold a handful of groups; touching more evicts
// the oldest, and a late parity frame for an evicted group heals nothing
// (its defeat deadline has passed in the machine anyway).
func TestStripeEviction(t *testing.T) {
	s := NewStripe(2, wire.FecModeXOR, 8, 2*(stripeSlots+1))
	var heals []Heal
	for g := 0; g <= stripeSlots; g++ {
		// First chunk of each group arrives, second is missing.
		heals = s.Data(2*g, fecChunk(2*g), heals)
	}
	// Group 0 was evicted by group stripeSlots; its parity re-creates an
	// empty accumulator and cannot heal.
	heals = s.Parity(fecFrame(t, 0, 2, 0), heals)
	if len(heals) != 0 {
		t.Fatalf("evicted group healed: %v", heals)
	}
	// A still-tracked group heals normally.
	base := 2 * stripeSlots
	heals = s.Parity(fecFrame(t, base, 2, 0), heals)
	if len(heals) != 1 || heals[0].Idx != base+1 || !bytes.Equal(heals[0].Payload, fecChunk(base+1)) {
		t.Fatalf("heals = %v, want chunk %d", heals, base+1)
	}
}

// TestStripeNil: group <= 0 means FEC off; a nil Stripe absorbs calls.
func TestStripeNil(t *testing.T) {
	s := NewStripe(0, wire.FecModeXOR, 8, 8)
	if s != nil {
		t.Fatalf("NewStripe(0) = %v, want nil", s)
	}
	if heals := s.Data(0, fecChunk(0), nil); len(heals) != 0 {
		t.Fatalf("nil stripe healed: %v", heals)
	}
	if heals := s.Parity(fecFrame(t, 0, 4, 0), nil); len(heals) != 0 {
		t.Fatalf("nil stripe healed: %v", heals)
	}
}

// fecNackParams is nackParams with a two-chunk parity stripe and a window
// small enough that chunks stay ladder-eligible from their later,
// defeat-anchored start (testParams geometry: checkpoints at 5.25+idx s,
// group {0,1} defeats at 6.75s, group {2,3} at 8.75s).
func fecNackParams(epoch time.Time) FragmentParams {
	p := nackParams(epoch)
	p.FecGroup = 2
	p.NackWindow = 100 * time.Millisecond
	return p
}

// TestMachineFecHoldThenHeal: a chunk missing at its checkpoint takes no
// reactive action while the stripe can still save it, and a reconstruction
// during the hold counts as a suppressed NACK — the window never armed.
func TestMachineFecHoldThenHeal(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(fecNackParams(epoch))
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	// Past chunk 0's checkpoint (5.25s) but before its stripe-defeat
	// instant (6.75s): hold, waking exactly at the defeat instant.
	defeat := epoch.Add(6*time.Second + 750*time.Millisecond)
	act := m.Next(epoch.Add(5*time.Second + 300*time.Millisecond))
	if act.Kind != ActWait || !act.Wake.Equal(defeat) {
		t.Fatalf("Next during hold = %+v, want wait until defeat %v", act, defeat)
	}
	if v := m.FecHealed(0, epoch.Add(6*time.Second+500*time.Millisecond)); v != Accepted {
		t.Fatalf("FecHealed verdict = %v, want Accepted", v)
	}
	if !m.Done() {
		t.Fatal("machine not done after the heal")
	}
	st := m.Stats()
	if st.FecHeals != 1 || st.StripeDefeats != 0 {
		t.Errorf("fec stats = %+v, want 1 heal, 0 defeats", st)
	}
	if st.Nacks != 0 || st.NacksSuppressed != 1 || st.NackRepaired != 0 {
		t.Errorf("nack stats = %+v, want only 1 suppressed (window never armed)", st)
	}
	if st.Late != 0 || st.Repaired != 0 || st.Lost != 0 {
		t.Errorf("ledger dirtied: %+v", st)
	}
}

// TestMachineFecDefeatAnchorsWindow: an unhealed hold expires into the
// NACK ladder with the aggregation window anchored at stripe-defeat time
// (6.75s + 100ms window), not at the 5.25s gap checkpoint; a heal landing
// during the re-listen books like a multicast re-send.
func TestMachineFecDefeatAnchorsWindow(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(fecNackParams(epoch))
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	fire := epoch.Add(6*time.Second + 850*time.Millisecond)
	act := m.Next(epoch.Add(6*time.Second + 800*time.Millisecond))
	if act.Kind != ActWait || !act.Wake.Equal(fire) {
		t.Fatalf("Next after defeat = %+v, want wait until defeat-anchored fire %v", act, fire)
	}
	if st := m.Stats(); st.StripeDefeats != 1 {
		t.Fatalf("stats after defeat = %+v, want 1 stripe defeat", st)
	}
	act = m.Next(fire)
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("Next at fire = %+v, want nack [0]", act)
	}
	m.NackResult(act.Chunks, func(int) bool { return true }, fire.Add(20*time.Millisecond))
	if v := m.FecHealed(0, fire.Add(100*time.Millisecond)); v != Accepted {
		t.Fatalf("late FecHealed verdict = %v, want Accepted", v)
	}
	st := m.Stats()
	if st.FecHeals != 1 || st.StripeDefeats != 1 || st.Nacks != 1 || st.NackRepaired != 1 || st.NacksSuppressed != 0 {
		t.Errorf("stats = %+v, want 1 heal / 1 defeat / 1 nack / 1 nack-repaired", st)
	}
}

// TestMachineFecObserveGapWaits: in the cohort's Observe mode a gap is
// not handed to the per-viewer plane until its stripe hold expires, so
// divergence (the expensive path) waits for the free repair to miss.
func TestMachineFecObserveGapWaits(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.FecGroup = 2
	p.Observe = true
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	if act := m.Next(epoch.Add(5*time.Second + 300*time.Millisecond)); act.Kind != ActWait {
		t.Fatalf("Next during hold = %+v, want wait (no early divergence)", act)
	}
	act := m.Next(epoch.Add(6*time.Second + 800*time.Millisecond))
	if act.Kind != ActGap || act.Idx != 0 {
		t.Fatalf("Next after defeat = %+v, want gap handoff of chunk 0", act)
	}
	if st := m.Stats(); st.StripeDefeats != 1 {
		t.Errorf("stats = %+v, want 1 stripe defeat", st)
	}
}

// TestMachineFecHealedDuplicate: healing a resolved chunk is a duplicate,
// exactly like a retransmitted broadcast copy.
func TestMachineFecHealedDuplicate(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMachine(fecNackParams(epoch))
	m.Chunk(0, epoch.Add(5*time.Second))
	if v := m.FecHealed(0, epoch.Add(5*time.Second+10*time.Millisecond)); v != Duplicate {
		t.Fatalf("FecHealed on resolved chunk = %v, want Duplicate", v)
	}
	st := m.Stats()
	if st.FecHeals != 0 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 0 heals, 1 duplicate", st)
	}
}

// TestStripeRecycledZeroAlloc: a stripe drawn from a warm pool receives a
// fragment — heals on every group, one group still open at the end — and
// goes back with every accumulator it held, allocating nothing.
func TestStripeRecycledZeroAlloc(t *testing.T) {
	for _, mode := range []string{wire.FecModeXOR, wire.FecModeRS} {
		pool := newStripePool(4, mode, 8)
		var data [12][]byte
		for idx := range data {
			data[idx] = fecChunk(idx)
		}
		p0, p1 := fecFrame(t, 0, 4, 0), fecFrame(t, 4, 4, 0)
		q1 := fecFrame(t, 4, 4, 1)
		heals := make([]Heal, 0, 8)
		healed := 0
		fragment := func() {
			s := pool.stripe(len(data))
			for idx := range data {
				// Chunk 1 is lost from group 0; chunks 4 and 5 from group 1
				// (two erasures: only P+Q heals them); group 2 never sees
				// its parity and is still open when the fragment ends.
				if idx == 1 || idx == 4 || idx == 5 {
					continue
				}
				heals = s.Data(idx, data[idx], heals[:0])
			}
			heals = s.Parity(p0, heals[:0])
			healed = len(heals)
			heals = s.Parity(p1, heals[:0])
			if mode == wire.FecModeRS {
				heals = s.Parity(q1, heals)
			}
			healed += len(heals)
			s.recycle()
		}
		fragment()
		want := 1
		if mode == wire.FecModeRS {
			want = 3
		}
		if healed != want {
			t.Fatalf("%s: %d heals, want %d", mode, healed, want)
		}
		if allocs := testing.AllocsPerRun(100, fragment); allocs != 0 {
			t.Errorf("%s: a fragment on a recycled stripe allocates %v times, want 0", mode, allocs)
		}
	}
}

// TestStripePoolShared: the cohorts of one mux draw stripes from one pool
// concurrently; every fragment still heals exactly (run under -race).
func TestStripePoolShared(t *testing.T) {
	pool := newStripePool(4, wire.FecModeXOR, 8)
	p0 := fecFrame(t, 0, 4, 0)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var heals []Heal
			for range 50 {
				s := pool.stripe(8)
				for _, idx := range []int{0, 2, 3, 4} {
					heals = s.Data(idx, fecChunk(idx), heals[:0])
				}
				heals = s.Parity(p0, heals[:0])
				if len(heals) != 1 || heals[0].Idx != 1 || !bytes.Equal(heals[0].Payload, fecChunk(1)) {
					t.Errorf("%d heals, want chunk 1 healed exactly", len(heals))
				}
				s.recycle()
			}
		}()
	}
	wg.Wait()
}
