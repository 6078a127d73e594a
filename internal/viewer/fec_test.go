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

// fecParity computes the XOR parity block over chunks [base, base+count).
func fecParity(base, count int) []byte {
	block := make([]byte, 8)
	for pos := 0; pos < count; pos++ {
		wire.XorAccum(block, fecChunk(base+pos))
	}
	return block
}

// fecFrame is the decoded parity frame of the group based at chunk base,
// covering count 8-byte chunks.
func fecFrame(base, count int) *wire.Parity {
	return &wire.Parity{Base: uint32(base * 8), Total: 64, Block: fecParity(base, count)}
}

// newStripe is a stripe of width group over chunkBytes-byte chunks for a
// fragment of nchunks, on a free list of its own.
func newStripe(group, chunkBytes, nchunks int) *Stripe {
	return newStripePool(group, chunkBytes).stripe(nchunks)
}

// TestStripeXorHeal: one chunk of a group lost; the parity frame arriving
// after the survivors reconstructs it exactly.
func TestStripeXorHeal(t *testing.T) {
	s := newStripe(4, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 2, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	if len(heals) != 0 {
		t.Fatalf("heals before parity: %v", heals)
	}
	heals = s.Parity(fecFrame(0, 4), heals)
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
	s := newStripe(4, 8, 8)
	heals := s.Parity(fecFrame(0, 4), nil)
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

// TestStripeTailGroup: the last group of a fragment is short; its parity
// covers only the remaining chunks.
func TestStripeTailGroup(t *testing.T) {
	s := newStripe(4, 8, 6) // groups {0..3}, {4,5}
	heals := s.Data(5, fecChunk(5), nil)
	heals = s.Parity(fecFrame(4, 2), heals)
	if len(heals) != 1 || heals[0].Idx != 4 || !bytes.Equal(heals[0].Payload, fecChunk(4)) {
		t.Fatalf("heals = %v, want tail chunk 4", heals)
	}
}

// TestStripeGeometryReject: parity whose geometry disagrees with the
// configured stripe is dropped, never folded — a base off a group
// boundary, a base past the fragment's end, a block that is not one chunk
// — and the cohort drops a parity frame whose header names another
// fragment size before the stripe sees it, as it does a data frame.
func TestStripeGeometryReject(t *testing.T) {
	s := newStripe(4, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 2, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	bad := []*wire.Parity{
		{Base: 4, Block: fecParity(0, 4)},       // misaligned byte base
		{Base: 8, Block: fecParity(0, 4)},       // base not on a group boundary
		{Base: 64, Block: fecParity(0, 4)},      // base past the fragment's end
		{Base: 1 << 31, Block: fecParity(0, 4)}, // far past it
		{Base: 0, Block: fecParity(0, 4)[:4]},   // short block
		{Base: 0, Block: make([]byte, 9)},       // long block
	}
	for i, p := range bad {
		if heals = s.Parity(p, heals); len(heals) != 0 {
			t.Fatalf("malformed parity %d produced heals: %v", i, heals)
		}
	}
	// The group is intact: the genuine parity frame still heals it.
	heals = s.Parity(fecFrame(0, 4), heals)
	if len(heals) != 1 || heals[0].Idx != 1 {
		t.Fatalf("heals after rejects = %v, want chunk 1", heals)
	}

	t.Run("wrong Total at the cohort", func(t *testing.T) {
		playStart := time.Unix(3000, 0)
		_, f := stripeCohort(t, playStart)
		for _, idx := range []int{0, 1, 3} {
			if err := deliver(f, playStart, stripeData(t, idx)); err != nil {
				t.Fatal(err)
			}
		}
		total := uint32(stripeNChunks * stripeChunkBytes)
		for _, wrong := range []uint32{total - stripeChunkBytes, total + stripeChunkBytes} {
			if err := deliver(f, playStart, stripeParity(t, 0, wrong)); err != nil {
				t.Fatal(err)
			}
			if n := f.m.Stats().FecHeals; n != 0 {
				t.Fatalf("parity frame claiming a %d-byte fragment healed %d chunks of a %d-byte one", wrong, n, total)
			}
		}
		if err := deliver(f, playStart, stripeParity(t, 0, total)); err != nil {
			t.Fatal(err)
		}
		if n := f.m.Stats().FecHeals; n != 1 {
			t.Fatalf("the genuine parity frame healed %d chunks, want chunk 2", n)
		}
	})
}

// TestStripeDuplicateDataIgnored: retransmitted chunks must not fold into
// the accumulator twice, or the eventual heal would be garbage.
func TestStripeDuplicateDataIgnored(t *testing.T) {
	s := newStripe(4, 8, 8)
	var heals []Heal
	for _, idx := range []int{0, 0, 2, 2, 3} {
		heals = s.Data(idx, fecChunk(idx), heals)
	}
	heals = s.Parity(fecFrame(0, 4), heals)
	if len(heals) != 1 || !bytes.Equal(heals[0].Payload, fecChunk(1)) {
		t.Fatalf("heals = %v, want exact chunk 1 despite duplicates", heals)
	}
}

// TestStripeEviction: slots hold a handful of groups; touching more evicts
// the oldest, and a late parity frame for an evicted group heals nothing
// (its defeat deadline has passed in the machine anyway).
func TestStripeEviction(t *testing.T) {
	s := newStripe(2, 8, 2*(stripeSlots+1))
	var heals []Heal
	for g := 0; g <= stripeSlots; g++ {
		// First chunk of each group arrives, second is missing.
		heals = s.Data(2*g, fecChunk(2*g), heals)
	}
	// Group 0 was evicted by group stripeSlots; its parity re-creates an
	// empty accumulator and cannot heal.
	heals = s.Parity(fecFrame(0, 2), heals)
	if len(heals) != 0 {
		t.Fatalf("evicted group healed: %v", heals)
	}
	// A still-tracked group heals normally.
	base := 2 * stripeSlots
	heals = s.Parity(fecFrame(base, 2), heals)
	if len(heals) != 1 || heals[0].Idx != base+1 || !bytes.Equal(heals[0].Payload, fecChunk(base+1)) {
		t.Fatalf("heals = %v, want chunk %d", heals, base+1)
	}
}

// TestStripeNil: group <= 0 means FEC off; a nil Stripe absorbs calls.
func TestStripeNil(t *testing.T) {
	s := NewStripe(0, "", 8, 8)
	if s != nil {
		t.Fatalf("NewStripe(0) = %v, want nil", s)
	}
	if heals := s.Data(0, fecChunk(0), nil); len(heals) != 0 {
		t.Fatalf("nil stripe healed: %v", heals)
	}
	if heals := s.Parity(fecFrame(0, 4), nil); len(heals) != 0 {
		t.Fatalf("nil stripe healed: %v", heals)
	}
}

// fecNackParams is nackParams with a two-chunk parity stripe and a window
// small enough that chunks keep room for it from their later,
// defeat-anchored ladder start (testParams geometry: checkpoints at 5.25+idx s,
// group {0,1} defeats at 6.75s, group {2,3} at 8.75s).
func fecNackParams(epoch time.Time) FragmentParams {
	p := nackParams(epoch)
	p.FecGroup = 2
	p.NackWindow = 100 * time.Millisecond
	return p
}

// TestMachineFecHoldThenHeal: a chunk missing at its checkpoint sends no
// NACK while the stripe can still save it, and a reconstruction
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
	if st.Late != 0 || st.Lost != 0 {
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
	m.NackResult(act.Chunks, fire.Add(20*time.Millisecond))
	if v := m.FecHealed(0, fire.Add(100*time.Millisecond)); v != Accepted {
		t.Fatalf("late FecHealed verdict = %v, want Accepted", v)
	}
	st := m.Stats()
	if st.FecHeals != 1 || st.StripeDefeats != 1 || st.Nacks != 1 || st.NackRepaired != 1 || st.NacksSuppressed != 0 {
		t.Errorf("stats = %+v, want 1 heal / 1 defeat / 1 nack / 1 nack-repaired", st)
	}
}

// TestMachineFecHoldDelaysRepair: a gap is not NACKed until its stripe
// hold expires, so the cohort's round trip waits for the free repair to
// miss; with no room for a window it then NACKs at the defeat instant.
func TestMachineFecHoldDelaysRepair(t *testing.T) {
	epoch := time.Unix(1000, 0)
	p := testParams(epoch)
	p.FecGroup = 2
	m := NewMachine(p)
	for idx := 1; idx < 4; idx++ {
		m.Chunk(idx, epoch.Add(time.Duration(5+idx)*time.Second))
	}
	if act := m.Next(epoch.Add(5*time.Second + 300*time.Millisecond)); act.Kind != ActWait {
		t.Fatalf("Next during hold = %+v, want wait (no early NACK)", act)
	}
	act := m.Next(epoch.Add(6*time.Second + 800*time.Millisecond))
	if act.Kind != ActNack || len(act.Chunks) != 1 || act.Chunks[0] != 0 {
		t.Fatalf("Next after defeat = %+v, want nack [0]", act)
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
// fragment — a heal in one group, one defeated by two erasures, one still
// open at the end — and goes back with every accumulator it held,
// allocating nothing.
func TestStripeRecycledZeroAlloc(t *testing.T) {
	pool := newStripePool(4, 8)
	var data [12][]byte
	for idx := range data {
		data[idx] = fecChunk(idx)
	}
	p0, p1 := fecFrame(0, 4), fecFrame(4, 4)
	heals := make([]Heal, 0, 8)
	healed := 0
	fragment := func() {
		s := pool.stripe(len(data))
		for idx := range data {
			// Chunk 1 is lost from group 0; chunks 4 and 5 from group 1
			// (two erasures: the stripe cannot heal them); group 2 never
			// sees its parity and is still open when the fragment ends.
			if idx == 1 || idx == 4 || idx == 5 {
				continue
			}
			heals = s.Data(idx, data[idx], heals[:0])
		}
		heals = s.Parity(p0, heals[:0])
		healed = len(heals)
		heals = s.Parity(p1, heals[:0])
		healed += len(heals)
		s.recycle()
	}
	fragment()
	if healed != 1 {
		t.Fatalf("%d heals, want 1", healed)
	}
	if allocs := testing.AllocsPerRun(100, fragment); allocs != 0 {
		t.Errorf("a fragment on a recycled stripe allocates %v times, want 0", allocs)
	}
}

// TestStripePoolShared: the cohorts of one mux draw stripes from one pool
// concurrently; every fragment still heals exactly (run under -race).
func TestStripePoolShared(t *testing.T) {
	pool := newStripePool(4, 8)
	p0 := fecFrame(0, 4)
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
