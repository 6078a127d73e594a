// Stripe reassembly: the receive half of the proactive FEC stripe. The
// broadcast interleaves one parity frame per transmission group of G
// data chunks (wire.KindParity); Stripe accumulates the running XOR of
// the group's arrivals so a single missing datagram is reconstructed the
// moment the last covering frame lands, with zero control round trips.
// The mux's router drives one Stripe per broadcast repetition somebody is
// tuned to, drawn from one free list (stripePool): accumulators go back
// to it once their group completes or is evicted (at the stripe's next
// call, when the heals that alias them are consumed) and the rest when
// the repetition's last fragment ends, stripes themselves when recycled.
// So the audience holds accumulators for the groups in flight on the
// broadcasts it hears, and a recycled stripe allocates nothing.
package viewer

import (
	"sync"

	"skyscraper/internal/wire"
)

// stripeSlots is how many groups a Stripe tracks at once. Groups
// broadcast (and complete) in schedule order; a handful of slots rides
// out datagram reordering, and anything older is dead weight — its
// defeat deadline has passed in the machine anyway — so the oldest
// group is evicted first.
const stripeSlots = 4

// Heal is one reconstructed chunk: the fragment-relative index and the
// recovered payload. The payload aliases a pooled accumulator — consume
// it (verify, copy, book) before the next call into the Stripe.
type Heal struct {
	Idx     int
	Payload []byte
}

// stripeState accumulates one group: a bitmap of arrived data chunks,
// and the running parity fold. accP holds P ⊕ (XOR of arrived data): when
// exactly one covered chunk is missing and P arrived, accP IS that
// chunk.
type stripeState struct {
	got  uint64
	gotN int
	pGot bool
	accP []byte
}

// stripePool is the free list of stripes and chunk-sized accumulators
// shared by every Stripe of one stripe geometry: the router keeps one for
// every broadcast it tracks. It is safe for concurrent use.
type stripePool struct {
	group, chunkBytes int

	mu      sync.Mutex
	stripes []*Stripe
	states  []*stripeState
}

// newStripePool returns the free list for stripes of width group over
// chunkBytes-byte chunks. group <= 0 returns nil, whose stripes are nil
// (FEC off).
func newStripePool(group, chunkBytes int) *stripePool {
	if group <= 0 {
		return nil
	}
	return &stripePool{group: min(group, wire.MaxFecGroup), chunkBytes: chunkBytes}
}

// stripe draws an empty reassembly buffer for a fragment of nchunks
// chunks; recycle returns it.
func (p *stripePool) stripe(nchunks int) *Stripe {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	var s *Stripe
	if n := len(p.stripes); n > 0 {
		s = p.stripes[n-1]
		p.stripes = p.stripes[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = &Stripe{pool: p}
		for i := range s.slots {
			s.slots[i].g = -1
		}
	}
	s.nchunks = nchunks
	return s
}

// state draws a cleared accumulator.
func (p *stripePool) state() *stripeState {
	p.mu.Lock()
	var st *stripeState
	if n := len(p.states); n > 0 {
		st = p.states[n-1]
		p.states = p.states[:n-1]
	}
	p.mu.Unlock()
	if st == nil {
		return &stripeState{accP: make([]byte, p.chunkBytes)}
	}
	st.got, st.gotN, st.pGot = 0, 0, false
	clear(st.accP)
	return st
}

// Stripe is the per-repetition reassembly buffer. Not safe for
// concurrent use; the router drives one per broadcast, on the audience loop.
type Stripe struct {
	pool    *stripePool
	nchunks int
	slots   [stripeSlots]struct {
		g  int // group index, -1 when empty
		st *stripeState
	}
	// spent holds the accumulators released since the last call. A heal's
	// payload aliases one, and the pool is shared with other cohorts, so
	// they go back to it only at the next call (or recycle), once the
	// caller has consumed the heals.
	spent []*stripeState
}

// NewStripe builds the reassembly buffer for a fragment of nchunks
// chunks under a stripe of width group, drawing on a free list of its
// own; group <= 0 returns nil (no stripe — callers treat a nil Stripe as
// FEC off). mode is ignored: it is kept for benchmark/harness, and the
// harness follow-up of ROADMAP item 2 deletes it.
func NewStripe(group int, mode string, chunkBytes, nchunks int) *Stripe {
	return newStripePool(group, chunkBytes).stripe(nchunks)
}

// recycle returns the stripe, and every accumulator it still holds, to
// its pool; the stripe must not be used afterwards. A nil stripe is a
// no-op.
func (s *Stripe) recycle() {
	if s == nil {
		return
	}
	for i := range s.slots {
		if s.slots[i].st != nil {
			s.release(i)
		}
	}
	s.flush()
	p := s.pool
	p.mu.Lock()
	p.stripes = append(p.stripes, s)
	p.mu.Unlock()
}

// flush returns the spent accumulators to the pool.
func (s *Stripe) flush() {
	if len(s.spent) == 0 {
		return
	}
	p := s.pool
	p.mu.Lock()
	p.states = append(p.states, s.spent...)
	p.mu.Unlock()
	clear(s.spent)
	s.spent = s.spent[:0]
}

// Group returns the stripe width G.
func (s *Stripe) Group() int { return s.pool.group }

// count is how many data chunks group g covers (the tail group may be
// short); 0 past the fragment's end.
func (s *Stripe) count(g int) int {
	cb := s.pool.chunkBytes
	return wire.ParityCount(uint32(g*s.pool.group*cb), uint32(s.nchunks*cb), s.pool.group, cb)
}

// state finds or creates the accumulator for group g, evicting the
// oldest tracked group when the slots are full (reconstruction for it
// can no longer matter — see stripeSlots).
func (s *Stripe) state(g int) *stripeState {
	free := -1
	oldest := -1
	for i := range s.slots {
		switch sg := s.slots[i].g; {
		case sg == g:
			return s.slots[i].st
		case sg < 0:
			free = i
		case oldest < 0 || sg < s.slots[oldest].g:
			oldest = i
		}
	}
	if free < 0 {
		s.release(oldest)
		free = oldest
	}
	st := s.pool.state()
	s.slots[free].g = g
	s.slots[free].st = st
	return st
}

// release empties slot i, its accumulator spent.
func (s *Stripe) release(i int) {
	s.spent = append(s.spent, s.slots[i].st)
	s.slots[i].g = -1
	s.slots[i].st = nil
}

// releaseGroup drops group g if tracked.
func (s *Stripe) releaseGroup(g int) {
	for i := range s.slots {
		if s.slots[i].g == g {
			s.release(i)
			return
		}
	}
}

// Data folds the arrival of data chunk idx into its group and appends
// any reconstruction it completes to heals. Duplicate arrivals are
// ignored (the accumulator must fold each chunk exactly once).
func (s *Stripe) Data(idx int, payload []byte, heals []Heal) []Heal {
	if s == nil || idx < 0 || idx >= s.nchunks {
		return heals
	}
	s.flush()
	g := idx / s.pool.group
	st := s.state(g)
	pos := idx - g*s.pool.group
	if st.got&(1<<pos) != 0 {
		return heals
	}
	st.got |= 1 << pos
	st.gotN++
	wire.XorAccum(st.accP, payload)
	return s.tryHeal(g, st, heals)
}

// Parity folds a decoded parity frame into its group and appends any
// reconstruction it completes to heals. The frame covers count(g) chunks
// of the group its base starts; one whose base is no group start inside
// the fragment, or whose block is not one chunk long, is dropped — the
// broadcast never emits it, so it is damage or misconfiguration, and
// folding it would corrupt heals.
func (s *Stripe) Parity(p *wire.Parity, heals []Heal) []Heal {
	if s == nil {
		return heals
	}
	s.flush()
	span := uint32(s.pool.group * s.pool.chunkBytes)
	g := int(p.Base / span)
	if p.Base%span != 0 || s.count(g) == 0 || len(p.Block) != s.pool.chunkBytes {
		return heals
	}
	st := s.state(g)
	if st.pGot {
		return heals
	}
	st.pGot = true
	wire.XorAccum(st.accP, p.Block)
	return s.tryHeal(g, st, heals)
}

// tryHeal reconstructs the group's one missing chunk once its parity has
// arrived, appending the heal, and releases the group once nothing is
// missing. A heal's payload aliases the group's accumulator; it stays
// valid until the next call into the Stripe (a released accumulator is
// held as spent until then).
func (s *Stripe) tryHeal(g int, st *stripeState, heals []Heal) []Heal {
	count := s.count(g)
	switch missing := count - st.gotN; {
	case missing == 0:
		s.releaseGroup(g)
	case missing == 1 && st.pGot:
		// accP = P ⊕ (XOR of all arrived) = the one missing chunk.
		pos := missingPos(st.got, count)
		heals = append(heals, Heal{Idx: g*s.pool.group + pos, Payload: st.accP})
		s.releaseGroup(g)
	}
	return heals
}

// missingPos returns the first unset bit among positions [0, count) of
// got.
func missingPos(got uint64, count int) int {
	for pos := 0; pos < count; pos++ {
		if got&(1<<pos) == 0 {
			return pos
		}
	}
	return -1
}
