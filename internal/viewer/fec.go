// Stripe reassembly: the receive half of the proactive FEC stripe. The
// broadcast interleaves one parity frame per transmission group of G
// data chunks (wire.KindParity); Stripe accumulates the running XOR
// (and, in Reed-Solomon mode, the GF(256)-weighted sum) of the group's
// arrivals so a single missing datagram — or two, with P+Q — is
// reconstructed the moment the last covering frame lands, with zero
// control round trips. The cohort multiplexer drives one Stripe per
// fragment reception; the accumulators are pooled and reused, so the
// steady-state receive path stays allocation-free.
package viewer

import "skyscraper/internal/wire"

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
// and running parity folds. accP holds P ⊕ (XOR of arrived data): when
// exactly one covered chunk is missing and P arrived, accP IS that
// chunk. accQ (RS mode only) holds Q ⊕ Σ αⁱ·dataᵢ over the arrivals.
type stripeState struct {
	got        uint64
	gotN       int
	pGot, qGot bool
	accP, accQ []byte
}

func (st *stripeState) reset(chunkBytes int, rs bool) {
	st.got, st.gotN, st.pGot, st.qGot = 0, 0, false, false
	if st.accP == nil {
		st.accP = make([]byte, chunkBytes)
	} else {
		clear(st.accP)
	}
	if rs {
		if st.accQ == nil {
			st.accQ = make([]byte, chunkBytes)
		} else {
			clear(st.accQ)
		}
	}
}

// Stripe is the per-fragment reassembly buffer. Not safe for concurrent
// use; the mux drives one per cohort fragment, from its receive loop.
type Stripe struct {
	group      int
	rs         bool
	chunkBytes int
	nchunks    int
	slots      [stripeSlots]struct {
		g  int // group index, -1 when empty
		st *stripeState
	}
	pool []*stripeState
}

// NewStripe builds the reassembly buffer for a fragment of nchunks
// chunks under a stripe of width group. mode is wire.FecModeXOR or
// wire.FecModeRS; group <= 0 returns nil (no stripe — callers treat a
// nil Stripe as FEC off).
func NewStripe(group int, mode string, chunkBytes, nchunks int) *Stripe {
	if group <= 0 {
		return nil
	}
	if group > wire.MaxFecGroup {
		group = wire.MaxFecGroup
	}
	s := &Stripe{group: group, rs: mode == wire.FecModeRS, chunkBytes: chunkBytes, nchunks: nchunks}
	for i := range s.slots {
		s.slots[i].g = -1
	}
	return s
}

// Group returns the stripe width G.
func (s *Stripe) Group() int { return s.group }

// count is how many data chunks group g covers (the tail group may be
// short).
func (s *Stripe) count(g int) int {
	c := s.nchunks - g*s.group
	if c > s.group {
		c = s.group
	}
	return c
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
	var st *stripeState
	if n := len(s.pool); n > 0 {
		st = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		st = &stripeState{}
	}
	st.reset(s.chunkBytes, s.rs)
	s.slots[free].g = g
	s.slots[free].st = st
	return st
}

// release returns slot i's accumulator to the pool.
func (s *Stripe) release(i int) {
	s.pool = append(s.pool, s.slots[i].st)
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
	g := idx / s.group
	st := s.state(g)
	pos := idx - g*s.group
	if st.got&(1<<pos) != 0 {
		return heals
	}
	st.got |= 1 << pos
	st.gotN++
	wire.XorAccum(st.accP, payload)
	if s.rs {
		wire.GfMulAccum(st.accQ, payload, wire.GfExpPow(pos))
	}
	return s.tryHeal(g, st, heals)
}

// Parity folds a decoded parity frame into its group and appends any
// reconstruction it completes to heals. Frames whose geometry disagrees
// with the configured stripe (misaligned base, wrong coverage, short
// block) are dropped — the broadcast never emits them, so they are
// damage or misconfiguration, and folding them would corrupt heals.
func (s *Stripe) Parity(p *wire.Parity, heals []Heal) []Heal {
	if s == nil || int(p.Base)%s.chunkBytes != 0 {
		return heals
	}
	base := int(p.Base) / s.chunkBytes
	if base%s.group != 0 || base >= s.nchunks {
		return heals
	}
	g := base / s.group
	if p.Count != s.count(g) || len(p.Block) < s.chunkBytes {
		return heals
	}
	if p.Index == 1 && !s.rs {
		return heals
	}
	st := s.state(g)
	switch p.Index {
	case 0:
		if st.pGot {
			return heals
		}
		st.pGot = true
		wire.XorAccum(st.accP, p.Block)
	case 1:
		if st.qGot {
			return heals
		}
		st.qGot = true
		wire.XorAccum(st.accQ, p.Block)
	default:
		return heals
	}
	return s.tryHeal(g, st, heals)
}

// tryHeal reconstructs whatever the group's accumulated parity can
// prove, appending heals, and releases the group once nothing is
// missing. Heal payloads alias the group's accumulators; they stay
// valid until the next call into the Stripe (release only returns the
// buffers to the pool).
func (s *Stripe) tryHeal(g int, st *stripeState, heals []Heal) []Heal {
	count := s.count(g)
	missing := count - st.gotN
	if missing == 0 {
		s.releaseGroup(g)
		return heals
	}
	base := g * s.group
	switch {
	case missing == 1 && st.pGot:
		// accP = P ⊕ (XOR of all arrived) = the one missing chunk.
		pos := missingPos(st.got, count, 0)
		heals = append(heals, Heal{Idx: base + pos, Payload: st.accP})
		s.releaseGroup(g)
	case missing == 1 && st.qGot:
		// Only Q survived: accQ = α^pos · d, one scale recovers d.
		pos := missingPos(st.got, count, 0)
		gfScale(st.accQ, wire.GfDiv(1, wire.GfExpPow(pos)))
		heals = append(heals, Heal{Idx: base + pos, Payload: st.accQ})
		s.releaseGroup(g)
	case missing == 2 && st.pGot && st.qGot:
		// RAID-6 two-erasure solve at positions a < b:
		//   accP = d_a ⊕ d_b
		//   accQ = α^a·d_a ⊕ α^b·d_b
		// so (α^b·accP ⊕ accQ) = (α^a ⊕ α^b)·d_a.
		a := missingPos(st.got, count, 0)
		b := missingPos(st.got, count, 1)
		ca, cb := wire.GfExpPow(a), wire.GfExpPow(b)
		denom := ca ^ cb
		wire.GfMulAccum(st.accQ, st.accP, cb) // accQ ⊕= α^b·accP
		gfScale(st.accQ, wire.GfDiv(1, denom))
		wire.XorAccum(st.accP, st.accQ) // accP = d_a ⊕ d_b ⊕ d_a = d_b
		heals = append(heals, Heal{Idx: base + a, Payload: st.accQ}, Heal{Idx: base + b, Payload: st.accP})
		s.releaseGroup(g)
	}
	return heals
}

// missingPos returns the nth (0-based) unset bit among positions
// [0, count) of got.
func missingPos(got uint64, count, nth int) int {
	for pos := 0; pos < count; pos++ {
		if got&(1<<pos) == 0 {
			if nth == 0 {
				return pos
			}
			nth--
		}
	}
	return -1
}

// gfScale multiplies every byte of b by c in GF(256), in place.
func gfScale(b []byte, c byte) {
	for i, v := range b {
		if v != 0 {
			b[i] = wire.GfMul(c, v)
		}
	}
}
