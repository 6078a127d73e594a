package viewer

import (
	"errors"
	"slices"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// rxKind says what a datagram was to the fragment it is applied to.
type rxKind uint8

const (
	rxStray        rxKind = iota // another repetition's datagram, or parity nobody folds: nothing to apply
	rxData                       // a chunk of the fragment's repetition, its first copy
	rxDup                        // a chunk the repetition already carried
	rxParity                     // a parity frame of the fragment's repetition
	rxBadCRC                     // a data frame whose payload failed its CRC
	rxMalformed                  // a frame that does not decode: fails the fragment
	rxInconsistent               // a chunk at odds with the fragment's geometry: fails it
)

// rxEvent is what the router's one pass over a datagram found, applied to
// every fragment tuned to its repetition (cohort.apply). It holds no
// pointer.
type rxEvent struct {
	at int64 // when the read loop took the datagram off the socket, UnixNano
	// idx and n are a data chunk's index and payload length, or an
	// inconsistent chunk's offset and fragment size; heal is the chunk the
	// datagram's stripe fold reconstructed, or -1.
	idx, n, heal int32
	kind         rxKind
	bad, healBad bool // content.Verify failed on the chunk, on the heal
}

// broadcast is one repetition of one channel as the audience receives it:
// the stripe that reassembles its parity groups, and which chunks have
// arrived (seen) and failed verification (bad), so a duplicate costs
// neither a verification nor a fold.
type broadcast struct {
	seq        uint32
	totalBytes int
	videoBase  int64
	stripe     *Stripe // nil without FEC
	seen, bad  bitset
	frags      int // fragments tuned to it
}

// seenAll reports whether chunks [first, first+n) have all arrived (or
// been healed); n <= 0 reports false.
func (b *broadcast) seenAll(first, n int) bool {
	for idx := first; idx < first+n; idx++ {
		if !b.seen.has(idx) {
			return false
		}
	}
	return n > 0
}

// groupRoute is everything tuned to one group: the fragments, the
// repetitions they receive — one or two at a time, when a loader's next
// repetition is tuned while the last one's tail drains — and how the
// join its first fragment asked ended: joined, failed with err, or not yet.
type groupRoute struct {
	frags  []*frag
	bcasts []*broadcast
	joined bool
	err    error
}

// find returns the broadcast of repetition seq, if anyone is tuned to it.
func (gr *groupRoute) find(seq uint32) *broadcast {
	for _, b := range gr.bcasts {
		if b.seq == seq {
			return b
		}
	}
	return nil
}

// router is the audience's receive pass (DESIGN.md 5f). SB sends the same
// bytes to every viewer tuned to one repetition of a channel, so route
// decodes, CRC-checks, verifies and stripe-folds each datagram once, in
// one broadcast state per (video, channel, repetition) somebody is tuned
// to, and applies what it found to every cohort fragment tuned to the
// repetition, in place (cohort.apply). Its group table is the audience's
// one membership count. Everything here runs on the receiver's read loop,
// the audience's one driver, so nothing is locked.
type router struct {
	chunkBytes int
	stripes    *stripePool
	groups     map[mcast.Group]*groupRoute
	heals      []Heal // the stripe's output, consumed before the next fold

	// delivered counts deliveries, one per (datagram, tuned fragment);
	// decoded the datagrams decoded, one per datagram read for a tuned
	// group.
	delivered, decoded int64
}

func newRouter(chunkBytes, fecGroup int) *router {
	return &router{
		chunkBytes: chunkBytes,
		stripes:    newStripePool(fecGroup, chunkBytes),
		groups:     make(map[mcast.Group]*groupRoute),
	}
}

// tap tunes f to its repetition of its group and returns the group's
// route; opened says f is the first fragment tuned to it.
func (r *router) tap(f *frag) (gr *groupRoute, opened bool) {
	g := f.group()
	gr = r.groups[g]
	if gr == nil {
		gr = &groupRoute{}
		r.groups[g] = gr
	}
	b := gr.find(f.seq)
	if b == nil {
		totalBytes := f.m.p.TotalBytes
		nchunks := (totalBytes + r.chunkBytes - 1) / r.chunkBytes
		b = &broadcast{seq: f.seq, totalBytes: totalBytes, videoBase: f.videoBase,
			stripe: r.stripes.stripe(nchunks), seen: newBitset(nchunks), bad: newBitset(nchunks)}
		gr.bcasts = append(gr.bcasts, b)
	}
	b.frags++
	f.b = b
	gr.frags = append(gr.frags, f)
	return gr, len(gr.frags) == 1
}

// untap detaches f; the last fragment of a repetition retires its state,
// and the last of a group closes its route.
func (r *router) untap(f *frag) (closed bool) {
	g := f.group()
	gr := r.groups[g]
	gr.frags = slices.DeleteFunc(gr.frags, func(x *frag) bool { return x == f })
	if f.b.frags--; f.b.frags == 0 {
		gr.bcasts = slices.DeleteFunc(gr.bcasts, func(x *broadcast) bool { return x == f.b })
		f.b.stripe.recycle()
	}
	if len(gr.frags) == 0 {
		delete(r.groups, g)
	}
	return len(gr.frags) == 0
}

// route passes one read's frames, received at now: each frame of a tuned
// group is received once and applied to every fragment tuned to its
// repetition. A fragment the datagram finished or failed gets its cohort
// stepped at now. It allocates nothing.
func (r *router) route(frames [][]byte, now time.Time) {
	at := now.UnixNano()
	for _, frame := range frames {
		video, channel, seq, _, ok := wire.PeekID(frame)
		if !ok {
			continue
		}
		gr := r.groups[mcast.Group{Video: int(video), Channel: int(channel)}]
		if gr == nil {
			continue
		}
		r.decoded++
		ev, b := r.receive(gr, frame, int(video), seq)
		ev.at = at
		for _, f := range gr.frags {
			r.delivered++
			if b != nil && f.b != b || f.err != nil {
				continue // another repetition's datagram: a stray to f
			}
			if err := f.c.apply(f, ev); err != nil {
				f.err = err
			}
			if f.err != nil || f.m.Done() {
				f.c.wakeNow(now)
			}
		}
	}
}

// receive is the one pass over a datagram: decode and CRC check, then for
// a repetition somebody is tuned to, the content verification and the
// stripe fold. It returns the event for the fragments tuned to broadcast
// b; a nil b means the event goes to every fragment of the group.
func (r *router) receive(gr *groupRoute, frame []byte, video int, seq uint32) (rxEvent, *broadcast) {
	ev := rxEvent{kind: rxStray, heal: -1}
	if wire.IsParity(frame) {
		// Damaged, stray or foreign parity is dropped silently: redundancy
		// must never fail a reception the data path could finish.
		b := gr.find(seq)
		if b == nil || b.stripe == nil {
			return ev, nil
		}
		p, err := wire.DecodeParity(frame)
		if err != nil || int(p.Total) != b.totalBytes {
			return ev, nil
		}
		ev.kind = rxParity
		// The parity of a group whose chunks have all been seen heals
		// nothing; folded, it would only hold an accumulator until evicted.
		first := int(p.Base) / r.chunkBytes
		if !b.seenAll(first, wire.ParityCount(p.Base, p.Total, b.stripe.Group(), r.chunkBytes)) {
			r.heals = b.stripe.Parity(&p, r.heals[:0])
			r.book(b, video, &ev)
		}
		return ev, b
	}
	c, err := wire.Decode(frame)
	switch {
	case errors.Is(err, wire.ErrBadCRC):
		ev.kind = rxBadCRC
		return ev, nil
	case err != nil:
		ev.kind = rxMalformed
		return ev, nil
	}
	b := gr.find(c.Seq)
	if b == nil {
		return ev, nil
	}
	if int(c.Total) != b.totalBytes || int(c.Offset)%r.chunkBytes != 0 || int(c.Offset) >= b.totalBytes {
		ev.kind, ev.idx, ev.n = rxInconsistent, int32(c.Offset), int32(c.Total)
		return ev, b
	}
	idx := int(c.Offset) / r.chunkBytes
	ev.idx, ev.n = int32(idx), int32(len(c.Payload))
	if b.seen.has(idx) {
		ev.kind, ev.bad = rxDup, b.bad.has(idx)
		return ev, b
	}
	ev.kind = rxData
	b.seen.set(idx)
	if content.Verify(c.Payload, video, b.videoBase+int64(c.Offset)) >= 0 {
		ev.bad = true
		b.bad.set(idx)
	}
	if b.stripe != nil {
		r.heals = b.stripe.Data(idx, c.Payload, r.heals[:0])
		r.book(b, video, &ev)
	}
	return ev, b
}

// book verifies the chunk the last fold reconstructed, if any, and notes
// it on ev and as seen. A fold completes at most one group, and a group
// heals at most one chunk.
func (r *router) book(b *broadcast, video int, ev *rxEvent) {
	for _, h := range r.heals {
		n := min(r.chunkBytes, b.totalBytes-h.Idx*r.chunkBytes)
		ev.heal = int32(h.Idx)
		ev.healBad = content.Verify(h.Payload[:n], video, b.videoBase+int64(h.Idx*r.chunkBytes)) >= 0
		b.seen.set(h.Idx)
		if ev.healBad {
			b.bad.set(h.Idx)
		}
	}
	r.heals = r.heals[:0]
}
