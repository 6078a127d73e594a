package viewer

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// tapDepth is how many events a tuned fragment may hold unapplied; the
// router drops what arrives beyond it (Result.RecvDropped).
const tapDepth = 256

// rxKind says what a datagram was to the fragment it is posted to.
type rxKind uint8

const (
	rxStray        rxKind = iota // another repetition's datagram, or parity nobody folds: a wake, no more
	rxData                       // a chunk of the fragment's repetition, its first copy
	rxDup                        // a chunk the repetition already carried
	rxParity                     // a parity frame of the fragment's repetition
	rxBadCRC                     // a data frame whose payload failed its CRC
	rxMalformed                  // a frame that does not decode: fails the fragment
	rxInconsistent               // a chunk at odds with the fragment's geometry: fails it
)

// rxEvent is what the router posts to a tuned fragment for one datagram.
// It holds no pointer, so a queue of them is nothing to the collector.
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
	taps       int // fragments tuned to it
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

// groupRoute is everything tuned to one group: the fragments, and the
// repetitions they receive — one or two at a time, when a loader's next
// repetition is tuned while the last one's tail drains.
type groupRoute struct {
	taps   []*fragTap
	bcasts []*broadcast
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

// fragTap is one cohort fragment's queue of events. The router appends
// under mu and signals wake; the loader swaps the queue out (take).
type fragTap struct {
	g    mcast.Group
	b    *broadcast
	wake chan struct{} // capacity 1: one pending signal covers any number of events

	mu sync.Mutex
	q  []rxEvent
}

// take returns the events posted since the last take, leaving spare (its
// contents spent) as the queue, so two buffers alternate and a steady
// loader allocates nothing.
func (t *fragTap) take(spare []rxEvent) []rxEvent {
	t.mu.Lock()
	evs := t.q
	t.q = spare[:0]
	t.mu.Unlock()
	return evs
}

// router is the audience's receive pass (DESIGN.md 5f). SB sends the same
// bytes to every viewer tuned to one repetition of a channel, so route
// decodes, CRC-checks, verifies and stripe-folds each datagram once, in
// one broadcast state per (video, channel, repetition) somebody is tuned
// to, and posts one event per datagram to every cohort fragment tuned to
// the group; a loader only applies events (cohort.apply). route runs on
// the receiver's read loop, tap and untap on the loaders; mu covers the
// table and every broadcast state.
type router struct {
	chunkBytes int
	stripes    *stripePool

	mu     sync.Mutex
	groups map[mcast.Group]*groupRoute
	heals  []Heal // the stripe's output, consumed before the next fold

	// delivered counts events posted, one per (datagram, tuned fragment);
	// dropped those refused by a full queue; decoded the datagrams decoded,
	// one per datagram read for a tuned group.
	delivered, dropped, decoded atomic.Int64
}

func newRouter(chunkBytes, fecGroup int) *router {
	return &router{
		chunkBytes: chunkBytes,
		stripes:    newStripePool(fecGroup, chunkBytes),
		groups:     make(map[mcast.Group]*groupRoute),
	}
}

// tap tunes a fragment to repetition seq of group g, a fragment of
// totalBytes starting videoBase bytes into the video.
func (r *router) tap(g mcast.Group, seq uint32, totalBytes int, videoBase int64) *fragTap {
	r.mu.Lock()
	defer r.mu.Unlock()
	gr := r.groups[g]
	if gr == nil {
		gr = &groupRoute{}
		r.groups[g] = gr
	}
	b := gr.find(seq)
	if b == nil {
		nchunks := (totalBytes + r.chunkBytes - 1) / r.chunkBytes
		b = &broadcast{seq: seq, totalBytes: totalBytes, videoBase: videoBase,
			stripe: r.stripes.stripe(nchunks), seen: newBitset(nchunks), bad: newBitset(nchunks)}
		gr.bcasts = append(gr.bcasts, b)
	}
	b.taps++
	t := &fragTap{g: g, b: b, wake: make(chan struct{}, 1)}
	gr.taps = append(gr.taps, t)
	return t
}

// untap detaches t; the last fragment of a repetition retires its state.
func (r *router) untap(t *fragTap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gr := r.groups[t.g]
	gr.taps = slices.DeleteFunc(gr.taps, func(x *fragTap) bool { return x == t })
	if t.b.taps--; t.b.taps == 0 {
		gr.bcasts = slices.DeleteFunc(gr.bcasts, func(x *broadcast) bool { return x == t.b })
		t.b.stripe.recycle()
	}
	if len(gr.taps) == 0 {
		delete(r.groups, t.g)
	}
}

// route passes one read's frames, received at now: each frame of a tuned
// group is received once and posted to every fragment tuned to the group.
// It allocates nothing once the queues have grown to the traffic.
func (r *router) route(frames [][]byte, now time.Time) {
	at := now.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, frame := range frames {
		video, channel, seq, _, ok := wire.PeekID(frame)
		if !ok {
			continue
		}
		gr := r.groups[mcast.Group{Video: int(video), Channel: int(channel)}]
		if gr == nil {
			continue
		}
		r.decoded.Add(1)
		ev, b := r.receive(gr, frame, int(video), seq)
		ev.at = at
		stray := rxEvent{at: at, kind: rxStray, heal: -1}
		for _, t := range gr.taps {
			if b == nil || t.b == b {
				r.post(t, ev)
			} else {
				r.post(t, stray)
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

// post queues ev on t and wakes its loader.
func (r *router) post(t *fragTap, ev rxEvent) {
	t.mu.Lock()
	if len(t.q) >= tapDepth {
		t.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	t.q = append(t.q, ev)
	t.mu.Unlock()
	r.delivered.Add(1)
	select {
	case t.wake <- struct{}{}:
	default:
	}
}
