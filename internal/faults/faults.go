// Package faults is a deterministic fault-injection layer for the live
// broadcast stack. The paper proves its jitter-free guarantee over a
// lossless channel; this package makes the channel lossy on purpose — an
// Injector decides, as the server's egress shards stage each tick, which
// scheduled frames to drop, duplicate, reorder, or delay according to a
// seeded Plan — so the client's loss-recovery path can be exercised and
// regression-tested.
//
// Every decision is a pure function of (seed, video, channel, chunk
// offset), derived through the same SplitMix64 substream machinery the
// sweep engine uses (des.SubSeed). Deliberately, the broadcast repetition
// number is NOT part of the key: a chunk position that the plan injures is
// injured in every repetition. Chaos runs are therefore bit-reproducible —
// the set of injured chunks is independent of wall time, of when a client
// tunes in, and of goroutine scheduling — which is what lets tests assert
// identical recovery statistics for identical seeds.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skyscraper/internal/des"
	"skyscraper/internal/mcast"
	"skyscraper/internal/trace"
	"skyscraper/internal/wire"
)

// Plan configures one chaos run. Rates are per-chunk probabilities in
// [0, 1]; independent decisions are drawn per chunk with the precedence
// drop > delay > reorder > duplicate (a dropped chunk is not also
// duplicated, and so on).
type Plan struct {
	// Seed roots every decision substream. Two injectors with equal
	// plans injure exactly the same chunk positions.
	Seed uint64
	// Drop is the probability a chunk never reaches the hub.
	Drop float64
	// Duplicate is the probability a chunk is sent twice back-to-back.
	Duplicate float64
	// Reorder is the probability a chunk is held back and released only
	// after the channel's next chunk, swapping the pair on the wire.
	Reorder float64
	// Delay is the probability a chunk is deferred by a deterministic
	// duration drawn uniformly from [0, MaxDelay].
	Delay float64
	// MaxDelay bounds injected delays; required positive when Delay > 0.
	MaxDelay time.Duration

	// BurstEnter enables Gilbert–Elliott burst loss: the channel walks a
	// seeded two-state chain per chunk position — good → bad with
	// probability BurstEnter, bad → good with BurstExit — and while bad,
	// each chunk drops with probability BurstDrop. The chain is walked
	// from chunk 0 over positions, never repetitions, so the injured
	// bursts sit at the same chunk indices in every repetition and every
	// run with the same seed (the package's reproducibility contract).
	// The expected burst length is 1/BurstExit chunks — size it against
	// the FEC stripe width to exercise stripe defeat.
	BurstEnter float64
	// BurstExit is the chain's bad → good transition probability;
	// required positive when BurstEnter > 0.
	BurstExit float64
	// BurstDrop is the per-chunk drop probability while the chain is in
	// the bad state.
	BurstDrop float64
	// ChunkBytes maps frame offsets to the chunk positions the burst
	// chain is walked over; required positive when BurstEnter > 0.
	ChunkBytes int
	// Trace, when non-nil, receives one event per injected fault so a
	// failing chaos run is diagnosable from the ring buffer dump.
	Trace *trace.Buffer
}

// Validate reports the first configuration error, or nil.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"Drop", p.Drop}, {"Duplicate", p.Duplicate}, {"Reorder", p.Reorder}, {"Delay", p.Delay},
		{"BurstEnter", p.BurstEnter}, {"BurstExit", p.BurstExit}, {"BurstDrop", p.BurstDrop}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.Delay > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("faults: Delay = %v needs a positive MaxDelay", p.Delay)
	}
	if p.BurstEnter > 0 {
		if p.BurstExit <= 0 {
			return fmt.Errorf("faults: BurstEnter = %v needs a positive BurstExit", p.BurstEnter)
		}
		if p.ChunkBytes <= 0 {
			return fmt.Errorf("faults: BurstEnter = %v needs a positive ChunkBytes", p.BurstEnter)
		}
	}
	return nil
}

// Decision substream indices; each fault kind draws from its own
// substream so enabling one rate never shifts another's decisions.
const (
	rollDrop = iota
	rollDup
	rollReorder
	rollDelay
	rollDelayDur
	rollBurstEnter
	rollBurstExit
	rollBurstDrop
)

// parityRollShift shifts the decision substreams for parity frames. A
// parity frame carries its group's base offset — the same header offset
// as the group's first data chunk — and an unshifted roll would injure
// both with one decision: correlated loss that defeats the stripe
// exactly when it is supposed to help, and (worse for the golden gates)
// a data-chunk fault schedule that shifts when FEC turns on.
const parityRollShift = 8

// roll maps one (chunk position, decision kind) to a uniform value in
// [0, 1). Seq is deliberately absent from the key — see the package
// comment.
func (p Plan) roll(kind int, video, channel uint16, offset uint32) float64 {
	key := uint64(video)<<40 | uint64(channel)<<8 | uint64(kind)
	u := des.SubSeed(des.SubSeed(p.Seed, key), uint64(offset))
	return float64(u>>11) / (1 << 53)
}

// Counts summarizes the faults an Injector has injected so far.
type Counts struct {
	Dropped    int64 `json:"dropped"`
	Duplicated int64 `json:"duplicated"`
	Reordered  int64 `json:"reordered"`
	Delayed    int64 `json:"delayed"`
	// BurstDropped counts drops decided by the Gilbert–Elliott chain,
	// separate from the iid Dropped so a chaos run can tell burst
	// casualties (which defeat an FEC stripe) from scattered ones
	// (which it heals).
	BurstDropped int64 `json:"burstDropped"`
}

// framePool recycles the frame copies the injector makes for delayed and
// held (reordered) chunks. The shards reuse their send buffers, so every
// deferred send must own a copy; pooling those copies keeps sustained
// chaos runs from allocating one slab per injected fault.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, wire.EncodedSize(wire.MaxPayload))
		return &b
	},
}

// copyFrame checks a pooled buffer out and fills it with frame.
func copyFrame(frame []byte) *[]byte {
	bp := framePool.Get().(*[]byte)
	*bp = append((*bp)[:0], frame...)
	return bp
}

// Injector applies a fault plan to the frames of a broadcast: Stage
// decides each scheduled frame as the server builds its tick, and next
// receives what leaves later — delayed frames, and what Flush releases.
// It is safe for concurrent use by multiple egress shards; per-channel
// effects (reordering) assume each group's frames are staged
// sequentially, which the server guarantees (one shard per channel).
type Injector struct {
	plan  Plan
	next  mcast.Sender
	epoch time.Time

	mu   sync.Mutex
	held map[mcast.Group]*[]byte

	// chains memoizes each channel's Gilbert–Elliott walk (nil when the
	// burst mode is off). Guarded by bmu, separate from mu so burst
	// decisions never contend with reorder holds.
	bmu    sync.Mutex
	chains map[mcast.Group]*burstChain

	dropped, duplicated, reordered, delayed, burstDropped atomic.Int64
}

// burstChain is one channel's memoized Gilbert–Elliott walk: bad[c/64]
// bit c%64 records the chain state at chunk position c for every
// position below next; state is the chain state entering position next.
// The walk is extended lazily and monotonically, so a decision for any
// chunk — in or out of order — reads the same bit forever.
type burstChain struct {
	bad   []uint64
	next  int
	state bool
}

// New validates the plan and wraps next with it.
func New(next mcast.Sender, plan Plan) (*Injector, error) {
	if next == nil {
		return nil, fmt.Errorf("faults: nil sender")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan, next: next, epoch: time.Now(), held: make(map[mcast.Group]*[]byte)}
	if plan.BurstEnter > 0 {
		in.chains = make(map[mcast.Group]*burstChain)
	}
	return in, nil
}

// Counts reports the faults injected so far.
func (in *Injector) Counts() Counts {
	return Counts{
		Dropped:      in.dropped.Load(),
		Duplicated:   in.duplicated.Load(),
		Reordered:    in.reordered.Load(),
		Delayed:      in.delayed.Load(),
		BurstDropped: in.burstDropped.Load(),
	}
}

func (in *Injector) tracef(kind string, g mcast.Group, seq, offset uint32, format string, args ...any) {
	if in.plan.Trace == nil {
		return // nobody keeps the trace: no clock read, no formatting
	}
	in.plan.Trace.Addf(trace.Wall(in.epoch, time.Now()), kind,
		"%v seq %d off %d%s", g, seq, offset, fmt.Sprintf(format, args...))
}

// Stage makes the plan's decision for one scheduled frame of group g and
// appends to batch what leaves with it; the server calls it for every
// frame of a tick as it stages the tick, heard or not, and sends the
// batch unfiltered at the instant, release. covered is 0 for a data chunk at byte
// offset `offset`, and for a parity frame the number of chunks it covers
// from its group base `offset` (wire.ParityCount).
//
// frame is the built frame, or nil when nobody hears g and the server
// did not build it. A heard frame that passes is appended — twice when
// the plan duplicates it — and one the plan reorders is held back and
// appended behind g's next heard frame instead; a delayed frame leaves
// through next its delay after release, so never before the batch it was
// staged with, however early the server staged. An unheard frame is only booked: its decision
// lands in the counters and the trace exactly as a heard one's would, so
// the counts over a window are a function of the seed alone however the
// audience moves, and a frame still held for g goes back to the pool
// (the members it was held for are gone).
//
// frame must stay valid until batch is sent; anything that outlives that
// is a copy. A held frame leaves in memory from take, which must stay
// valid until batch is sent too — the server passes its tick arena.
func (in *Injector) Stage(batch []mcast.BatchEntry, release time.Time, g mcast.Group, seq, offset uint32, covered int, frame []byte, take func(n int) []byte) []mcast.BatchEntry {
	return in.stage(batch, release, g, uint16(g.Video), uint16(g.Channel), seq, offset, covered, frame, take)
}

// stage is Stage with the identity the rolls are keyed on given apart
// from g, as Send reads it from the frame.
func (in *Injector) stage(batch []mcast.BatchEntry, release time.Time, g mcast.Group, video, channel uint16, seq, offset uint32, covered int, frame []byte, take func(n int) []byte) []mcast.BatchEntry {
	shift := 0
	if covered > 0 {
		shift = parityRollShift
	}
	prev := in.takeHeld(g)
	switch v, d := in.decide(g, video, channel, seq, offset, shift, covered); {
	case frame == nil:
		if v == pass {
			in.duplicate(g, video, channel, seq, offset, shift)
		}

	case v == delay:
		// The deferred send must own a copy (pooled). Errors after the
		// hub closes are expected noise.
		cp := copyFrame(frame)
		time.AfterFunc(time.Until(release.Add(d)), func() {
			_, _ = in.next.Send(g, *cp)
			framePool.Put(cp)
		})

	case v == reorder:
		in.mu.Lock()
		_, already := in.held[g]
		if !already {
			in.held[g] = copyFrame(frame)
		}
		in.mu.Unlock()
		if already {
			// Can only hold one frame per group; send straight through.
			batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
		}

	case v == pass:
		batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
		if in.duplicate(g, video, channel, seq, offset, shift) {
			batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
		}
	}
	if prev != nil {
		if frame != nil {
			cp := take(len(*prev))
			copy(cp, *prev)
			batch = append(batch, mcast.BatchEntry{Group: g, Frame: cp})
		}
		framePool.Put(prev)
	}
	return batch
}

// sendScratch is Send's batch and the room for a released held frame.
type sendScratch struct {
	out []mcast.BatchEntry
	buf []byte
}

var sendScratchPool = sync.Pool{New: func() any { return new(sendScratch) }}

func (sc *sendScratch) take(n int) []byte {
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	return sc.buf[:n]
}

// Send applies the plan to one data chunk and hands what leaves to next,
// frame by frame: Stage's decision, released now, for a caller that sends as it goes.
// Anything else — a parity frame, whose coverage the frame does not
// carry, or a frame that does not parse — is forwarded untouched. Kept
// for benchmark/harness and the tests that drive a lone sender; the
// harness follow-up of ROADMAP item 2 deletes it.
func (in *Injector) Send(g mcast.Group, frame []byte) (int, error) {
	video, channel, seq, offset, ok := wire.PeekID(frame)
	if !ok || wire.IsParity(frame) {
		return in.next.Send(g, frame)
	}
	sc := sendScratchPool.Get().(*sendScratch)
	sc.out = in.stage(sc.out[:0], time.Now(), g, video, channel, seq, offset, 0, frame, sc.take)
	var n int
	var err error
	for _, e := range sc.out {
		sn, serr := in.next.Send(e.Group, e.Frame)
		n += sn
		if err == nil {
			err = serr
		}
	}
	clear(sc.out) // a pooled scratch must not pin the caller's frames
	sendScratchPool.Put(sc)
	return n, err
}

// takeHeld removes and returns the frame held for g's next send, if any.
func (in *Injector) takeHeld(g mcast.Group) *[]byte {
	in.mu.Lock()
	prev := in.held[g]
	delete(in.held, g)
	in.mu.Unlock()
	return prev
}

// verdict is the plan's decision for one frame position.
type verdict int

const (
	pass verdict = iota
	drop
	burst
	delay
	reorder
)

// decide rolls the plan's dice for one frame position, with the
// precedence drop > burst > delay > reorder, and books the outcome in
// the counters and the trace. shift selects the parity substreams and
// covered is the parity frame's chunk count (both 0 for a data chunk); d
// is how long a delayed frame is deferred. It is the whole of the plan's
// randomness short of the duplicate roll.
func (in *Injector) decide(g mcast.Group, video, channel uint16, seq, offset uint32, shift, covered int) (v verdict, d time.Duration) {
	p := in.plan
	switch {
	case p.Drop > 0 && p.roll(shift+rollDrop, video, channel, offset) < p.Drop:
		in.dropped.Add(1)
		in.tracef("fault-drop", g, seq, offset, "")
		return drop, 0
	case in.burstDrop(video, channel, offset, shift, covered):
		in.burstDropped.Add(1)
		in.tracef("fault-burst", g, seq, offset, "")
		return burst, 0
	case p.Delay > 0 && p.roll(shift+rollDelay, video, channel, offset) < p.Delay:
		d = time.Duration(p.roll(shift+rollDelayDur, video, channel, offset) * float64(p.MaxDelay))
		in.delayed.Add(1)
		in.tracef("fault-delay", g, seq, offset, " by %v", d)
		return delay, d
	case p.Reorder > 0 && p.roll(shift+rollReorder, video, channel, offset) < p.Reorder:
		in.reordered.Add(1)
		in.tracef("fault-reorder", g, seq, offset, " held for next send")
		return reorder, 0
	}
	return pass, 0
}

// duplicate rolls the duplicate decision for a frame that passed, and
// books it.
func (in *Injector) duplicate(g mcast.Group, video, channel uint16, seq, offset uint32, shift int) bool {
	p := in.plan
	if p.Duplicate <= 0 || p.roll(shift+rollDup, video, channel, offset) >= p.Duplicate {
		return false
	}
	in.duplicated.Add(1)
	in.tracef("fault-dup", g, seq, offset, "")
	return true
}

// burstDrop decides whether the Gilbert–Elliott chain kills this frame.
// A data chunk consults the chain state at its own position; a parity
// frame (covered > 0) at the last position it covers, because that is the
// chunk it rides immediately behind on the wire — a burst that swallows
// the end of a group swallows its parity too, which is exactly the
// correlated failure mode the stripe must escalate past.
func (in *Injector) burstDrop(video, channel uint16, offset uint32, shift, covered int) bool {
	p := in.plan
	if p.BurstEnter <= 0 || p.BurstDrop <= 0 {
		return false
	}
	chunk := int(offset) / p.ChunkBytes
	if covered > 0 {
		chunk += covered - 1
	}
	if !in.burstBad(video, channel, chunk) {
		return false
	}
	return p.roll(shift+rollBurstDrop, video, channel, uint32(chunk)) < p.BurstDrop
}

// burstBad reports the chain state at chunk position `chunk` of the
// channel, extending the memoized walk as needed. The transition roll
// at position c decides the state FOR c given the state after c-1, so a
// freshly-entered burst injures the chunk that triggered it and the
// expected burst length is 1/BurstExit.
func (in *Injector) burstBad(video, channel uint16, chunk int) bool {
	p := in.plan
	g := mcast.Group{Video: int(video), Channel: int(channel)}
	in.bmu.Lock()
	defer in.bmu.Unlock()
	ch := in.chains[g]
	if ch == nil {
		ch = &burstChain{}
		in.chains[g] = ch
	}
	for ch.next <= chunk {
		c := ch.next
		if ch.state {
			if p.roll(rollBurstExit, video, channel, uint32(c)) < p.BurstExit {
				ch.state = false
			}
		} else if p.roll(rollBurstEnter, video, channel, uint32(c)) < p.BurstEnter {
			ch.state = true
		}
		for len(ch.bad) <= c/64 {
			ch.bad = append(ch.bad, 0)
		}
		if ch.state {
			ch.bad[c/64] |= 1 << (c % 64)
		}
		ch.next++
	}
	return ch.bad[chunk/64]&(1<<(chunk%64)) != 0
}

// Flush releases every frame currently held for reordering through next.
// The server calls it on shutdown; benchmark/harness and tests call it
// after a bounded send sequence so no chunk is withheld forever.
func (in *Injector) Flush() {
	in.mu.Lock()
	held := in.held
	in.held = make(map[mcast.Group]*[]byte)
	in.mu.Unlock()
	for g, f := range held {
		_, _ = in.next.Send(g, *f)
		framePool.Put(f)
	}
}
