// Package viewer is the receiving side of the live Skyscraper demo: the
// paper's client (Section 3.3: an Odd Loader, an Even Loader and a Video
// Player over at most two tuners), written once and run at any audience
// size. The paper's server cost is independent of the audience; showing
// that takes an audience the test machine can hold. Two layers:
//
//   - Machine (this file): the deterministic per-fragment loader state
//     machine — gap detection on the broadcast grid, NACK rounds in seeded
//     jittered aggregation windows (nack.go), and degradation accounting.
//
//   - Mux (mux.go/cohort.go/route.go): the one driver of that machine.
//     Viewers tuned to the same (video, channel set, phase) form a cohort
//     sharing one machine per fragment (repetition invariance: every
//     member receives the same datagrams, so every member misses the same
//     chunks), and the router decodes and verifies each datagram once
//     for every cohort that hears it: one process holds 100k+ sessions,
//     and a single session (RunSession, which client.Watch wraps) is a
//     cohort of one.
//
// Machine is pure state: every method takes the current time explicitly
// and touches no clock, socket, or goroutine, so the same transitions run
// against wall time (the mux) or a scripted virtual time (the tests).
package viewer

import (
	"math"
	"slices"
	"time"

	"skyscraper/internal/des"
)

// DefaultGraceUnits is the receive cutoff's slack past the broadcast's
// nominal end: several units absorb server pacing drift on a loaded
// machine before missing chunks are declared lost.
const DefaultGraceUnits = 6

// JitterIn returns the deterministic full-jitter delay every retry site
// uses: uniform in (0, window], bounded below by 1ms so retries never
// spin, drawn from the substream of seed identified by (key, stream).
// Distinct seeds produce uncorrelated schedules (SubSeed is a SplitMix64
// finalizer), which is what breaks up viewer retry synchronization after
// a shared fault.
func JitterIn(seed, key, stream uint64, window time.Duration) time.Duration {
	if window < time.Millisecond {
		window = time.Millisecond
	}
	r := des.NewRand(des.SubSeed(des.SubSeed(seed, key), stream))
	d := time.Duration(r.Float64() * float64(window))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// JitterFunc draws one deterministic backoff delay; the multiplexer binds
// JitterIn to each viewer's seed.
type JitterFunc func(key, stream uint64, window time.Duration) time.Duration

// FragmentParams describes one fragment reception: the broadcast geometry
// a loader tunes to and the recovery policy it runs. All times derive from
// (Epoch, Unit).
type FragmentParams struct {
	// Video and Channel identify the fragment's broadcast group.
	Video, Channel int
	// Size is the fragment length in D1 units; TuneUnit the absolute unit
	// the loader tunes at (a multiple of Size); PlayUnit the absolute unit
	// the fragment's first byte plays at.
	Size, TuneUnit, PlayUnit int64
	// TotalBytes is the fragment's payload size; ChunkBytes the datagram
	// payload size; BytesPerUnit the payload density (for playback times).
	TotalBytes, ChunkBytes, BytesPerUnit int
	// Epoch and Unit anchor the broadcast grid in wall time.
	Epoch time.Time
	Unit  time.Duration
	// Slack is how long after its scheduled playback a chunk may arrive
	// before it counts as jitter; Lag how long after a chunk's expected
	// broadcast arrival the gap detector waits before presuming it missing.
	Slack, Lag time.Duration
	// GraceUnits extends the receive cutoff past the broadcast's nominal
	// end; zero selects DefaultGraceUnits.
	GraceUnits int64

	// DisableRepair turns recovery off: gaps run out their deadlines and
	// become losses. RepairsEnabled, when non-nil, is consulted before a
	// chunk joins each NACK round — the multiplexer stops rounds after a
	// server-initiated bye. Jitter draws the aggregation windows (required
	// unless DisableRepair).
	DisableRepair  bool
	RepairsEnabled func() bool
	Jitter         JitterFunc

	// Observe is read as DisableRepair. Kept for benchmark/harness, which
	// sets it to time a machine that schedules no repair; the harness
	// follow-up of ROADMAP item 2 deletes it.
	Observe bool

	// NackWindow is the NACK ladder's aggregation window (nack.go; zero
	// selects two chunk intervals); MaxNackRounds caps the rounds one
	// chunk joins (zero selects DefaultMaxNackRounds; caps past 255 are
	// clamped to it, the per-chunk counter being a byte).
	NackWindow    time.Duration
	MaxNackRounds int

	// FecGroup is the broadcast's proactive parity stripe width G (from
	// Welcome.FecGroup); zero means no stripe. With a stripe, a chunk
	// missing at its gap checkpoint first waits for the group's parity
	// frame — the stripe heals single-datagram loss locally with no
	// control traffic — and only enters the NACK ladder at stripe-defeat
	// time: the grid instant by which the parity frame, broadcast
	// alongside the group's last data chunk, can no longer save it. The
	// driver reports reconstructions via FecHealed.
	FecGroup int

	// OnLost, when non-nil, observes each chunk declared unrecoverable
	// (for tracing); rounds is how many NACK rounds it joined.
	OnLost func(idx, rounds int)
}

// MachineStats counts a fragment reception's recovery outcomes.
type MachineStats struct {
	// Late counts chunks that arrived (or were healed) after their
	// playback time plus slack; Duplicates retransmissions discarded;
	// Lost chunks neither broadcast nor healed before their deadline.
	Late, Duplicates, Lost int64
	// Nacks counts gap-bitmap NACK round trips issued; NacksSuppressed
	// aggregation windows that closed with nothing left to report (the
	// multicast re-send arrived first) plus gaps the parity stripe
	// healed before their window ever armed; NackRepaired chunks healed
	// by a multicast re-send while in the NACK re-listen phase.
	Nacks, NacksSuppressed, NackRepaired int64
	// FecHeals counts chunks reconstructed locally from the parity
	// stripe — zero control round trips; StripeDefeats chunks whose
	// stripe hold expired unhealed (burst loss beyond the stripe's
	// reach, or the parity frame itself lost) and entered the NACK ladder.
	FecHeals, StripeDefeats int64
}

// ActionKind classifies what a Machine wants its driver to do next.
type ActionKind int

const (
	// ActWait blocks on the broadcast until Action.Wake, then polls again.
	ActWait ActionKind = iota
	// ActNack asks for one gap-bitmap NACK round trip covering
	// Action.Chunks; the driver reports the reply via NackResult.
	ActNack
)

// Action is one decision from Next.
type Action struct {
	Kind ActionKind
	// Wake is when to poll again for ActWait.
	Wake time.Time
	// Chunks are the missing chunk indices (ascending) for ActNack.
	Chunks []int
}

// Machine is the loader state machine for one fragment reception. It is
// not safe for concurrent use; the audience loop is its only driver.
//
// Its memory is the open gaps, not the fragment: besides two bits per
// chunk (resolved, listed), per-chunk recovery state exists only for the
// chunks in the active set. Every other unresolved chunk is dormant —
// untouched since construction — and its gap checkpoint and stripe-defeat
// instant are pure functions of the geometry (dormant), recomputed when
// needed instead of stored.
type Machine struct {
	p       FragmentParams // defaults and caps applied by NewMachine
	nchunks int
	spacing time.Duration

	// bits holds two bitsets back to back, each nchunks bits rounded up to
	// whole words: resolved chunks (received, repaired, or declared lost),
	// then listed chunks (those in active).
	bits bitset
	got  int

	// Next's incremental scan state. Every unresolved chunk is either
	// dormant — at or past frontier and untouched since construction, so
	// its gap checkpoint, stripe-defeat instant and loss deadline are all
	// still ahead — or listed in active (ascending by index), where Next
	// gives it the full per-chunk treatment. Resolved chunks leave active
	// lazily, on Next's following pass.
	frontier int
	active   []openChunk

	stats MachineStats

	// The NACK aggregation window (nack.go): nackAt is when the armed
	// window fires (zero when none is armed); nackSeq numbers armed
	// windows, providing the jitter stream.
	nackAt  time.Time
	nackSeq uint64
}

// openChunk is the recovery state of one chunk in the active set.
type openChunk struct {
	idx int
	// tryAt is when the chunk is next due for recovery action: its ladder
	// start, or its NACK re-listen deadline.
	tryAt time.Time
	// fecUntil is the stripe-defeat instant while the chunk holds on the
	// parity stripe: no NACK before it, and it becomes the ladder start
	// when the hold expires unhealed. Zero when there is no stripe or the
	// hold is over.
	fecUntil time.Time
	// phase is the NACK ladder phase (nackDone from the start when
	// recovery is off); tries the rounds joined, kept inside its byte by
	// the cap NewMachine applies.
	phase, tries uint8
}

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

func newBitset(n int) bitset             { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool          { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)               { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int)             { b[i>>6] &^= 1 << (uint(i) & 63) }
func (m *Machine) listed(idx int) bool   { return m.bits.has(len(m.bits)*32 + idx) }
func (m *Machine) setListed(idx int)     { m.bits.set(len(m.bits)*32 + idx) }
func (m *Machine) unsetListed(idx int)   { m.bits.unset(len(m.bits)*32 + idx) }
func (m *Machine) resolved(idx int) bool { return m.bits.has(idx) }

// NewMachine builds the state machine for one fragment, applying p's
// defaults and caps. The gap detector's per-chunk checkpoints are fixed
// by the geometry: the server paces chunk idx at start + idx*spacing, so
// if it has not arrived one Lag past that it is presumed missing and
// recovery begins — early enough, though, that a NACK round still fits
// before the chunk's playback deadline.
func NewMachine(p FragmentParams) *Machine {
	if p.GraceUnits == 0 {
		p.GraceUnits = DefaultGraceUnits
	}
	p.DisableRepair = p.DisableRepair || p.Observe
	nchunks := (p.TotalBytes + p.ChunkBytes - 1) / p.ChunkBytes
	spacing := time.Duration(p.Size) * p.Unit / time.Duration(nchunks)
	if p.NackWindow == 0 {
		p.NackWindow = 2 * spacing
	}
	if p.MaxNackRounds == 0 {
		p.MaxNackRounds = DefaultMaxNackRounds
	}
	// The per-chunk round counter is a byte: a cap past 255 would let it
	// wrap before it ever reached the cap.
	p.MaxNackRounds = min(p.MaxNackRounds, math.MaxUint8)
	return &Machine{
		p:       p,
		nchunks: nchunks,
		spacing: spacing,
		bits:    make(bitset, 2*((nchunks+63)/64)),
	}
}

// dormant is chunk idx's construction-time recovery state: its gap
// checkpoint and, under a parity stripe, its stripe-defeat instant. Both
// are pure functions of the broadcast geometry, which is why a dormant
// chunk needs no storage.
func (m *Machine) dormant(idx int) openChunk {
	lb := m.lostOff(idx)
	cp := m.checkpointOff(idx, lb)
	c := openChunk{idx: idx, tryAt: m.at(cp)}
	if m.p.DisableRepair {
		c.phase = nackDone
	}
	if m.p.FecGroup > 0 {
		c.fecUntil = m.at(m.fecDefeatOff(idx, cp, lb))
	}
	return c
}

// state returns chunk idx's recovery state: its record when listed, else
// its dormant state.
func (m *Machine) state(idx int) openChunk {
	if m.listed(idx) {
		return *m.find(idx)
	}
	return m.dormant(idx)
}

// find returns listed chunk idx's record. The pointer is valid until the
// active set next grows or is compacted.
func (m *Machine) find(idx int) *openChunk {
	i, _ := slices.BinarySearchFunc(m.active, idx, func(c openChunk, idx int) int { return c.idx - idx })
	return &m.active[i]
}

// The broadcast geometry. Every schedule instant of a chunk is computed
// as an offset from Epoch and converted once (at), so a dormant chunk's
// schedule costs a few integer operations to recompute.

// at converts an offset from Epoch to an instant.
func (m *Machine) at(off time.Duration) time.Time { return m.p.Epoch.Add(off) }

// arrivalOff is chunk idx's expected broadcast arrival: the server paces
// it at the tune instant plus idx+1 chunk intervals.
func (m *Machine) arrivalOff(idx int) time.Duration {
	return time.Duration(m.p.TuneUnit)*m.p.Unit + time.Duration(idx+1)*m.spacing
}

// playOff is when chunk idx's first byte is consumed by the player.
func (m *Machine) playOff(idx int) time.Duration {
	off := idx * m.p.ChunkBytes
	return time.Duration(m.p.PlayUnit)*m.p.Unit +
		time.Duration(float64(off)/float64(m.p.BytesPerUnit)*float64(m.p.Unit))
}

// deadlineOff is the receive cutoff (see Deadline).
func (m *Machine) deadlineOff() time.Duration {
	return time.Duration(m.p.TuneUnit+m.p.Size)*m.p.Unit + time.Duration(m.p.GraceUnits)*m.p.Unit
}

// lostOff is chunk idx's loss deadline (see LostBy).
func (m *Machine) lostOff(idx int) time.Duration {
	return min(m.playOff(idx)+m.p.Slack, m.deadlineOff())
}

// checkpointOff is the gap detector's initial deadline for chunk idx,
// whose loss deadline is lb (see NewMachine): one Lag past its expected
// arrival, clamped to a chunk interval before lb so a NACK round still
// fits, and never before the expected arrival itself.
func (m *Machine) checkpointOff(idx int, lb time.Duration) time.Duration {
	expected := m.arrivalOff(idx)
	return max(min(expected+m.p.Lag, lb-m.spacing), expected)
}

// checkpoint is checkpointOff as an instant.
func (m *Machine) checkpoint(idx int) time.Time {
	return m.at(m.checkpointOff(idx, m.lostOff(idx)))
}

// fecDefeatOff is the grid instant at which chunk idx's parity stripe is
// declared defeated: the parity frame rides the same dispatch as the
// group's last data chunk, so half a chunk interval past that chunk's
// gap checkpoint the stripe can no longer heal anything — either the
// reconstruction already happened or the loss exceeded the stripe. The
// instant is clamped like a checkpoint (a NACK round must still fit
// before the loss deadline lb) and never precedes the chunk's own
// checkpoint cp. A pure function of the broadcast geometry: cohorts and
// single viewers compute identical defeat times, which is what keeps
// NACK grouping bit-identical between them.
func (m *Machine) fecDefeatOff(idx int, cp, lb time.Duration) time.Duration {
	last := min((idx/m.p.FecGroup+1)*m.p.FecGroup-1, m.nchunks-1)
	t := m.checkpointOff(last, m.lostOff(last)) + m.spacing/2
	return max(min(t, lb-m.spacing), cp)
}

// WantSeq is the broadcast repetition this reception tunes to.
func (m *Machine) WantSeq() uint32 { return uint32(m.p.TuneUnit / m.p.Size) }

// Done reports whether every chunk is resolved (received, healed, or
// declared lost).
func (m *Machine) Done() bool { return m.got >= m.nchunks }

// Stats returns the recovery counters accumulated so far.
func (m *Machine) Stats() MachineStats { return m.stats }

// Deadline is the receive cutoff: the broadcast's nominal end plus grace.
func (m *Machine) Deadline() time.Time { return m.at(m.deadlineOff()) }

// ChunkLen returns chunk idx's payload length (the tail chunk may be
// short).
func (m *Machine) ChunkLen(idx int) int {
	if rem := m.p.TotalBytes - idx*m.p.ChunkBytes; rem < m.p.ChunkBytes {
		return rem
	}
	return m.p.ChunkBytes
}

// PlayAt is when chunk idx's first byte is consumed by the player.
func (m *Machine) PlayAt(idx int) time.Time { return m.at(m.playOff(idx)) }

// LostBy is the point past which chunk idx can no longer play jitter-free;
// recovery gives up there (bounded by the receive cutoff for chunks whose
// playback lies far in the future).
func (m *Machine) LostBy(idx int) time.Time { return m.at(m.lostOff(idx)) }

// book marks chunk idx resolved.
func (m *Machine) book(idx int) {
	m.bits.set(idx)
	m.got++
}

// markLost books chunk idx as unrecoverable after rounds NACK rounds.
func (m *Machine) markLost(idx int, rounds uint8) {
	m.book(idx)
	m.stats.Lost++
	if m.p.OnLost != nil {
		m.p.OnLost(idx, int(rounds))
	}
}

// Next runs one recovery pass at time now: overdue chunks are declared
// lost, a NACK that is due is returned, and otherwise the next deadline
// to wake at.
// Drivers loop: act on the returned action, then call Next again with a
// fresh now until Done.
//
// The pass is incremental. A chunk's construction-time gap checkpoint,
// stripe-defeat instant and loss deadline are each non-decreasing in the
// chunk index, so the chunks that can need anything at time now are a
// prefix: the frontier cursor moves over that prefix once, parking each
// still-missing chunk in the active set, and every later untouched chunk
// can only contribute a wake time, the earliest of which belongs to the
// first of them. A call therefore costs the gaps actually open plus the
// chunks newly due, not the fragment — while returning exactly the
// action and wake time a scan of every chunk would (the differential
// test against that scan asserts it).
func (m *Machine) Next(now time.Time) Action {
	m.advance(now)
	sc := scan{next: m.Deadline()}
	live := m.active[:0]
	for i := range m.active {
		c := &m.active[i]
		if !m.resolved(c.idx) {
			m.visit(c, now, &sc)
		}
		if m.resolved(c.idx) {
			m.unsetListed(c.idx)
		} else {
			live = append(live, *c)
		}
	}
	m.active = live
	// A chunk with no room for an aggregation window NACKs at its ladder
	// start in a zero-length one: no jitter draw, and a bitmap shared only
	// with the chunks due at that same instant.
	if !sc.nackNow.IsZero() {
		m.stats.Nacks++
		return Action{Kind: ActNack, Chunks: m.fireNack(sc.nackNow, false, now)}
	}
	// Arm, then fire, the NACK aggregation window: one seeded-jittered
	// window gathers a whole burst of losses into one gap bitmap. The
	// window is anchored at the earliest due ladder start — a grid time —
	// not at the wall clock, and fireNack admits chunks by comparing
	// their ladder starts against the scheduled fire time, so which chunks
	// share a bitmap is a pure function of the loss pattern and the seed:
	// driver scheduling latency cannot split or merge bursts.
	if !sc.nackAnchor.IsZero() && m.nackAt.IsZero() {
		m.nackSeq++
		m.nackAt = sc.nackAnchor.Add(m.p.Jitter(NackJitterKey(m.p.Channel), m.nackSeq, m.p.NackWindow))
	}
	if !m.nackAt.IsZero() {
		if !now.Before(m.nackAt) {
			until := m.nackAt
			m.nackAt = time.Time{}
			if chunks := m.fireNack(until, true, now); len(chunks) > 0 {
				m.stats.Nacks++
				return Action{Kind: ActNack, Chunks: chunks}
			}
			// Everything the window covered healed before it fired: the
			// re-send another viewer's NACK triggered reached us first.
			m.stats.NacksSuppressed++
		} else if m.nackAt.Before(sc.next) {
			sc.next = m.nackAt
		}
	}
	return Action{Kind: ActWait, Wake: m.dormantWake(sc.next)}
}

// scan accumulates one Next pass over the active set: the earliest wake
// time seen, the earliest due ladder start of a chunk with room for an
// aggregation window (nackAnchor) and of one without (nackNow), zero for
// none.
type scan struct {
	next, nackAnchor, nackNow time.Time
}

// advance moves the frontier over every chunk that is resolved, already
// listed, or due — past its gap checkpoint or its loss deadline, the
// earliest instants at which an untouched chunk needs more than a wake
// time — listing the due ones. It stops at the first dormant chunk still
// ahead of both; by monotonicity every later dormant chunk is too. Only
// the frontier lists chunks, so the active set stays ascending.
func (m *Machine) advance(now time.Time) {
	off := now.Sub(m.p.Epoch)
	for ; m.frontier < m.nchunks; m.frontier++ {
		idx := m.frontier
		if m.resolved(idx) || m.listed(idx) {
			continue
		}
		if lb := m.lostOff(idx); off < m.checkpointOff(idx, lb) && off < lb {
			return
		}
		m.setListed(idx)
		m.active = append(m.active, m.dormant(idx))
	}
}

// visit gives one unresolved active chunk its recovery pass at time now,
// folding its next deadline and its NACK demand into sc.
func (m *Machine) visit(c *openChunk, now time.Time, sc *scan) {
	lb := m.LostBy(c.idx)
	if !now.Before(lb) {
		m.markLost(c.idx, c.tries)
		return
	}
	if !c.fecUntil.IsZero() {
		if now.Before(c.fecUntil) {
			// The parity stripe may still heal this chunk for free; the
			// ladder holds until the defeat instant.
			sc.wakeBy(c.fecUntil)
			sc.wakeBy(lb)
			return
		}
		// Stripe defeated: burst loss beyond its reach, or the parity
		// frame itself lost. The ladder starts here, at the defeat
		// instant — a grid time — so the aggregation window of a defeated
		// burst arms from stripe-defeat time, not first-gap time.
		if c.fecUntil.After(c.tryAt) {
			m.stats.StripeDefeats++
			c.tryAt = c.fecUntil
		}
		c.fecUntil = time.Time{}
	}
	if c.phase == nackWait && !now.Before(c.tryAt) {
		// The re-listen deadline passed without the re-send.
		m.escalateNack(c, now)
	}
	if c.phase == nackPre && !now.Before(c.tryAt) {
		switch {
		case m.p.RepairsEnabled != nil && !m.p.RepairsEnabled():
			c.phase = nackDone // rounds are off: ride the broadcast
		case m.ladderRoom(c):
			sc.nackAnchor = earliest(sc.nackAnchor, c.tryAt)
		default:
			sc.nackNow = earliest(sc.nackNow, c.tryAt)
		}
	}
	if c.phase != nackDone && now.Before(c.tryAt) {
		sc.wakeBy(c.tryAt)
	}
	sc.wakeBy(lb)
}

func (sc *scan) wakeBy(t time.Time) {
	if t.Before(sc.next) {
		sc.next = t
	}
}

// dormantWake folds the dormant chunks' deadlines into next. A dormant
// chunk is in its construction-time state with every deadline ahead, so
// all it asks of Next is a wake at the first of them: its stripe-defeat
// instant under a parity stripe, else its gap checkpoint when recovery is
// on, and always its loss deadline. Each is non-decreasing in the chunk
// index, so the first dormant chunk's wake is the earliest.
func (m *Machine) dormantWake(next time.Time) time.Time {
	idx := m.frontier
	for idx < m.nchunks && (m.resolved(idx) || m.listed(idx)) {
		idx++
	}
	if idx == m.nchunks {
		return next
	}
	lb := m.lostOff(idx)
	wake := lb
	if cp := m.checkpointOff(idx, lb); m.p.FecGroup > 0 {
		wake = min(wake, m.fecDefeatOff(idx, cp, lb))
	} else if !m.p.DisableRepair {
		wake = min(wake, cp)
	}
	if t := m.at(wake); t.Before(next) {
		return t
	}
	return next
}

// ChunkVerdict reports how an arriving broadcast chunk was booked.
type ChunkVerdict int

const (
	// Accepted: a fresh chunk, booked (and jitter-checked).
	Accepted ChunkVerdict = iota
	// Duplicate: already resolved; the retransmission was discarded.
	Duplicate
)

// Chunk books the broadcast arrival of chunk idx at time now. Data landing
// after its playback time plus slack counts as jitter.
func (m *Machine) Chunk(idx int, now time.Time) ChunkVerdict {
	if m.resolved(idx) {
		m.stats.Duplicates++
		return Duplicate
	}
	if m.listed(idx) && m.find(idx).phase == nackWait {
		// Healed by the multicast re-send while re-listening.
		m.stats.NackRepaired++
	}
	return m.arrive(idx, now)
}

// arrive books the fresh arrival of unresolved chunk idx at time now.
func (m *Machine) arrive(idx int, now time.Time) ChunkVerdict {
	m.book(idx)
	if now.Sub(m.p.Epoch) > m.playOff(idx)+m.p.Slack {
		m.stats.Late++
	}
	return Accepted
}

// FecHealed books chunk idx reconstructed locally from the parity
// stripe at time now. A heal is an arrival with zero control cost: it
// counts FecHeals, and — when it lands before the chunk's aggregation
// window ever armed — NacksSuppressed, with no nackPre state churn at
// all (the chunk was holding on the stripe, never in the window). A
// heal that lands after the ladder engaged is booked like a broadcast
// arrival (NackRepaired while re-listening, Late past playback).
func (m *Machine) FecHealed(idx int, now time.Time) ChunkVerdict {
	if m.resolved(idx) {
		m.stats.Duplicates++
		return Duplicate
	}
	m.stats.FecHeals++
	c := m.state(idx)
	if !c.fecUntil.IsZero() && c.phase != nackDone {
		// The stripe beat the window to it: one NACK that will now
		// never be sent.
		m.stats.NacksSuppressed++
	}
	if c.phase == nackWait {
		m.stats.NackRepaired++
	}
	return m.arrive(idx, now)
}
