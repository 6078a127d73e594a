package viewer

import "time"

// The NACK ladder makes recovery multicast-first: a missing chunk is
// reported to the server as part of an aggregated gap bitmap (one control
// message for a burst of losses), the server re-multicasts the chunks on
// their broadcast group, and the whole injured cohort heals off one
// re-send. Unicast KindRepair remains the deadline-bounded last resort.
//
// Per chunk the ladder is a three-phase escalation:
//
//	nackPre  — missing, not yet reported; past its gap checkpoint it joins
//	           the next aggregation window.
//	nackWait — reported; the machine re-listens on the broadcast group for
//	           the multicast re-send until a clamped re-listen deadline.
//	nackDone — the ladder is exhausted (or disabled); the chunk belongs to
//	           unicast repair (ActRepair), pulled once for the cohort.
//
// The aggregation window is armed once per burst with a seeded full-jitter
// draw, so the viewers of different cohorts desynchronize their NACKs the
// same way repair retries already desynchronize — and a window that fires
// after the re-send (triggered by some other viewer's NACK) has already
// healed every gap is suppressed entirely: silence is the common case in a
// large audience, which is what keeps control traffic O(cohorts).
const (
	nackPre uint8 = iota
	nackWait
	nackDone
)

// DefaultMaxNackRounds caps how many aggregation windows one chunk may
// join before the ladder hands it to the unicast plane.
const DefaultMaxNackRounds = 3

// NackJitterKey is the jitter substream key for channel's NACK
// aggregation windows. Bit 63 keeps the NACK site disjoint from every
// RepairJitterKey (channel<<32|chunk, both 32-bit) and from
// ReconnectJitterKey, so a viewer seed never correlates its NACK timing
// with its unicast backoff.
func NackJitterKey(channel int) uint64 {
	return 1<<63 | uint64(uint32(channel))
}

// escalateNack moves a chunk on from an expired re-listen deadline: back
// to nackPre for another round when tries and deadline room remain,
// otherwise to the unicast plane, due immediately either way.
func (m *Machine) escalateNack(c *openChunk, now time.Time) {
	if int(c.tries) < m.p.MaxNackRounds &&
		m.LostBy(c.idx).Sub(now) > m.p.NackWindow+2*m.spacing {
		c.phase = nackPre
	} else {
		c.phase = nackDone
	}
	c.tryAt = now
}

// relistenBy is how long a NACKed chunk waits on the broadcast group for
// its multicast re-send: two chunk intervals (the wait RepairResult gives
// a zero-hint Busy), clamped so a unicast round trip still fits before
// the loss deadline — but never below half an interval, because the
// re-send is already in flight and racing it with a unicast pull would
// only manufacture duplicates.
func (m *Machine) relistenBy(idx int, now time.Time) time.Time {
	t := now.Add(2 * m.spacing)
	if latest := m.LostBy(idx).Add(-m.spacing); t.After(latest) {
		t = latest
	}
	if floor := now.Add(m.spacing / 2); t.Before(floor) {
		t = floor
	}
	return t
}

// fireNack closes the aggregation window that was scheduled to fire at
// until (not after now, so every candidate is past its checkpoint and in
// the active set): every missing chunk whose checkpoint is at or before until and
// under its round cap moves to nackWait with a provisional re-listen
// deadline, and the collected indices (ascending) form the gap bitmap.
// Admission compares checkpoints against the scheduled fire time, not the
// wall clock, so the grouping is deterministic however late the driver
// runs this pass. An empty collection means the window was suppressed —
// the re-send some other viewer triggered healed the burst first.
func (m *Machine) fireNack(until, now time.Time) []int {
	var chunks []int
	for i := range m.active {
		c := &m.active[i]
		if m.resolved(c.idx) || c.phase != nackPre || c.tryAt.After(until) ||
			int(c.tries) >= m.p.MaxNackRounds {
			continue
		}
		c.tries++
		c.phase = nackWait
		c.tryAt = m.relistenBy(c.idx, now)
		chunks = append(chunks, c.idx)
	}
	return chunks
}

// NackResult applies the server's reply to one ActNack round trip.
// accepted reports whether a chunk's re-send was admitted (nil when the
// round trip failed outright): admitted chunks keep re-listening with a
// deadline refreshed past the reply, refused ones escalate to the unicast
// plane immediately.
func (m *Machine) NackResult(chunks []int, accepted func(idx int) bool, now time.Time) {
	for _, idx := range chunks {
		if idx < 0 || idx >= m.nchunks || m.resolved(idx) || !m.listed(idx) {
			continue
		}
		c := m.find(idx)
		if c.phase != nackWait {
			continue
		}
		if accepted != nil && accepted(idx) {
			c.tryAt = m.relistenBy(idx, now)
			continue
		}
		c.phase = nackDone
		c.tryAt = now
	}
}
