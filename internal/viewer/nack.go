package viewer

import "time"

// The NACK ladder is the one reactive recovery rung, above the parity
// stripe: a missing chunk is reported to the server as part of a gap
// bitmap (one control message for a burst of losses), the server
// re-multicasts the chunks on their broadcast group, and the whole
// injured cohort heals off one re-send.
//
// Per chunk the ladder is a three-phase escalation:
//
//	nackPre  — missing, not yet reported; from its ladder start (its gap
//	           checkpoint, or its stripe-defeat instant under a stripe) it
//	           joins the next round.
//	nackWait — reported; the machine re-listens on the broadcast group for
//	           the multicast re-send until a clamped re-listen deadline.
//	nackDone — rounds spent, no room for another, or recovery off; the
//	           chunk rides the broadcast to its loss deadline.
//
// A chunk whose loss deadline leaves room for one (ladderRoom) joins an
// aggregation window armed once per burst with a seeded full-jitter draw,
// so the viewers of different cohorts desynchronize their NACKs — and a
// window that fires after the re-send (triggered by some other viewer's
// NACK) has already healed every gap is suppressed entirely: silence is
// the common case in a large audience, which is what keeps control
// traffic O(cohorts). A chunk without that room — the just-in-time
// channels — NACKs at its ladder start in a zero-length window, with the
// chunks due at the same instant.
const (
	nackPre uint8 = iota
	nackWait
	nackDone
)

// DefaultMaxNackRounds caps how many rounds one chunk may join before it
// rides the broadcast to its loss deadline.
const DefaultMaxNackRounds = 3

// NackJitterKey is the jitter substream key for channel's NACK
// aggregation windows. Bit 63 keeps the NACK site disjoint from
// ReconnectJitterKey.
func NackJitterKey(channel int) uint64 {
	return 1<<63 | uint64(uint32(channel))
}

// ladderRoom reports whether nackPre chunk c, due at c.tryAt, has room for
// an aggregation window before its loss deadline: the worst-case window
// fire plus a re-listen that still ends a full chunk interval before the
// deadline (relistenBy's floor is half an interval), so even a lost
// re-send leaves time for another round. A first round compares grid
// times — c.tryAt is its gap checkpoint or stripe-defeat instant — so the
// choice is a pure function of the broadcast geometry, never of driver
// scheduling.
func (m *Machine) ladderRoom(c *openChunk) bool {
	return m.LostBy(c.idx).Sub(c.tryAt) > m.p.NackWindow+m.spacing*3/2
}

// escalateNack moves a chunk on from an expired re-listen deadline: back
// to nackPre, due at once, when it has rounds left and more than a chunk
// interval before its loss deadline; otherwise it rides the broadcast.
func (m *Machine) escalateNack(c *openChunk, now time.Time) {
	c.phase, c.tryAt = nackDone, now
	if int(c.tries) < m.p.MaxNackRounds && m.LostBy(c.idx).Sub(now) > m.spacing {
		c.phase = nackPre
	}
}

// relistenBy is how long a NACKed chunk waits on the broadcast group for
// its multicast re-send: two chunk intervals, clamped to end a chunk
// interval before the loss deadline so another round still fits — but
// never below half an interval, the re-send being already in flight.
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

// fireNack closes the window that was scheduled to fire at until (not
// after now, so every candidate is in the active set): every missing
// nackPre chunk of the window's kind — with room for an aggregation window
// when windowed, without it otherwise — whose ladder start is at or before
// until moves to nackWait with a provisional re-listen deadline, and the
// collected indices (ascending) form the gap bitmap. Admission compares
// ladder starts against the scheduled fire time, not the wall clock, so
// the grouping is deterministic however late the driver runs this pass.
// An empty collection means the window was suppressed — the re-send some
// other viewer triggered healed the burst first.
func (m *Machine) fireNack(until time.Time, windowed bool, now time.Time) []int {
	var chunks []int
	for i := range m.active {
		c := &m.active[i]
		if m.resolved(c.idx) || c.phase != nackPre || c.tryAt.After(until) || m.ladderRoom(c) != windowed {
			continue
		}
		c.tries++
		c.phase = nackWait
		c.tryAt = m.relistenBy(c.idx, now)
		chunks = append(chunks, c.idx)
	}
	return chunks
}

// NackResult applies the reply to one ActNack round trip, received at now:
// every chunk still re-listening has its deadline refreshed past the
// reply. Chunks the server refused, and every chunk of a round trip that
// failed, are treated alike — no re-send is coming, so the chunk re-enters
// the ladder when the refreshed deadline expires, if a round and the room
// for it are left; the re-listen is the pause before it asks again.
func (m *Machine) NackResult(chunks []int, now time.Time) {
	for _, idx := range chunks {
		if idx < 0 || idx >= m.nchunks || m.resolved(idx) || !m.listed(idx) {
			continue
		}
		if c := m.find(idx); c.phase == nackWait {
			c.tryAt = m.relistenBy(idx, now)
		}
	}
}
