// Repair-plane admission: the NACK re-send table that answers a lost
// chunk once on its own broadcast group however many cohorts report it,
// and the server-side re-send itself.
//
// The paper's core argument is that per-client unicast collapses under
// metropolitan load; the repair plane inherits the same failure mode in
// miniature. A transient fault that hits a whole neighborhood (a dropped
// broadcast datagram reaches nobody) makes every injured cohort report the
// same chunk at once. Instead of one re-send per report, the server
// answers the first NACK once on the chunk's own broadcast group and
// absorbs the rest — restoring the multicast economics the scheme is built
// on.
package server

import (
	"sync"
	"time"

	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
)

// resendKey identifies what one multicast re-send heals: a chunk of one
// broadcast repetition. The repetition is part of the key because the
// re-send carries the requester's Seq and a receiver drops frames of any
// other repetition as strays — a re-send for repetition n heals nobody
// waiting on n+1, however close in time the two NACKs are.
type resendKey struct {
	video   int
	channel int
	seq     uint32
	chunk   int
}

// resendTableCap is the table size at which inserts start sweeping
// expired windows, so a long-running server's table cannot grow unbounded.
const resendTableCap = 4096

// nackLateUnits is how long past a repetition's end the server still
// answers NACKs for it: two units past a viewer's receive cutoff
// (viewer.DefaultGraceUnits), for control-plane delay.
const nackLateUnits = 8

// repetitionLive reports whether a viewer can still be receiving
// repetition seq of a channel of the given period at elapsed past the
// epoch: begun, give or take a unit of clock skew, and over at most
// nackLateUnits ago. Seq keys the re-send table, so the server answers
// only live repetitions, or one connection could open windows — and
// trigger re-sends — without limit.
func repetitionLive(seq uint32, period, unit, elapsed time.Duration) bool {
	n, late := int64(seq), elapsed-nackLateUnits*unit
	return n <= int64((elapsed+unit)/period) && (late < 0 || n >= int64(late/period))
}

// resendTable remembers when each chunk was last re-sent and absorbs the
// NACKs that arrive within one window of it. A NACK is already the
// aggregated voice of a whole cohort, so the first one in a window
// triggers the re-send and every later one for the same key rides it —
// the requester just keeps re-listening. Safe for concurrent use.
type resendTable struct {
	mu     sync.Mutex
	window time.Duration
	sent   map[resendKey]time.Time
	// sweepAt is where the next insert sweeps: resendTableCap, or twice
	// what the last sweep left, so live windows are not rescanned per insert.
	sweepAt int
}

func newResendTable(window time.Duration) *resendTable {
	return &resendTable{window: window, sent: make(map[resendKey]time.Time), sweepAt: resendTableCap}
}

// note records a NACK for k at now. accept reports whether the requester
// is covered, resend whether this NACK must send the chunk: a window still
// open for k accepts without a re-send; otherwise the chunk's bytes are
// taken from budget (nil means unlimited) and, if it has them, a window
// opens and the chunk is re-sent. The budget is asked under the table's
// lock, so a chunk it refuses is never seen as in flight.
func (t *resendTable) note(k resendKey, now time.Time, budget *metrics.TokenBucket, bytes int) (accept, resend bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if at, ok := t.sent[k]; ok && now.Sub(at) <= t.window {
		return true, false
	}
	if budget != nil {
		if ok, _ := budget.Take(now, float64(bytes)); !ok {
			return false, false
		}
	}
	if len(t.sent) >= t.sweepAt {
		t.sweepLocked(now)
		t.sweepAt = max(resendTableCap, 2*len(t.sent))
	}
	t.sent[k] = now
	return true, true
}

// sweepLocked drops expired windows. Callers hold mu.
func (t *resendTable) sweepLocked(now time.Time) {
	for k, at := range t.sent {
		if now.Sub(at) > t.window {
			delete(t.sent, k)
		}
	}
}

// nackResend answers one NACK's accepted chunks with a batched multicast
// re-send under the requester's Seq on the channel's own broadcast group:
// one vectorized dispatch heals the whole injured audience. Two deliberate
// asymmetries with the normal data path:
//
//   - It sends through the hub directly, not s.send: the fault injector's
//     drop decisions are deterministic per chunk position, so routing the
//     re-send through it would re-drop exactly the chunk whose loss caused
//     the request.
//   - The frames are materialised afresh into the calling connection's own
//     arena: nothing the egress shards are building is read or written
//     here, so a re-send cannot race a dispatch.
//
// The dispatch goes through the hub's repair batch path, so re-sends
// share the sendmmsg/batching ledger with scheduled egress and show up in
// the repair-datagram ledger.
func (s *Server) nackResend(video, channel int, seq uint32, chunks []int, a *frameArena) {
	cc := s.cache.channel(video, channel)
	g := mcast.Group{Video: video, Channel: channel}
	a.reset() // the connection's previous re-send has returned
	entries := make([]mcast.BatchEntry, len(chunks))
	for i, chunk := range chunks {
		entries[i] = mcast.BatchEntry{Group: g, Frame: s.cache.materialise(a, cc, chunk, seq)}
	}
	if _, err := s.hub.SendRepairBatch(entries); err != nil {
		s.cfg.Logf("server: nack re-send %v: %v", g, err)
	}
	s.nackResends.Add(int64(len(chunks)))
}
