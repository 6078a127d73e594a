// Repair-plane admission control: the storm-coalescing table that turns
// correlated unicast repair bursts back into multicast, and the server-side
// re-send it triggers.
//
// The paper's core argument is that per-client unicast collapses under
// metropolitan load; the repair plane inherits the same failure mode in
// miniature. A transient fault that hits a whole neighborhood (a dropped
// broadcast datagram reaches nobody) makes every affected client pull the
// same chunk over TCP at once. Instead of serving N identical unicasts, the
// server answers the storm once on the chunk's own broadcast group and
// tells the queued clients to re-listen — restoring the multicast economics
// the scheme is built on.
package server

import (
	"sync"
	"time"

	"skyscraper/internal/mcast"
)

// stormKey identifies one broadcast chunk: the unit of storm coalescing.
// Only chunk-aligned, full-chunk repair requests participate — exactly the
// shape a client recovering a lost datagram sends.
type stormKey struct {
	video   int
	channel int
	chunk   int
}

// stormVerdict is the admission decision for one repair request.
type stormVerdict int

const (
	// stormPass: below threshold; serve the unicast normally.
	stormPass stormVerdict = iota
	// stormResend: this request crossed the threshold — answer the whole
	// storm with one multicast re-send and tell this client to re-listen.
	stormResend
	// stormSuppress: the window's re-send already happened; tell this
	// client to re-listen without re-sending again.
	stormSuppress
)

// stormTableCap bounds the table; reaching it triggers a sweep of expired
// windows so a long-running server's table cannot grow without bound.
const stormTableCap = 4096

// stormState is one chunk's active coalescing window.
type stormState struct {
	windowStart time.Time
	// conns are the distinct control connections that asked for the chunk
	// this window: the storm signal is many *clients*, not one client
	// retrying.
	conns  map[int64]struct{}
	resent bool
}

// stormTable counts distinct-client repair requests per chunk within a
// sliding window and decides when a burst should coalesce into one
// multicast re-send. Safe for concurrent use.
type stormTable struct {
	mu        sync.Mutex
	threshold int
	window    time.Duration
	states    map[stormKey]*stormState
}

func newStormTable(threshold int, window time.Duration) *stormTable {
	return &stormTable{
		threshold: threshold,
		window:    window,
		states:    make(map[stormKey]*stormState),
	}
}

// note records that connID requested k at now and returns the admission
// verdict for that request.
func (t *stormTable) note(k stormKey, connID int64, now time.Time) stormVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[k]
	if st == nil || now.Sub(st.windowStart) > t.window {
		if len(t.states) >= stormTableCap {
			t.sweepLocked(now)
		}
		st = &stormState{windowStart: now, conns: make(map[int64]struct{}, t.threshold)}
		t.states[k] = st
	}
	st.conns[connID] = struct{}{}
	if len(st.conns) < t.threshold {
		return stormPass
	}
	if !st.resent {
		st.resent = true
		return stormResend
	}
	return stormSuppress
}

// noteNack records a NACK for chunk k and reports whether the server
// should multicast a re-send now. Unlike note, it needs no distinct-client
// threshold: a NACK is already the aggregated voice of a whole cohort, so
// the first one in a window triggers the re-send and every later one for
// the same chunk is absorbed — the requester just keeps re-listening. A
// window opened by unicast requests counts too: if its re-send already
// happened, the NACK rides it.
func (t *stormTable) noteNack(k stormKey, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[k]
	if st == nil || now.Sub(st.windowStart) > t.window {
		if len(t.states) >= stormTableCap {
			t.sweepLocked(now)
		}
		st = &stormState{windowStart: now, conns: make(map[int64]struct{})}
		t.states[k] = st
	}
	if st.resent {
		return false
	}
	st.resent = true
	return true
}

// sweepLocked drops expired windows. Callers hold mu.
func (t *stormTable) sweepLocked(now time.Time) {
	for k, st := range t.states {
		if now.Sub(st.windowStart) > t.window {
			delete(t.states, k)
		}
	}
}

// resend multicasts chunks of (video, channel) under the requester's Seq on
// the channel's own broadcast group — the server half of both coalescing
// mechanisms. Two deliberate asymmetries with the normal data path:
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
func (s *Server) resend(what string, video, channel int, seq uint32, chunks []int, a *frameArena) {
	cc := s.cache.channel(video, channel)
	g := mcast.Group{Video: video, Channel: channel}
	a.reset() // the connection's previous re-send has returned
	entries := make([]mcast.BatchEntry, len(chunks))
	for i, chunk := range chunks {
		entries[i] = mcast.BatchEntry{Group: g, Frame: s.cache.materialise(a, cc, chunk, seq)}
	}
	if _, err := s.hub.SendRepairBatch(entries); err != nil {
		s.cfg.Logf("server: %s re-send %v: %v", what, g, err)
	}
}

// stormResend answers a coalesced repair storm once, for every client
// that asked.
func (s *Server) stormResend(video, channel, chunk int, seq uint32, a *frameArena) {
	s.resend("storm", video, channel, seq, []int{chunk}, a)
	s.stormResends.Inc()
}

// nackResend answers one NACK's accepted chunks with a batched multicast
// re-send: one vectorized dispatch heals the whole injured audience.
func (s *Server) nackResend(video, channel int, seq uint32, chunks []int, a *frameArena) {
	s.resend("nack", video, channel, seq, chunks, a)
	s.nackResends.Add(int64(len(chunks)))
}
