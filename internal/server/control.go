// The control plane: serveControl carries a session's lines over its
// socket, and step decides each one — every verb, on the caller's clock.
// A lost broadcast datagram reaches nobody, so every injured cohort NACKs
// it at once; the first NACK is answered with one multicast re-send on
// the chunk's own group and the rest ride it, or repair would collapse
// under load the way per-client unicast does in the paper.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
	"skyscraper/internal/wire"
)

// hubSeam is what the server sends through and keeps memberships in: the
// hub, or a recording fake under tests. The wheel's shards are its only
// senders, each tick one SendBatch. Warm readies the send path for the
// next send and reaches no member (mcast.Hub.Warm).
type hubSeam interface {
	mcast.BatchSender
	Warm()
	Join(g mcast.Group, addr *net.UDPAddr) error
	Leave(g mcast.Group, addr *net.UDPAddr)
}

// member is one hub membership, keyed as the hub keys it: group and address.
type member struct {
	g    mcast.Group
	port int
}

func (m member) addr() *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: m.port} }

// controlSession is one control connection's state: the memberships it
// added.
type controlSession struct {
	s      *Server
	peer   string
	joined map[member]struct{}
}

func (s *Server) newSession(peer string) *controlSession {
	return &controlSession{s: s, peer: peer, joined: make(map[member]struct{})}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveControl(conn)
	}
}

// openConns snapshots the open control connections.
func (s *Server) openConns() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// serveControl carries one client's control session: it reads a line,
// lets the session's step decide it, and writes the reply. Closing the
// connection releases the session's memberships.
func (s *Server) serveControl(conn net.Conn) {
	defer s.connWG.Done()
	s.controlSessions.Inc()
	cs := s.newSession(conn.RemoteAddr().String())
	defer func() {
		cs.close()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.controlSessions.Dec()
	}()
	r := bufio.NewReader(conn)
	for done := false; !done; {
		var reply *wire.Control
		m, err := wire.ReadControl(r)
		switch {
		case errors.Is(err, wire.ErrBadControl):
			// A whole line that does not decode: the stream is still
			// framed, so it is an error reply, not a disconnect.
			reply = cs.fail("bad control message: %v", err)
		case err != nil:
			return // disconnect, or a line too long to keep the framing
		default:
			reply, done = cs.step(s.clock.now(), m)
		}
		if reply != nil {
			// Deadline-bounded, so a client that stops draining its
			// socket cannot wedge the handler.
			_ = conn.SetWriteDeadline(time.Now().Add(controlWriteTimeout))
			if wire.WriteControl(conn, reply) != nil {
				return
			}
		}
	}
}

// Drain shuts the server down gracefully: it stops accepting connections,
// notifies every control client with a server-initiated bye (so clients
// switch to degraded playback instead of retrying repairs against a dying
// server), lets in-flight control handlers finish, then closes. If ctx
// expires first, remaining handlers are cut off by Close and the context
// error is returned. Drain is idempotent and safe to race with Close.
func (s *Server) Drain(ctx context.Context) error {
	first := !s.draining.Swap(true)
	s.ln.Close() // stop accepting; acceptLoop exits

	conns := s.openConns()
	if first {
		s.cfg.Logf("server: draining: closed listener, notifying %d control clients", len(conns))
	}
	for _, c := range conns {
		// The bye is one write syscall, serialized with any in-flight
		// handler reply by the socket's write lock, so lines never
		// interleave. The immediate read deadline then wakes a handler
		// blocked in ReadControl; one mid-request keeps running and
		// finishes its reply under its own write deadline.
		_ = c.SetWriteDeadline(time.Now().Add(controlWriteTimeout))
		_ = wire.WriteControl(c, &wire.Control{Kind: wire.KindBye})
		_ = c.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.Close()
	return err
}

// step answers one control message at now: the reply to write (nil for
// Leave and Bye) and whether the session is over. KindError never ends it.
func (cs *controlSession) step(now time.Time, m *wire.Control) (reply *wire.Control, done bool) {
	s, sch := cs.s, cs.s.cfg.Scheme
	switch m.Kind {
	case wire.KindHello:
		return &wire.Control{Kind: wire.KindWelcome, Welcome: &wire.Welcome{
			Videos:           sch.Config().Videos,
			ChannelsPerVideo: sch.K(),
			Width:            sch.Width(),
			UnitNanos:        int64(s.cfg.Unit),
			EpochUnixNano:    s.epoch.UnixNano(),
			SizeUnits:        append([]int64(nil), sch.Sizes()...),
			BytesPerUnit:     s.cfg.BytesPerUnit,
			ChunkBytes:       s.cfg.ChunkBytes,
			FecGroup:         s.cfg.FecGroup,
		}}, false
	case wire.KindJoin:
		if !s.hasChannel(m.Video, m.Channel) {
			return cs.fail("join: no channel %d/%d", m.Video, m.Channel), false
		}
		if m.Port <= 0 || m.Port > 65535 {
			return cs.fail("join: bad port %d", m.Port), false
		}
		// Counted per session, so sessions sharing an address share it;
		// asked of the hub every time, so a member it evicted comes back.
		mb := member{mcast.Group{Video: m.Video, Channel: m.Channel}, m.Port}
		s.mu.Lock()
		err := s.send.Join(mb.g, mb.addr())
		if _, ok := cs.joined[mb]; !ok && err == nil {
			s.held[mb]++
			cs.joined[mb] = struct{}{}
		}
		s.mu.Unlock()
		if err != nil {
			return cs.fail("join: %v", err), false
		}
		return &wire.Control{Kind: wire.KindJoined, Video: m.Video, Channel: m.Channel}, false
	case wire.KindRepair:
		return cs.repair(now, m.Repair), false
	case wire.KindNack:
		return cs.nack(now, m.Nack), false
	case wire.KindStats:
		doc, err := json.Marshal(s.Status())
		if err != nil {
			return cs.fail("stats: %v", err), false
		}
		return &wire.Control{Kind: wire.KindStatsOK, Stats: doc}, false
	case wire.KindLeave:
		// Every address the session joined the group on.
		for mb := range cs.joined {
			if mb.g == (mcast.Group{Video: m.Video, Channel: m.Channel}) {
				cs.release(mb)
			}
		}
		return nil, false
	case wire.KindBye:
		return nil, true
	}
	return cs.fail("unknown control kind %q", m.Kind), false
}

// fail logs a refused request and returns its KindError reply.
func (cs *controlSession) fail(format string, args ...any) *wire.Control {
	msg := fmt.Sprintf(format, args...)
	cs.s.cfg.Logf("server: %s: %s", cs.peer, msg)
	return &wire.Control{Kind: wire.KindError, Error: msg}
}

// release drops mb from the session, and from the hub with its last holder.
func (cs *controlSession) release(mb member) {
	s := cs.s
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(cs.joined, mb)
	if s.held[mb]--; s.held[mb] <= 0 {
		delete(s.held, mb)
		s.send.Leave(mb.g, mb.addr())
	}
}

// close releases every membership the session holds.
func (cs *controlSession) close() {
	for mb := range cs.joined {
		cs.release(mb)
	}
}

// hasChannel reports whether (video, channel) names a broadcast channel.
func (s *Server) hasChannel(video, channel int) bool {
	return video >= 0 && video < s.cfg.Scheme.Config().Videos && channel >= 1 && channel <= s.cfg.Scheme.K()
}

// repair answers one unicast chunk repair from the content function —
// repairs need no retransmission buffer — within the shared repair byte
// budget; over it, the reply is Busy with a retry-after hint.
func (cs *controlSession) repair(now time.Time, rp *wire.Repair) *wire.Control {
	s := cs.s
	if rp == nil {
		return cs.fail("repair: missing parameters")
	}
	if !s.hasChannel(rp.Video, rp.Channel) {
		return cs.fail("repair: no channel %d/%d", rp.Video, rp.Channel)
	}
	total := s.fragmentBytes(rp.Channel)
	// Compared on the fragment's side: Offset+Length can overflow.
	if rp.Length <= 0 || rp.Length > wire.MaxPayload || rp.Offset < 0 || rp.Offset > int64(total)-int64(rp.Length) {
		return cs.fail("repair: bad range [%d, +%d) of %d-byte fragment", rp.Offset, rp.Length, total)
	}
	if s.repairBudget != nil {
		if ok, retry := s.repairBudget.Take(now, float64(rp.Length)); !ok {
			s.busyReplies.Inc()
			return &wire.Control{Kind: wire.KindBusy, RetryAfterNanos: int64(retry)}
		}
	}
	reply := *rp
	reply.Data = make([]byte, rp.Length)
	content.Fill(reply.Data, rp.Video, s.cache.channel(rp.Video, rp.Channel).base+rp.Offset)
	s.repairs.Inc()
	s.repairBytes.Add(int64(rp.Length))
	return &wire.Control{Kind: wire.KindRepairOK, Repair: &reply}
}

// nack answers one cohort's gap bitmap (its shape checked by ReadControl):
// the accepted chunks are queued to be re-sent once on the channel's own
// group — one send heals every injured member — and the NackOK marks
// them; it does not wait for the send.
func (cs *controlSession) nack(now time.Time, nk *wire.Nack) *wire.Control {
	s := cs.s
	if !s.hasChannel(nk.Video, nk.Channel) {
		return cs.fail("nack: no channel %d/%d", nk.Video, nk.Channel)
	}
	cb, total := s.cfg.ChunkBytes, s.fragmentBytes(nk.Channel)
	chunks := nk.Chunks()
	if first, last := chunks[0], chunks[len(chunks)-1]; first < 0 || last < 0 || last >= (total+cb-1)/cb {
		return cs.fail("nack: chunks %d..%d outside %d-chunk fragment", first, last, (total+cb-1)/cb)
	}
	if period := time.Duration(s.cfg.Scheme.Sizes()[nk.Channel-1]) * s.cfg.Unit; !repetitionLive(nk.Seq, period, s.cfg.Unit, now.Sub(s.epoch)) {
		return cs.fail("nack: repetition %d of channel %d/%d is not on the air", nk.Seq, nk.Video, nk.Channel)
	}
	s.nacksServed.Inc()
	accepted := &wire.Nack{Video: nk.Video, Channel: nk.Channel, Seq: nk.Seq,
		BaseChunk: nk.BaseChunk, Bitmap: make([]byte, len(nk.Bitmap))}
	resend := chunks[:0]
	for _, chunk := range chunks {
		// A fresh re-send spends the repair byte budget like any repair;
		// a refused chunk stays unmarked and the client asks again at
		// most in a later round, so an over-budget plane degrades, not
		// amplifies. One already in flight is ridden: the client just
		// keeps re-listening.
		k := resendKey{video: nk.Video, channel: nk.Channel, seq: nk.Seq, chunk: chunk}
		accept, fresh := s.resends.note(k, now, s.repairBudget, min(cb, total-chunk*cb))
		switch {
		case fresh:
			resend = append(resend, chunk)
		case accept:
			s.nackSuppressed.Inc()
		default:
			continue
		}
		accepted.Set(chunk)
	}
	if len(resend) > 0 {
		s.nackResend(nk.Video, nk.Channel, nk.Seq, resend)
	}
	return &wire.Control{Kind: wire.KindNackOK, Nack: accepted}
}

// resendKey identifies what one multicast re-send heals: a chunk of one
// broadcast repetition. The repetition is part of the key because the
// re-send carries the requester's Seq and a receiver drops frames of any
// other repetition as strays — a re-send for repetition n heals nobody
// waiting on n+1, however close in time the two NACKs are.
type resendKey struct {
	video, channel int
	seq            uint32
	chunk          int
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

// resendTable remembers when each chunk was last re-sent: a NACK, already
// a whole cohort's voice, re-sends the chunk unless a window is open for
// it, and rides that window if one is. Safe for concurrent use.
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
		for k, at := range t.sent { // drop expired windows
			if now.Sub(at) > t.window {
				delete(t.sent, k)
			}
		}
		t.sweepAt = max(resendTableCap, 2*len(t.sent))
	}
	t.sent[k] = now
	return true, true
}

// nackResend queues one NACK's fresh chunks on the wheel shard that owns
// the channel and pokes it: the shard builds them into its own arena
// under the requester's Seq and sends them in its next release — at once
// if it is parked, with or right behind the tick it is staging or holding
// otherwise (wheelShard.stageResends).
func (s *Server) nackResend(video, channel int, seq uint32, chunks []int) {
	sh, e := s.entry(video, channel)
	sh.resendMu.Lock()
	for _, chunk := range chunks {
		sh.resends = append(sh.resends, resend{e: e, seq: seq, chunk: chunk})
	}
	sh.resendMu.Unlock()
	s.nackResends.Add(int64(len(chunks)))
	sh.poke()
}
