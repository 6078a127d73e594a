// Package server implements the live Skyscraper Broadcasting server of the
// demo: for each of the M videos it broadcasts K channels, each repeating
// its fragment — chunked, framed (internal/wire) and fanned out through
// the multicast hub (internal/mcast) — on a rigid absolute schedule:
// channel i's broadcasts start at epoch + n*size_i*unit for all n, which
// is the alignment property the client's two-loader reception plan depends
// on. One engine drives every channel's schedule: the sharded timer wheel
// of wheel.go. A TCP control port handles the hello/join/leave signalling
// a real deployment would delegate to IGMP.
//
// Video minutes are compressed into short wall-clock units so examples and
// tests can play whole "two-hour" videos in seconds.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
	"skyscraper/internal/wire"
)

// Config parameterizes a live broadcast server.
type Config struct {
	// Scheme is the SB configuration to broadcast (K channels per video,
	// fragment sizes, M videos).
	Scheme *core.Scheme
	// Unit is the wall-clock duration of one D1 unit.
	Unit time.Duration
	// BytesPerUnit is the payload density: a fragment of s units carries
	// s*BytesPerUnit bytes.
	BytesPerUnit int
	// ChunkBytes is the data-chunk payload size; it must divide
	// BytesPerUnit so chunk boundaries never straddle units.
	ChunkBytes int
	// Faults, when non-nil, interposes the deterministic fault injector
	// of internal/faults between the egress shards and the multicast
	// hub: chunks are dropped, duplicated, reordered, or delayed per the
	// plan, so the client's loss-recovery path can be exercised.
	Faults *faults.Plan
	// ControlIdleTimeout bounds how long a control connection may sit
	// idle between requests before the server reaps it (and its group
	// memberships); a half-open client therefore cannot pin a handler
	// goroutine forever. Defaults to 2 minutes.
	ControlIdleTimeout time.Duration
	// EnablePprof registers net/http/pprof's profiling handlers on the
	// status endpoint's mux (ServeStatus) under /debug/pprof/.
	EnablePprof bool

	// RepairBandwidth caps the repair plane — unicast repair replies and
	// NACK-triggered multicast re-sends alike — at this many repair
	// payload bytes per second, enforced by a token bucket; an over-budget
	// unicast request is refused with a Busy reply carrying a retry-after
	// hint instead of being queued, an over-budget NACKed chunk is left
	// unaccepted. 0 means unlimited. Size it with
	// unicast.RepairBandwidthBytes from the expected loss rate and session
	// count.
	RepairBandwidth int64
	// RepairBurstBytes is the repair token bucket's depth. Defaults to a
	// quarter second of RepairBandwidth, but at least one chunk.
	RepairBurstBytes int64

	// SendBufBytes sizes the multicast hub's kernel send buffer
	// (SetWriteBuffer); batched egress hands the kernel bursts of up to
	// 64 datagrams per syscall, and a default-sized buffer drops burst
	// tails under load. 0 leaves the OS default.
	SendBufBytes int
	// RecvBufBytes sizes the hub socket's kernel receive buffer
	// (SetReadBuffer); only error traffic lands there. 0 leaves the OS
	// default.
	RecvBufBytes int

	// FecGroup enables the proactive parity stripe: every transmission
	// group of FecGroup data chunks is followed by one XOR parity frame
	// (wire.KindParity), as long as a data frame and materialised the way
	// the chunks are (see frameCache), so a receiver heals a single lost
	// datagram per group locally with zero control round trips. 0 (the
	// default) disables the stripe; otherwise it must lie in
	// [2, wire.MaxFecGroup]. Receivers learn the stripe width from the
	// Welcome banner.
	FecGroup int
	// FecMode names the stripe's code: "" or "xor", the only one. Kept for
	// benchmark/harness, which sets it; the harness follow-up of ROADMAP
	// item 3(c) deletes it.
	FecMode string

	// PacerHook, when non-nil, is called for each chunk at its tick's
	// instant — after the shard has staged the tick and held on the clock
	// to the instant, before the tick's batch is sent — test
	// instrumentation; a hook that panics exercises the shard supervisor.
	PacerHook func(video, channel int, rep uint32, chunk int)

	// Logf, when non-nil, receives diagnostic output.
	Logf func(format string, args ...any)
}

// controlWriteTimeout bounds each control reply write, and Drain's bye.
const controlWriteTimeout = 10 * time.Second

func (c Config) validate() error {
	switch {
	case c.Scheme == nil:
		return errors.New("server: nil scheme")
	case c.Unit < time.Millisecond:
		return fmt.Errorf("server: unit %v too small to pace over UDP", c.Unit)
	case c.BytesPerUnit <= 0:
		return fmt.Errorf("server: BytesPerUnit = %d must be positive", c.BytesPerUnit)
	case c.ChunkBytes <= 0 || c.ChunkBytes > wire.MaxPayload:
		return fmt.Errorf("server: ChunkBytes = %d outside (0, %d]", c.ChunkBytes, wire.MaxPayload)
	case c.BytesPerUnit%c.ChunkBytes != 0:
		return fmt.Errorf("server: ChunkBytes %d must divide BytesPerUnit %d", c.ChunkBytes, c.BytesPerUnit)
	case c.RepairBandwidth < 0:
		return fmt.Errorf("server: RepairBandwidth = %d must be non-negative", c.RepairBandwidth)
	case c.RepairBurstBytes < 0:
		return fmt.Errorf("server: RepairBurstBytes = %d must be non-negative", c.RepairBurstBytes)
	case c.SendBufBytes < 0:
		return fmt.Errorf("server: SendBufBytes = %d must be non-negative", c.SendBufBytes)
	case c.RecvBufBytes < 0:
		return fmt.Errorf("server: RecvBufBytes = %d must be non-negative", c.RecvBufBytes)
	case c.FecGroup != 0 && (c.FecGroup < 2 || c.FecGroup > wire.MaxFecGroup):
		return fmt.Errorf("server: FecGroup = %d outside {0} ∪ [2, %d]", c.FecGroup, wire.MaxFecGroup)
	case c.FecMode != "" && c.FecMode != "xor":
		return fmt.Errorf("server: FecMode = %q, want \"\" or \"xor\"", c.FecMode)
	case c.FecMode != "" && c.FecGroup == 0:
		return fmt.Errorf("server: FecMode = %q requires FecGroup > 0", c.FecMode)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	return nil
}

// Server is a running broadcast server. Create with New, start with Start,
// stop with Close.
type Server struct {
	cfg Config
	hub *mcast.Hub
	// send is what scheduled egress goes through, a tick at a time: the
	// hub (a stub under tests). inj, when a fault plan is configured,
	// decides each scheduled frame as its tick is staged (emit).
	send  mcast.BatchSender
	inj   *faults.Injector
	cache *frameCache
	ln    net.Listener
	epoch time.Time

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	// repairBudget is the repair plane's shared token bucket (nil when
	// RepairBandwidth is 0); resends is the NACK re-send table.
	repairBudget *metrics.TokenBucket
	resends      *resendTable

	// draining marks a server in graceful shutdown (Drain).
	draining atomic.Bool

	// repairs counts unicast chunk repairs answered; repairBytes their
	// payload bytes; busyReplies the requests pushed back with Busy.
	// Padded: they sit next to each other and are bumped from concurrent
	// control handlers and egress shards.
	repairs     metrics.PaddedCounter
	repairBytes metrics.PaddedCounter
	busyReplies metrics.PaddedCounter
	// nacksServed counts gap-bitmap NACK messages answered; nackResends
	// the multicast re-sends they triggered; nackSuppressed the NACKed
	// chunks absorbed because a re-send was already in flight.
	nacksServed    metrics.PaddedCounter
	nackResends    metrics.PaddedCounter
	nackSuppressed metrics.PaddedCounter

	// parityFrames counts stripe parity frames put on the wire;
	// parityBytes their encoded bytes — the stripe's bandwidth overhead,
	// 1/FecGroup of the broadcast by construction.
	parityFrames metrics.PaddedCounter
	parityBytes  metrics.PaddedCounter

	// pacerRestarts counts supervisor restarts after egress shard panics;
	// driftEvents broadcasts that missed their schedule by over one unit;
	// wheelWakeups timer wakeups of the shards — each one releases every
	// chunk due in its tick.
	// egressScheduled counts data chunks that fell due on the grid,
	// egressStaged those that had a listener and were materialised: the
	// gap is work the schedule names and nobody pays for.
	pacerRestarts   metrics.PaddedCounter
	driftEvents     metrics.PaddedCounter
	wheelWakeups    metrics.PaddedCounter
	egressScheduled metrics.PaddedCounter
	egressStaged    metrics.PaddedCounter

	// controlSessions is the live control-connection level with its
	// high-water mark — the server-side audience size a scale run reads
	// off /status. Padded: it is bumped on every session open/close next
	// to the hot counters above.
	controlSessions metrics.PaddedGauge

	// wheel holds the egress shards, one goroutine each; set once in
	// Start. tickDemoted is set when a shard had to give up the timerfd
	// tick source for the runtime timer.
	wheel       []*wheelShard
	tickDemoted atomic.Bool

	stop chan struct{}
	// wg tracks the shard supervisors and the accept loop; connWG the
	// per-connection control handlers. They are separate so Drain can wait
	// for in-flight handlers alone, and Close waits wg first — acceptLoop
	// is the only connWG.Add site, so once it exits connWG cannot grow.
	wg     sync.WaitGroup
	connWG sync.WaitGroup
}

// New validates the configuration and prepares a server.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ControlIdleTimeout <= 0 {
		cfg.ControlIdleTimeout = 2 * time.Minute
	}
	if cfg.RepairBandwidth > 0 && cfg.RepairBurstBytes == 0 {
		cfg.RepairBurstBytes = cfg.RepairBandwidth / 4
		if min := int64(cfg.ChunkBytes); cfg.RepairBurstBytes < min {
			cfg.RepairBurstBytes = min
		}
	}
	s := &Server{cfg: cfg, stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.cache = newFrameCache(cfg.Scheme, cfg.BytesPerUnit, cfg.ChunkBytes, cfg.FecGroup)
	if cfg.RepairBandwidth > 0 {
		s.repairBudget = metrics.NewTokenBucket(float64(cfg.RepairBandwidth), float64(cfg.RepairBurstBytes))
	}
	// A NACK for a chunk re-sent within the last two units rides that
	// re-send; after that, the chunk is re-sent again.
	s.resends = newResendTable(2 * cfg.Unit)
	return s, nil
}

// Start opens the control listener and launches the egress shards. The
// broadcast epoch is the moment Start returns.
func (s *Server) Start() error {
	hub, err := mcast.NewHubConfigured(mcast.HubConfig{
		SendBufBytes: s.cfg.SendBufBytes,
		RecvBufBytes: s.cfg.RecvBufBytes,
		Logf:         s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hub.Close()
		return fmt.Errorf("server: control listener: %w", err)
	}
	s.hub = hub
	s.send = hub
	if s.cfg.Faults != nil {
		inj, err := faults.New(hub, *s.cfg.Faults)
		if err != nil {
			ln.Close()
			hub.Close()
			return err
		}
		s.inj = inj
		s.cfg.Logf("server: fault injection enabled: %+v", *s.cfg.Faults)
	}
	s.ln = ln
	s.epoch = time.Now()

	sch := s.cfg.Scheme
	s.startWheel()
	s.wg.Add(1)
	go s.acceptLoop()
	s.cfg.Logf("server: broadcasting %d videos x %d channels on %s (unit %v, %d shards, vectorized=%v, gso=%v)",
		sch.Config().Videos, sch.K(), ln.Addr(), s.cfg.Unit, len(s.wheel), hub.Vectorized(), hub.GSO())
	return nil
}

// Addr returns the control address to dial, e.g. "127.0.0.1:41234".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Epoch returns the broadcast time origin.
func (s *Server) Epoch() time.Time { return s.epoch }

// Hub exposes the multicast hub (for tests and stats).
func (s *Server) Hub() *mcast.Hub { return s.hub }

// Injector exposes the fault injector when a chaos plan is configured,
// nil otherwise (for tests and cmd/skychaos).
func (s *Server) Injector() *faults.Injector { return s.inj }

// EgressTickSource names what the egress shards wait on between ticks:
// "timerfd" while every shard parks on a timerfd through the netpoller,
// "timer" for the runtime timer — a non-linux build, or a server whose
// timerfd failed.
func (s *Server) EgressTickSource() string {
	if haveTimerfd && !s.tickDemoted.Load() {
		return tickTimerfd
	}
	return tickTimer
}

// shardHist merges one of the per-shard histograms across the wheel.
func (s *Server) shardHist(of func(*wheelShard) *metrics.Log2Histogram) *metrics.Log2Histogram {
	h := new(metrics.Log2Histogram)
	for _, sh := range s.wheel {
		h.Merge(of(sh))
	}
	return h
}

// wakeLateness is how many nanoseconds past its grid instant each wheel
// shard began releasing its tick.
func (s *Server) wakeLateness() *metrics.Log2Histogram {
	return s.shardHist(func(sh *wheelShard) *metrics.Log2Histogram { return &sh.wakeLate })
}

// wakeLead is the longest lead any shard currently arms its tick source
// with: its wake latency plus its staging time, within its bound.
func (s *Server) wakeLead() time.Duration {
	var lead time.Duration
	for _, sh := range s.wheel {
		lead = max(lead, sh.lead(sh.leadBound()))
	}
	return lead
}

// Close stops the egress shards, the listener, and open control
// connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.stop)
	s.stopWheel()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	// Shard supervisors and the accept loop first: acceptLoop is the only
	// place connWG grows, so after wg drains the handler count is final.
	s.wg.Wait()
	s.connWG.Wait()
	if s.inj != nil {
		s.inj.Flush()
	}
	s.hub.Close()
}

// fragmentBytes returns the byte size of channel i's fragment.
func (s *Server) fragmentBytes(i int) int {
	return int(s.cfg.Scheme.Sizes()[i-1]) * s.cfg.BytesPerUnit
}

// emit stages chunk c of repetition n into the tick's batch — and behind
// the last chunk of a stripe group, the group's parity frame under the
// same repetition number — returning the batch. It is what staging a tick
// does with each due chunk (wheelShard.stage). With a listener the frames
// are materialised into a; without one nothing is built. Under a fault
// plan every frame, built or not, meets its decision here, once (the
// plan's counts must not depend on who listens), and the batch holds
// what the plan lets leave at the instant.
func (s *Server) emit(a *frameArena, batch []mcast.BatchEntry, g mcast.Group, cc *channelCache, c int, n uint32, heard bool) []mcast.BatchEntry {
	cb, fg := s.cfg.ChunkBytes, s.cfg.FecGroup
	var frame []byte
	if heard {
		frame = s.cache.materialise(a, cc, c, n)
	}
	batch = s.stageFrame(a, batch, g, n, uint32(c*cb), 0, frame)
	if fg == 0 || ((c+1)%fg != 0 && c+1 != len(cc.crcs)) {
		return batch
	}
	pg := c / fg
	var parity []byte
	if heard {
		parity = s.cache.materialiseParity(a, cc, pg, n)
		s.parityFrames.Inc()
		s.parityBytes.Add(int64(len(parity)))
	}
	return s.stageFrame(a, batch, g, n, uint32(pg*fg*cb), cc.groupCount(s.cache, pg), parity)
}

// stageFrame appends one scheduled frame of group g — nil when unbuilt —
// to the batch: what the fault plan lets leave when there is one (covered
// is 0 for data, the chunks a parity frame covers otherwise), the frame
// itself when there is none.
func (s *Server) stageFrame(a *frameArena, batch []mcast.BatchEntry, g mcast.Group, seq, offset uint32, covered int, frame []byte) []mcast.BatchEntry {
	if s.inj != nil {
		return s.inj.Stage(batch, g, seq, offset, covered, frame, a.take)
	}
	if frame != nil {
		batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
	}
	return batch
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

// serveControl handles one client's control session, tracking its group
// memberships so a dropped connection cleans up after itself.
func (s *Server) serveControl(conn net.Conn) {
	defer s.connWG.Done()
	s.controlSessions.Inc()
	defer s.controlSessions.Dec()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	joined := make(map[mcast.Group]*net.UDPAddr)
	defer func() {
		for g, a := range joined {
			s.hub.Leave(g, a)
		}
	}()
	// Build space for this connection's multicast re-sends; one per
	// connection so concurrent control sessions never contend.
	var arena frameArena

	sch := s.cfg.Scheme
	r := bufio.NewReader(conn)
	// Every reply write is deadline-bounded so a client that stops
	// draining its socket cannot wedge the handler.
	write := func(m *wire.Control) error {
		_ = conn.SetWriteDeadline(time.Now().Add(controlWriteTimeout))
		return wire.WriteControl(conn, m)
	}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		s.cfg.Logf("server: %v: %s", conn.RemoteAddr(), msg)
		_ = write(&wire.Control{Kind: wire.KindError, Error: msg})
	}
	busy := func(retry time.Duration) error {
		s.busyReplies.Inc()
		return write(&wire.Control{Kind: wire.KindBusy, RetryAfterNanos: int64(retry)})
	}
	for {
		// Idle reaping: a half-open or silent client times out here, the
		// handler returns, and the deferred cleanup drops its
		// memberships.
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ControlIdleTimeout))
		m, err := wire.ReadControl(r)
		if errors.Is(err, wire.ErrBadControl) {
			// A whole line that does not decode: the stream is still
			// framed, so it is an error reply, not a disconnect.
			fail("bad control message: %v", err)
			continue
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.cfg.Logf("server: reaping idle control connection %v (%d memberships)",
					conn.RemoteAddr(), len(joined))
			}
			return // disconnect
		}
		switch m.Kind {
		case wire.KindHello:
			w := &wire.Welcome{
				Videos:           sch.Config().Videos,
				ChannelsPerVideo: sch.K(),
				Width:            sch.Width(),
				UnitNanos:        int64(s.cfg.Unit),
				EpochUnixNano:    s.epoch.UnixNano(),
				SizeUnits:        append([]int64(nil), sch.Sizes()...),
				BytesPerUnit:     s.cfg.BytesPerUnit,
				ChunkBytes:       s.cfg.ChunkBytes,
				NackRepair:       true,
				FecGroup:         s.cfg.FecGroup,
			}
			if err := write(&wire.Control{Kind: wire.KindWelcome, Welcome: w}); err != nil {
				return
			}
		case wire.KindJoin:
			if m.Video < 0 || m.Video >= sch.Config().Videos || m.Channel < 1 || m.Channel > sch.K() {
				fail("join: no channel %d/%d", m.Video, m.Channel)
				continue
			}
			if m.Port <= 0 || m.Port > 65535 {
				fail("join: bad port %d", m.Port)
				continue
			}
			g := mcast.Group{Video: m.Video, Channel: m.Channel}
			addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: m.Port}
			if err := s.hub.Join(g, addr); err != nil {
				fail("join: %v", err)
				continue
			}
			joined[g] = addr
			if err := write(&wire.Control{Kind: wire.KindJoined, Video: m.Video, Channel: m.Channel}); err != nil {
				return
			}
		case wire.KindRepair:
			rp := m.Repair
			if rp == nil {
				fail("repair: missing parameters")
				continue
			}
			if rp.Video < 0 || rp.Video >= sch.Config().Videos || rp.Channel < 1 || rp.Channel > sch.K() {
				fail("repair: no channel %d/%d", rp.Video, rp.Channel)
				continue
			}
			total := s.fragmentBytes(rp.Channel)
			// Compared on the fragment's side: Offset+Length can overflow.
			if rp.Length <= 0 || rp.Length > wire.MaxPayload || rp.Offset < 0 || rp.Offset > int64(total)-int64(rp.Length) {
				fail("repair: bad range [%d, +%d) of %d-byte fragment", rp.Offset, rp.Length, total)
				continue
			}
			// Admission: the shared repair byte budget.
			if s.repairBudget != nil {
				if ok, retry := s.repairBudget.Take(time.Now(), float64(rp.Length)); !ok {
					if err := busy(retry); err != nil {
						return
					}
					continue
				}
			}
			// The content function regenerates any range on demand, so
			// repairs need no retransmission buffer.
			reply := *rp
			reply.Data = make([]byte, rp.Length)
			content.Fill(reply.Data, rp.Video, s.cache.channel(rp.Video, rp.Channel).base+rp.Offset)
			s.repairs.Inc()
			s.repairBytes.Add(int64(rp.Length))
			if err := write(&wire.Control{Kind: wire.KindRepairOK, Repair: &reply}); err != nil {
				return
			}
		case wire.KindNack:
			// Cohort-aware repair: one gap bitmap reports a burst of
			// losses, and the accepted chunks are answered with a batched
			// multicast re-send on the channel's own broadcast group —
			// one dispatch heals every injured member. ReadControl has
			// already validated the bitmap shape.
			nk := m.Nack
			if nk.Video < 0 || nk.Video >= sch.Config().Videos || nk.Channel < 1 || nk.Channel > sch.K() {
				fail("nack: no channel %d/%d", nk.Video, nk.Channel)
				continue
			}
			nchunks := (s.fragmentBytes(nk.Channel) + s.cfg.ChunkBytes - 1) / s.cfg.ChunkBytes
			chunks := nk.Chunks()
			if first, last := chunks[0], chunks[len(chunks)-1]; first < 0 || last < 0 || last >= nchunks {
				fail("nack: chunks %d..%d outside %d-chunk fragment", first, last, nchunks)
				continue
			}
			now := time.Now()
			if period := time.Duration(sch.Sizes()[nk.Channel-1]) * s.cfg.Unit; !repetitionLive(nk.Seq, period, s.cfg.Unit, now.Sub(s.epoch)) {
				fail("nack: repetition %d of channel %d/%d is not on the air", nk.Seq, nk.Video, nk.Channel)
				continue
			}
			s.nacksServed.Inc()
			accepted := &wire.Nack{Video: nk.Video, Channel: nk.Channel, Seq: nk.Seq,
				BaseChunk: nk.BaseChunk, Bitmap: make([]byte, len(nk.Bitmap))}
			resend := chunks[:0]
			for _, chunk := range chunks {
				// A fresh re-send spends the shared repair byte budget like
				// any repair; a refused chunk stays unmarked and the client
				// falls back to unicast (which is budget-gated too, so an
				// over-budget plane degrades, not amplifies).
				clen := min(s.cfg.ChunkBytes, s.fragmentBytes(nk.Channel)-chunk*s.cfg.ChunkBytes)
				k := resendKey{video: nk.Video, channel: nk.Channel, seq: nk.Seq, chunk: chunk}
				accept, fresh := s.resends.note(k, now, s.repairBudget, clen)
				if !accept {
					continue
				}
				accepted.Set(chunk)
				if fresh {
					resend = append(resend, chunk)
				} else {
					// A re-send within the window is already in flight;
					// the client just keeps re-listening.
					s.nackSuppressed.Inc()
				}
			}
			if len(resend) > 0 {
				s.nackResend(nk.Video, nk.Channel, nk.Seq, resend, &arena)
			}
			if err := write(&wire.Control{Kind: wire.KindNackOK, Nack: accepted}); err != nil {
				return
			}
		case wire.KindStats:
			doc, err := json.Marshal(s.Status())
			if err != nil {
				fail("stats: %v", err)
				continue
			}
			if err := write(&wire.Control{Kind: wire.KindStatsOK, Stats: doc}); err != nil {
				return
			}
		case wire.KindLeave:
			g := mcast.Group{Video: m.Video, Channel: m.Channel}
			if a, ok := joined[g]; ok {
				s.hub.Leave(g, a)
				delete(joined, g)
			}
		case wire.KindBye:
			return
		default:
			fail("unknown control kind %q", m.Kind)
		}
	}
}
