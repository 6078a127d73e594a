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
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	// item 2 deletes it.
	FecMode string

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
	// send is what scheduled egress, NACK re-sends and memberships go
	// through: the hub (a stub under tests). inj, when a fault plan is
	// configured, decides each scheduled frame as its tick is staged (emit).
	send  hubSeam
	inj   *faults.Injector
	cache *frameCache
	ln    net.Listener
	clock clock
	epoch time.Time

	// mu guards closed, conns and held: how many control sessions hold
	// each hub membership.
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	held   map[member]int

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
	// chunks absorbed because a re-send was already in flight;
	// repairDatagrams the datagrams the re-sends came to (stageResends).
	nacksServed     metrics.PaddedCounter
	nackResends     metrics.PaddedCounter
	nackSuppressed  metrics.PaddedCounter
	repairDatagrams metrics.PaddedCounter

	// parityFrames counts stripe parity frames put on the wire;
	// parityBytes their encoded bytes — the stripe's bandwidth overhead,
	// 1/FecGroup of the broadcast by construction.
	parityFrames metrics.PaddedCounter
	parityBytes  metrics.PaddedCounter

	// shardRestarts counts supervisor restarts after egress shard panics;
	// driftEvents broadcasts that missed their schedule by over one unit;
	// wheelWakeups the ticks the shards released — a wake of the tick
	// source that came too early to stage, or found nothing due, is not
	// one.
	// egressScheduled counts data chunks that fell due on the grid,
	// egressStaged those that had a listener and were materialised: the
	// gap is work the schedule names and nobody pays for.
	shardRestarts   metrics.PaddedCounter
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
	if cfg.RepairBandwidth > 0 && cfg.RepairBurstBytes == 0 {
		cfg.RepairBurstBytes = max(cfg.RepairBandwidth/4, int64(cfg.ChunkBytes))
	}
	s := &Server{cfg: cfg, clock: wallClock{}, stop: make(chan struct{}), conns: make(map[net.Conn]struct{}), held: make(map[member]int)}
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
	// No idle reaping: a viewer is silent for a whole fragment between
	// joins, and its memberships must outlive the silence. A half-open
	// peer is found by the TCP keep-alive net.Listen enables on every
	// accepted connection (15 s idle, then 9 probes 15 s apart), which
	// fails the handler's read within about 150 s.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hub.Close()
		return fmt.Errorf("server: control listener: %w", err)
	}
	s.hub, s.send = hub, hub
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
	s.epoch = s.clock.now()

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

// since is how far the clock is past the epoch.
func (s *Server) since() time.Duration { return s.clock.now().Sub(s.epoch) }

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
// with: the span from the instant the source was armed for to the end of
// staging, as measured, within a quarter of the shard's tick.
func (s *Server) wakeLead() time.Duration {
	var lead time.Duration
	for _, sh := range s.wheel {
		lead = max(lead, sh.lead.value())
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
	s.mu.Unlock()

	close(s.stop)
	s.stopWheel()
	s.ln.Close()
	for _, c := range s.openConns() {
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
// what the plan lets leave at the instant, release; a frame the plan
// delays leaves its delay after it.
func (s *Server) emit(a *frameArena, batch []mcast.BatchEntry, release time.Time, g mcast.Group, cc *channelCache, c int, n uint32, heard bool) []mcast.BatchEntry {
	cb, fg := s.cfg.ChunkBytes, s.cfg.FecGroup
	var frame []byte
	if heard {
		frame = s.cache.materialise(a, cc, c, n)
	}
	batch = s.stageFrame(a, batch, release, g, n, uint32(c*cb), 0, frame)
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
	return s.stageFrame(a, batch, release, g, n, uint32(pg*fg*cb), cc.groupCount(s.cache, pg), parity)
}

// stageFrame appends one scheduled frame of group g — nil when unbuilt —
// to the batch: what the fault plan lets leave when there is one (covered
// is 0 for data, the chunks a parity frame covers otherwise), the frame
// itself when there is none.
func (s *Server) stageFrame(a *frameArena, batch []mcast.BatchEntry, release time.Time, g mcast.Group, seq, offset uint32, covered int, frame []byte) []mcast.BatchEntry {
	if s.inj != nil {
		return s.inj.Stage(batch, release, g, seq, offset, covered, frame, a.take)
	}
	if frame != nil {
		batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
	}
	return batch
}
