package viewer

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skyscraper/internal/des"
	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
	"skyscraper/internal/series"
	"skyscraper/internal/trace"
	"skyscraper/internal/wire"
)

// errMuxDraining reports a server-initiated bye on the mux's control
// connection: NACK rounds are over for every emulated viewer.
// errEpochChanged refuses a redial that reached a different broadcast.
var (
	errMuxDraining  = errors.New("viewer: server draining (bye received)")
	errEpochChanged = errors.New("viewer: server restarted (broadcast epoch changed); sessions cannot continue")
)

// ReconnectJitterKey is the jitter substream key for control reconnects;
// NACK windows key on bit 63 | channel, so the two retry sites of one
// viewer seed never share a stream.
const ReconnectJitterKey = ^uint64(0)

// arrivalStream keys each viewer's admission-offset draw. It is a direct
// substream of the viewer seed, one SubSeed layer above the jitter
// streams (which derive via SubSeed(SubSeed(seed, key), stream)), so no
// NACK or reconnect jitter draw can collide with it.
const arrivalStream = ^uint64(1)

// ViewerSeed is virtual viewer v's session seed under a mux seeded with
// muxSeed. A cohort times its recovery on its first member's seed, so a
// Session{Seed: ViewerSeed(muxSeed, v)} draws bit-identical NACK window
// jitter to a mux cohort led by viewer v: a session's seed is used as
// given, never re-derived.
func ViewerSeed(muxSeed uint64, v int) uint64 {
	return des.SubSeed(muxSeed, uint64(v))
}

// Session names the one viewer RunSession drives: where an audience
// derives each viewer's video and seed from the mux seed, a session states
// them. It is what client.Watch runs.
type Session struct {
	// Video is the catalog index to watch; Seed the viewer's seed, used as
	// given (see ViewerSeed).
	Video int
	Seed  uint64
	// MaxBufferBytes, when positive, fails the session once its
	// downloaded-but-unplayed level exceeds it; Trace, when non-nil,
	// journals its recovery events (see Mux.Journal).
	MaxBufferBytes int64
	Trace          *trace.Buffer
}

// SessionResult is the Result of a one-viewer run plus the two figures
// only a single session reports exactly.
type SessionResult struct {
	*Result
	// WaitUnits is the admission wait in D1 units (WaitHist keeps only its
	// milli-unit bin); Groups the transmission groups received.
	WaitUnits float64
	Groups    int
}

// RunSession runs one viewing session as a one-viewer cohort: the same
// admit, receive and recovery path Run drives for an audience. It fails only
// when the session could not be driven to its end (refused join, exceeded
// buffer); losses and jitter are counts in the result, for the caller.
func RunSession(cfg MuxConfig, s Session) (*SessionResult, error) {
	cfg.Viewers, cfg.SpreadUnits, cfg.Seed = 1, 0, s.Seed
	m, err := newMux(cfg, &s)
	if err != nil {
		return nil, err
	}
	m.Journal(s.Trace)
	if s.Video < 0 || s.Video >= m.w.Videos {
		m.cc.close()
		return nil, fmt.Errorf("viewer: video %d outside catalog 0..%d", s.Video, m.w.Videos-1)
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	return &SessionResult{Result: res, WaitUnits: m.waits[0], Groups: len(series.Groups(m.w.SizeUnits))}, nil
}

// MuxConfig parameterizes one virtual-viewer multiplexer run.
type MuxConfig struct {
	// ServerAddr is the server's TCP control address.
	ServerAddr string
	// Viewers is how many virtual sessions to emulate.
	Viewers int
	// Videos spreads viewers round-robin over the first Videos catalog
	// entries; zero (or anything past the catalog) selects the whole
	// catalog.
	Videos int
	// SpreadUnits is the admission window in D1 units: viewer arrival
	// offsets are drawn uniformly from [0, SpreadUnits), so viewers land
	// on about SpreadUnits+1 distinct playback start units per video.
	// Zero admits everyone at once (one cohort per video).
	SpreadUnits float64
	// Seed keys every viewer's deterministic substreams (arrival offset,
	// NACK window jitter) via ViewerSeed.
	Seed uint64
	// Workers is ignored. Kept for benchmark/harness, which sets it; the
	// harness follow-up of ROADMAP item 2 deletes it.
	Workers int
	// JoinLeadFrac, SlackFrac, RepairLagFrac mirror client.Config (all
	// default to 0.5).
	JoinLeadFrac  float64
	SlackFrac     float64
	RepairLagFrac float64
	// DisableRepair turns loss recovery off: gaps become losses at their
	// playback deadlines. Otherwise each cohort NACKs as one voice, so a
	// burst of losses costs one aggregated gap bitmap whatever the
	// cohort's size.
	DisableRepair bool
	// RecvBufBytes sizes the shared UDP socket's kernel buffer; zero
	// selects mcast.DefaultRecvBufBytes.
	RecvBufBytes int
	// Logf, when non-nil, receives diagnostic output.
	Logf func(format string, args ...any)
}

// WaitBucket is one bin of the admission-latency histogram: Count viewers
// waited about MilliUnits/1000 D1 units for playback to start.
type WaitBucket struct {
	MilliUnits int64 `json:"milliUnits"`
	Count      int64 `json:"count"`
}

// Result reports a completed mux run. Chunk outcomes are sums over all
// emulated viewers, so they compare directly against the same number of
// independent client sessions; control round trips are per cohort.
type Result struct {
	Viewers int `json:"viewers"`
	Cohorts int `json:"cohorts"`
	// ElapsedSec is the wall time from first admission to last cohort
	// completion.
	ElapsedSec float64 `json:"elapsedSec"`
	// Bytes is total payload credited across viewers (video bytes minus
	// each viewer's lost bytes); ByteErrors content-verification
	// mismatches (counted once per cohort).
	Bytes      int64 `json:"bytes"`
	ByteErrors int64 `json:"byteErrors"`
	// Chunk outcome sums over viewers.
	LateChunks      int64 `json:"lateChunks"`
	DuplicateChunks int64 `json:"duplicateChunks"`
	LostChunks      int64 `json:"lostChunks"`
	// RepairedChunks, RepairRequests and BusyReplies are always 0: the
	// viewer pulls nothing over unicast and the server answers no NACK
	// with Busy. They stay because benchmark/harness reads them; the
	// harness follow-up of ROADMAP item 2 deletes them.
	RepairedChunks int64 `json:"repairedChunks"`
	RepairRequests int64 `json:"repairRequests"`
	BusyReplies    int64 `json:"busyReplies"`
	Reconnects     int64 `json:"reconnects"`
	// NacksSent counts gap-bitmap NACK round trips and NacksSuppressed
	// aggregation windows that closed with nothing left to report. Both
	// are per cohort, NOT per viewer — the cohort NACKs as one voice,
	// which is exactly the control-traffic reduction being measured.
	// MulticastRepairs counts chunks healed by a NACK-triggered multicast
	// re-send, summed over viewers like LostChunks.
	NacksSent        int64 `json:"nacksSent"`
	NacksSuppressed  int64 `json:"nacksSuppressed"`
	MulticastRepairs int64 `json:"multicastRepairs"`
	// FecHeals counts chunks reconstructed from the proactive parity
	// stripe, summed over viewers like MulticastRepairs (one shared-path
	// reconstruction heals the whole cohort, for zero control traffic).
	// StripeDefeats counts cohort-level escalations: gaps whose stripe
	// hold expired unhealed and entered the NACK ladder.
	FecHeals      int64 `json:"fecHeals"`
	StripeDefeats int64 `json:"stripeDefeats"`
	// Degraded counts viewers that finished with any lost or late chunk.
	Degraded int `json:"degraded"`
	// MaxBufferBytes is the highest downloaded-but-unplayed level any
	// cohort reached (a chunk counts from the first instant any member
	// holds it: exact for one viewer, never under a member's own level for
	// more). The paper bounds it by 60·b·D1·(W−1) — (W−1)·BytesPerUnit here.
	MaxBufferBytes int64 `json:"maxBufferBytes"`
	// PeakViewers and PeakCohorts are the concurrency high-water marks.
	PeakViewers int64 `json:"peakViewers"`
	PeakCohorts int64 `json:"peakCohorts"`
	// Datagrams counts the router's deliveries, one per (datagram, cohort
	// fragment tuned to its group) — strays of another repetition
	// included, not per viewer — though each datagram is decoded,
	// verified and stripe-folded once however many fragments hear it.
	// RecvDropped is always 0: the router applies every datagram in place
	// and drops none. It stays because benchmark/harness and skychaos
	// -scale read it.
	Datagrams   int64 `json:"datagrams"`
	RecvDropped int64 `json:"recvDropped"`
	// The ingress ledger of the shared receiver. BatchedReads counts
	// datagrams drained through the recvmmsg rung (after GRO splitting);
	// ReadSyscalls every kernel receive invocation —
	// BatchedReads/ReadSyscalls is the achieved ingress batching factor.
	// GroSegments counts frames recovered from coalesced GRO
	// super-frames; GroFallbacks declines/demotions of the GRO rung;
	// ReadErrors failed socket reads.
	BatchedReads int64 `json:"batchedReads"`
	ReadSyscalls int64 `json:"readSyscalls"`
	GroSegments  int64 `json:"groSegments"`
	GroFallbacks int64 `json:"groFallbacks,omitempty"`
	ReadErrors   int64 `json:"readErrors,omitempty"`
	// WaitHist is the per-viewer admission-wait histogram in milli-unit
	// bins, mergeable across emulator processes.
	WaitHist []WaitBucket `json:"waitHist"`
}

// WaitQuantile returns the q-quantile (0 < q <= 1) of per-viewer
// admission waits in D1 units, to the histogram's milli-unit resolution.
func (r *Result) WaitQuantile(q float64) float64 {
	return WaitQuantile(r.WaitHist, int64(r.Viewers), q)
}

// WaitQuantile computes a quantile over a merged admission-wait
// histogram with total viewers across all merged results.
func WaitQuantile(hist []WaitBucket, total int64, q float64) float64 {
	if total <= 0 || len(hist) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range hist {
		cum += b.Count
		if cum >= rank {
			return float64(b.MilliUnits+1) / 1000
		}
	}
	return float64(hist[len(hist)-1].MilliUnits+1) / 1000
}

// MergeWaitHists merges admission-wait histograms from several results.
func MergeWaitHists(hists ...[]WaitBucket) []WaitBucket {
	counts := map[int64]int64{}
	for _, h := range hists {
		for _, b := range h {
			counts[b.MilliUnits] += b.Count
		}
	}
	return histFromCounts(counts)
}

func histFromCounts(counts map[int64]int64) []WaitBucket {
	out := make([]WaitBucket, 0, len(counts))
	for mu, n := range counts {
		out = append(out, WaitBucket{MilliUnits: mu, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MilliUnits < out[j].MilliUnits })
	return out
}

// Mux is the virtual-viewer multiplexer: one process emulating Viewers
// sessions against a live server. Viewers tuned to the same (video,
// playback start) form a cohort sharing one machine per fragment; the
// router decodes and verifies each datagram once for every cohort that
// hears it; every control round trip goes over one connection.
//
// The audience has two goroutines. The shared receiver's read loop is
// its one driver (handle): it applies datagrams, steps the cohorts whose
// instant has come, applies control replies and counts each group's
// members (in the router's group table). The control goroutine
// (serveControl) owns the connection and runs the loop's requests in
// order. Requests go out through outbox, replies come back through
// inbox, and the loop never waits for the control goroutine.
type Mux struct {
	cfg   MuxConfig
	sess  *Session // non-nil for RunSession's one stated viewer
	w     *wire.Welcome
	unit  time.Duration
	epoch time.Time
	// videoBytes is one whole video's payload (every video shares the
	// layout); trace the recovery journal, nil for none.
	videoBytes int64
	trace      *trace.Buffer

	rcv   *mcast.SharedReceiver
	route *router
	cc    *controlConn

	// The loop's state: the run's cohorts, the earliest instant any of
	// them asks for, how many are still running, and finished, closed by
	// the last.
	cohorts  []*cohort
	next     time.Time
	running  int
	finished chan struct{}

	// inbox carries the control plane's replies to the loop; outbox, under
	// outMu, the loop's requests to the control goroutine, which kick
	// wakes.
	inbox  chan func(now time.Time)
	outMu  sync.Mutex
	outbox []func()
	kick   chan struct{}

	// bye latches a server-initiated drain for every viewer at once.
	bye        atomic.Bool
	reconnects atomic.Int64

	waits []float64 // per-viewer admission wait in units; read-only after admission

	// The concurrency levels; their peaks are PeakViewers and PeakCohorts.
	liveViewers   metrics.PaddedGauge
	activeCohorts metrics.PaddedGauge
}

// Run emulates cfg.Viewers sessions to completion and aggregates their
// stats. A run in which cohorts failed still returns its Result alongside
// the error.
func Run(cfg MuxConfig) (*Result, error) {
	m, err := NewMux(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// NewMux validates cfg, performs the control handshake, and prepares an
// emulation. Run executes it.
func NewMux(cfg MuxConfig) (*Mux, error) { return newMux(cfg, nil) }

// Journal directs the run's recovery events (nack-window, nack,
// nack-refused, nack-fail, fec-heal, chunk-lost, reconnect, server-bye)
// into tb on the broadcast epoch's wall scale; call before Run.
func (m *Mux) Journal(tb *trace.Buffer) { m.trace = tb }

// tracef journals one recovery event. Sites an audience runs per datagram
// or per NACK test m.trace themselves, so no argument is boxed for nothing.
func (m *Mux) tracef(kind, format string, args ...any) {
	if m.trace != nil {
		m.trace.Addf(trace.Wall(m.epoch, time.Now()), kind, format, args...)
	}
}

// viewerSeed is viewer v's seed: derived from the mux seed for an
// audience; for a session the mux seed is the viewer's, as stated.
func (m *Mux) viewerSeed(v int) uint64 {
	if m.sess != nil {
		return m.cfg.Seed
	}
	return ViewerSeed(m.cfg.Seed, v)
}

func newMux(cfg MuxConfig, sess *Session) (*Mux, error) {
	if cfg.Viewers <= 0 {
		return nil, fmt.Errorf("viewer: mux needs a positive viewer count (got %d)", cfg.Viewers)
	}
	if cfg.JoinLeadFrac <= 0 {
		cfg.JoinLeadFrac = 0.5
	}
	if cfg.SlackFrac <= 0 {
		cfg.SlackFrac = 0.5
	}
	if cfg.RepairLagFrac <= 0 {
		cfg.RepairLagFrac = 0.5
	}
	if cfg.SpreadUnits < 0 {
		cfg.SpreadUnits = 0
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	// The inbox's 64 slots let the control goroutine run ahead of the
	// loop by more than a burst of replies; a full inbox holds only it.
	m := &Mux{cfg: cfg, sess: sess, inbox: make(chan func(time.Time), 64), kick: make(chan struct{}, 1)}
	// The control connection redials on the mux seed itself (a session's
	// own seed).
	cc := &controlConn{mux: m, seed: cfg.Seed, held: map[mcast.Group]bool{},
		dial: func() (net.Conn, error) { return net.DialTimeout("tcp", cfg.ServerAddr, controlTimeout) }}
	w, err := cc.handshake()
	if err != nil {
		return nil, err
	}
	m.w, m.unit, m.epoch = w, time.Duration(w.UnitNanos), time.Unix(0, w.EpochUnixNano)
	for _, s := range w.SizeUnits {
		m.videoBytes += s * int64(w.BytesPerUnit)
	}
	m.cc = cc
	m.route = newRouter(w.ChunkBytes, w.FecGroup)
	return m, nil
}

// Run executes the emulation prepared by NewMux.
func (m *Mux) Run() (*Result, error) {
	defer m.cc.close()
	rcv, err := mcast.NewSharedReceiverConfigured(mcast.SharedReceiverConfig{
		RecvBufBytes: m.cfg.RecvBufBytes,
		Logf:         m.cfg.Logf,
		Handle:       func(frames [][]byte) time.Time { return m.handle(frames, time.Now()) },
	})
	if err != nil {
		return nil, err
	}
	defer rcv.Close()
	m.rcv = rcv
	m.cc.port = rcv.Addr().Port

	groups := series.Groups(m.w.SizeUnits)
	cohorts := m.admit()
	m.cfg.Logf("viewer: %d viewers in %d cohorts", m.cfg.Viewers, len(cohorts))

	start := time.Now()
	m.cohorts, m.running, m.finished = cohorts, len(cohorts), make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		m.serveControl()
	}()
	m.post(func(now time.Time) {
		for _, co := range cohorts {
			co.start(groups, now)
		}
	})
	<-m.finished
	m.ask(nil)
	<-served
	_, _ = m.cc.roundTrip(&wire.Control{Kind: wire.KindBye}, false)
	rcv.Close() // the loop is done with the cohorts before they are read

	var firstErr error
	failed := 0
	for _, co := range cohorts {
		if co.err != nil {
			failed++
			firstErr = cmp.Or(firstErr, co.err)
		}
	}

	res := m.aggregate(cohorts, time.Since(start))
	if firstErr != nil {
		return res, fmt.Errorf("viewer: %d of %d cohorts failed: %w", failed, len(cohorts), firstErr)
	}
	return res, nil
}

// admit assigns every viewer a video, an arrival offset, and a playback
// start unit, grouping viewers with identical (video, playback start)
// into cohorts. Everything here derives from the mux seed, so admission
// is reproducible; only the shared run start is wall time.
func (m *Mux) admit() []*cohort {
	videos := m.cfg.Videos
	if videos <= 0 || videos > m.w.Videos {
		videos = m.w.Videos
	}
	m.waits = make([]float64, m.cfg.Viewers)
	arrivalUnits := float64(time.Since(m.epoch)) / float64(m.unit)

	type ckey struct {
		video     int
		playStart int64
	}
	byKey := map[ckey]*cohort{}
	var order []*cohort
	for v := 0; v < m.cfg.Viewers; v++ {
		r := des.NewRand(des.SubSeed(m.viewerSeed(v), arrivalStream))
		a := arrivalUnits + r.Float64()*m.cfg.SpreadUnits
		playStart := int64(math.Ceil(a + m.cfg.JoinLeadFrac))
		m.waits[v] = float64(playStart) - a
		k := ckey{video: v % videos, playStart: playStart}
		if m.sess != nil {
			k.video = m.sess.Video
		}
		co := byKey[k]
		if co == nil {
			co = &cohort{mux: m, video: k.video, playStartUnit: k.playStart,
				playStart: m.epoch.Add(time.Duration(k.playStart) * m.unit)}
			byKey[k] = co
			order = append(order, co)
		}
		co.viewers = append(co.viewers, v)
	}
	return order
}

// aggregate folds the cohorts' counters into the Result: chunk outcomes
// once per member, control round trips once per cohort.
func (m *Mux) aggregate(cohorts []*cohort, elapsed time.Duration) *Result {
	rs := m.rcv.Stats()
	res := &Result{
		Viewers:      m.cfg.Viewers,
		Cohorts:      len(cohorts),
		ElapsedSec:   elapsed.Seconds(),
		PeakViewers:  m.liveViewers.High(),
		PeakCohorts:  m.activeCohorts.High(),
		Datagrams:    m.route.delivered,
		BatchedReads: rs.BatchedReads,
		ReadSyscalls: rs.ReadSyscalls,
		GroSegments:  rs.GROSegments,
		GroFallbacks: rs.GROFallbacks,
		ReadErrors:   rs.ReadErrors,
		Reconnects:   m.reconnects.Load(),
	}
	for _, co := range cohorts {
		n := int64(len(co.viewers))
		res.MaxBufferBytes = max(res.MaxBufferBytes, co.maxBuffer)
		res.LateChunks += co.late * n
		res.DuplicateChunks += co.dup * n
		res.LostChunks += co.lostShared * n
		res.MulticastRepairs += co.nackRepaired * n
		res.FecHeals += co.fecHeals * n
		res.Bytes += n * (m.videoBytes - co.lostSharedBytes)
		res.ByteErrors += co.byteErrors
		res.NacksSent += co.nacks
		res.NacksSuppressed += co.nackSuppressed
		res.StripeDefeats += co.stripeDefeats
		if co.lostShared > 0 || co.late > 0 {
			res.Degraded += int(n)
		}
	}
	counts := map[int64]int64{}
	for _, w := range m.waits {
		counts[int64(w*1000)]++
	}
	res.WaitHist = histFromCounts(counts)
	return res
}

// handle is the audience's one driver, the shared receiver's Handler,
// run at now. A read's datagrams are applied in place to every fragment
// tuned to them. A call with none — the receiver has drained the socket
// first, so nothing that has arrived is taken for a gap — applies the
// control plane's replies and steps every cohort whose instant has come.
// It returns the earliest instant a cohort asks for. The cohorts'
// instants fall on the broadcast's chunk grid, so one pass over them per
// grid instant is the whole timer cost.
func (m *Mux) handle(frames [][]byte, now time.Time) time.Time {
	if len(frames) > 0 {
		m.route.route(frames, now)
		return m.next
	}
	for len(m.inbox) > 0 {
		(<-m.inbox)(now)
	}
	m.next = time.Time{}
	for _, c := range m.cohorts {
		if !c.at.IsZero() && !c.at.After(now) {
			c.step(now)
		}
		m.next = earliest(m.next, c.at)
	}
	return m.next
}

// post hands fn to the loop, which runs it on its next wake. Only the
// control goroutine posts, so a full inbox holds it, never the loop.
func (m *Mux) post(fn func(now time.Time)) {
	m.inbox <- fn
	if m.rcv != nil { // nil only in tests' muxes that are never Run
		m.rcv.Wake()
	}
}

// ask hands fn to the control goroutine without waiting; it runs
// requests in the order they were asked, and a nil fn stops it once
// those before it ran.
func (m *Mux) ask(fn func()) {
	m.outMu.Lock()
	m.outbox = append(m.outbox, fn)
	m.outMu.Unlock()
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// serveControl is the control goroutine: the one owner of the control
// connection, running the loop's requests until asked to stop.
func (m *Mux) serveControl() {
	for range m.kick {
		m.outMu.Lock()
		fns := m.outbox
		m.outbox = nil
		m.outMu.Unlock()
		for _, fn := range fns {
			if fn == nil {
				return
			}
			fn()
		}
	}
}

// controlTimeout bounds each control round trip and each dial.
const controlTimeout = 5 * time.Second

// controlConn is the mux's one control connection: re-dialed with
// backoff on transport failure, and used by the control goroutine alone
// (by newMux for the first handshake, and by Run once that goroutine is
// done). Joins, leaves and NACKs of every cohort share it. The loop
// counts each group's members and asks a join for the first and a leave
// after the last; the connection keeps only the set of groups it holds
// on the server, which a redial joins again — the server drops a
// connection's memberships with it.
type controlConn struct {
	mux *Mux
	// seed keys the redial backoff (stream ReconnectJitterKey); redials
	// numbers its sleeps across the run, so each draws a fresh substream.
	seed    uint64
	redials uint64
	// port is the shared receiver's, where every join sends the group.
	port int

	// dial opens a connection (to a scripted peer in tests).
	dial func() (net.Conn, error)
	conn net.Conn
	r    *bufio.Reader
	held map[mcast.Group]bool
}

// handshake dials, says hello and reads the server's welcome — the one
// place a Welcome enters the process, so the one place it is validated
// and, on a redial, held to the broadcast epoch the run began under — and
// on a redial joins every held group again. Callers have no connection
// open.
func (c *controlConn) handshake() (*wire.Welcome, error) {
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("viewer: dialing control: %w", err)
	}
	r := bufio.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(controlTimeout))
	var m *wire.Control
	if err = wire.WriteControl(conn, &wire.Control{Kind: wire.KindHello}); err == nil {
		m, err = wire.ReadControl(r)
	}
	if err != nil {
		err = fmt.Errorf("viewer: reading welcome: %w", err)
	} else if m.Kind != wire.KindWelcome || m.Welcome == nil {
		err = fmt.Errorf("viewer: expected welcome, got %q (%s)", m.Kind, m.Error)
	} else if err = m.Welcome.Validate(); err != nil {
		err = fmt.Errorf("viewer: %w", err)
	} else if c.mux.w != nil && m.Welcome.EpochUnixNano != c.mux.w.EpochUnixNano {
		err = errEpochChanged
	}
	for g := range c.held {
		if err != nil {
			break
		}
		var reply *wire.Control
		if err = wire.WriteControl(conn, c.joinMsg(g)); err == nil {
			reply, err = wire.ReadControl(r)
		}
		if err == nil && reply.Kind != wire.KindJoined {
			err = fmt.Errorf("viewer: re-join %v rejected: %s", g, reply.Error)
		}
	}
	_ = conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.conn, c.r = conn, r
	if c.mux.w != nil {
		c.mux.reconnects.Add(1)
		c.mux.tracef("reconnect", "control connection re-established")
		c.mux.cfg.Logf("viewer: control connection re-established")
	}
	return m.Welcome, nil
}

// redial replaces a broken connection, sleeping a full-jitter delay
// from a doubling window between attempts: after a server restart every
// audience of the old process re-dials at once, and the jitter — keyed on
// each mux's own seed — spreads the wave. A changed epoch is
// refused at once: no retry can make it the same broadcast.
func (c *controlConn) redial() error {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			c.redials++
			time.Sleep(JitterIn(c.seed, ReconnectJitterKey, c.redials, 10*time.Millisecond<<(attempt-1)))
		}
		if _, err = c.handshake(); err == nil || errors.Is(err, errEpochChanged) {
			return err
		}
	}
	return fmt.Errorf("viewer: reconnecting control: %w", err)
}

// roundTrip performs one control request (and, when wantReply, reads the
// server's answer), transparently re-dialing a broken connection.
// Protocol-level rejections are returned as the reply, not as an error;
// only transport failures are retried. A server bye latches the mux-wide
// drain flag.
func (c *controlConn) roundTrip(msg *wire.Control, wantReply bool) (*wire.Control, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if c.conn == nil {
			if !wantReply {
				return nil, nil // fire-and-forget on a dead link: drop it
			}
			if err := c.redial(); err != nil {
				return nil, err
			}
		}
		_ = c.conn.SetDeadline(time.Now().Add(controlTimeout))
		err := wire.WriteControl(c.conn, msg)
		var reply *wire.Control
		if err == nil && wantReply {
			reply, err = wire.ReadControl(c.r)
		}
		_ = c.conn.SetDeadline(time.Time{})
		if err == nil {
			if wantReply && reply.Kind == wire.KindBye {
				c.mux.bye.Store(true)
				c.mux.tracef("server-bye", "server draining; NACK rounds off")
				c.mux.cfg.Logf("viewer: server draining (bye); NACK rounds off for all viewers")
				c.close()
				return nil, errMuxDraining
			}
			return reply, nil
		}
		lastErr = err
		c.close()
	}
	return nil, lastErr
}

// nack reports a burst of losses as one gap-bitmap NACK — the cohort's
// aggregated voice — and returns a predicate over the chunks the server
// accepted for multicast re-send. A transport or protocol failure, or a
// reply for another fragment repetition, returns an error.
func (c *controlConn) nack(video, channel int, seq uint32, chunks []int) (func(idx int) bool, error) {
	req := wire.NackFromChunks(video, channel, seq, chunks)
	reply, err := c.roundTrip(&wire.Control{Kind: wire.KindNack, Nack: req}, true)
	if err != nil {
		return nil, err
	}
	if reply.Kind != wire.KindNackOK {
		return nil, fmt.Errorf("viewer: nack rejected: %s", reply.Error)
	}
	acc := reply.Nack // ReadControl rejects a KindNackOK without one
	if acc.Video != video || acc.Channel != channel || acc.Seq != seq {
		return nil, fmt.Errorf("viewer: nack reply mismatch: got %d/%d seq %d", acc.Video, acc.Channel, acc.Seq)
	}
	return acc.Has, nil
}

func (c *controlConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

func (c *controlConn) joinMsg(g mcast.Group) *wire.Control {
	return &wire.Control{Kind: wire.KindJoin, Video: g.Video, Channel: g.Channel, Port: c.port}
}

// join joins g on the server and holds it.
func (c *controlConn) join(g mcast.Group) error {
	reply, err := c.roundTrip(c.joinMsg(g), true)
	if err != nil {
		return fmt.Errorf("viewer: waiting for join ack: %w", err)
	}
	if reply.Kind != wire.KindJoined {
		return fmt.Errorf("viewer: join rejected: %s", reply.Error)
	}
	c.held[g] = true
	return nil
}

// leave leaves g on the server, if the connection holds it: a refused
// join holds nothing to leave.
func (c *controlConn) leave(g mcast.Group) {
	if c.held[g] {
		delete(c.held, g)
		_, _ = c.roundTrip(&wire.Control{Kind: wire.KindLeave, Video: g.Video, Channel: g.Channel}, false)
	}
}
