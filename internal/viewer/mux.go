package viewer

import (
	"bufio"
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
// connection: unicast repair is gone for every emulated viewer.
// errEpochChanged refuses a redial that reached a different broadcast.
var (
	errMuxDraining  = errors.New("viewer: server draining (bye received)")
	errEpochChanged = errors.New("viewer: server restarted (broadcast epoch changed); sessions cannot continue")
)

// ReconnectJitterKey is the jitter substream key for control reconnects;
// repair retries key on (channel, chunk) and NACK windows on bit 63 |
// channel, so no two retry sites of one viewer seed share a stream.
const ReconnectJitterKey = ^uint64(0)

// busyError is the server's admission pushback on a NACK or repair round
// trip; it is flow control, not failure.
type busyError struct{ retryAfter time.Duration }

func (e *busyError) Error() string {
	if e.retryAfter <= 0 {
		return "viewer: server busy (re-listen to broadcast)"
	}
	return fmt.Sprintf("viewer: server busy (retry after %v)", e.retryAfter)
}

// arrivalStream keys each viewer's admission-offset draw. It is a direct
// substream of the viewer seed, one SubSeed layer above the jitter
// streams (which derive via SubSeed(SubSeed(seed, key), stream)), so no
// repair or reconnect jitter draw can collide with it.
const arrivalStream = ^uint64(1)

// ViewerSeed is virtual viewer v's session seed under a mux seeded with
// muxSeed. A cohort times its recovery on its first member's seed, so a
// Session{Seed: ViewerSeed(muxSeed, v)} draws bit-identical NACK and
// repair jitter schedules to a mux cohort led by viewer v: a session's
// seed is used as given, never re-derived.
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
// admit, receive and repair path Run drives for an audience. It fails only
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
	// repair jitter) via ViewerSeed.
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
	// playback deadlines.
	DisableRepair bool
	// DisableNack turns off the multicast-first NACK ladder: gaps go
	// straight to unicast repair, one round trip per cohort. The ladder
	// is on by default whenever the server advertises it
	// (Welcome.NackRepair): each cohort NACKs as one voice, so a burst of
	// losses costs one aggregated gap bitmap regardless of cohort size.
	DisableNack bool
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
	// Chunk outcome sums over viewers: a cohort's one unicast repair
	// heals every member, so RepairedChunks counts it once per member.
	LateChunks      int64 `json:"lateChunks"`
	DuplicateChunks int64 `json:"duplicateChunks"`
	LostChunks      int64 `json:"lostChunks"`
	RepairedChunks  int64 `json:"repairedChunks"`
	// RepairRequests counts unicast repair round trips and BusyReplies
	// admission pushbacks on NACK and repair round trips. Both are per
	// cohort, NOT per viewer, like NacksSent: one pull heals the cohort.
	RepairRequests int64 `json:"repairRequests"`
	BusyReplies    int64 `json:"busyReplies"`
	Reconnects     int64 `json:"reconnects"`
	// NacksSent counts gap-bitmap NACK round trips and NacksSuppressed
	// aggregation windows that closed with nothing left to report. Both
	// are per cohort, NOT per viewer — the cohort NACKs as one voice,
	// which is exactly the control-traffic reduction being measured.
	// MulticastRepairs counts chunks healed by a NACK-triggered multicast
	// re-send, summed over viewers like RepairedChunks.
	NacksSent        int64 `json:"nacksSent"`
	NacksSuppressed  int64 `json:"nacksSuppressed"`
	MulticastRepairs int64 `json:"multicastRepairs"`
	// FecHeals counts chunks reconstructed from the proactive parity
	// stripe, summed over viewers like MulticastRepairs (one shared-path
	// reconstruction heals the whole cohort, for zero control traffic).
	// StripeDefeats counts cohort-level escalations: gaps whose stripe
	// hold expired unhealed and entered the reactive ladder.
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
	// Datagrams counts deliveries on the shared receiver, one per
	// (datagram, subscription) — not per viewer; RecvDropped the
	// datagrams lost to a subscription at its slot quota (they surface as
	// repairs); PeakRecvSlots the most receive-arena slots ever filled at
	// once — slots, not deliveries: every subscription that hears a
	// datagram shares its one slot, so this tracks datagrams in flight.
	// Times the slot size, it is the run's receive-buffer footprint.
	Datagrams     int64 `json:"datagrams"`
	RecvDropped   int64 `json:"recvDropped"`
	PeakRecvSlots int64 `json:"peakRecvSlots"`
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
// playback start) form a cohort sharing one receiver subscription per
// channel, one decode/verify pass per datagram and one machine per
// fragment; every control round trip goes over one connection.
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

	rcv     *mcast.SharedReceiver
	cc      *controlConn
	stripes *stripePool // every cohort fragment's parity stripe; nil without one

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

// Journal directs the run's recovery events (nack, nack-fail, repair-req,
// repair-ok, repair-busy, repair-off, repair-fail, fec-heal, chunk-lost,
// reconnect, server-bye) into tb on the broadcast epoch's wall scale; call
// before Run.
func (m *Mux) Journal(tb *trace.Buffer) { m.trace = tb }

// tracef journals one recovery event. Sites an audience runs per datagram
// or per repair test m.trace themselves, so no argument is boxed for nothing.
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
	m := &Mux{cfg: cfg, sess: sess}
	// The control connection redials on the mux seed itself (a session's
	// own seed).
	cc := &controlConn{mux: m, seed: cfg.Seed, refs: map[mcast.Group]int{}}
	cc.mu.Lock()
	w, err := cc.handshake()
	cc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.w = w
	m.unit = time.Duration(w.UnitNanos)
	m.epoch = time.Unix(0, w.EpochUnixNano)
	for _, s := range w.SizeUnits {
		m.videoBytes += s * int64(w.BytesPerUnit)
	}
	m.cc = cc
	m.stripes = newStripePool(w.FecGroup, w.ChunkBytes)
	return m, nil
}

// Run executes the emulation prepared by NewMux.
func (m *Mux) Run() (*Result, error) {
	defer m.cc.close()
	rcv, err := mcast.NewSharedReceiverConfigured(mcast.SharedReceiverConfig{
		RecvBufBytes: m.cfg.RecvBufBytes,
		Logf:         m.cfg.Logf,
		Classify: func(frame []byte) (mcast.Group, bool) {
			v, ch, _, _, ok := wire.PeekID(frame)
			if !ok {
				return mcast.Group{}, false
			}
			return mcast.Group{Video: int(v), Channel: int(ch)}, true
		},
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
	var wg sync.WaitGroup
	errCh := make(chan error, len(cohorts))
	for _, co := range cohorts {
		wg.Add(1)
		go func(co *cohort) {
			defer wg.Done()
			if err := co.run(groups); err != nil {
				errCh <- err
			}
		}(co)
	}
	wg.Wait()
	_, _ = m.cc.roundTrip(&wire.Control{Kind: wire.KindBye}, false)
	close(errCh)
	var firstErr error
	failed := 0
	for err := range errCh {
		failed++
		if firstErr == nil {
			firstErr = err
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
		Viewers:       m.cfg.Viewers,
		Cohorts:       len(cohorts),
		ElapsedSec:    elapsed.Seconds(),
		PeakViewers:   m.liveViewers.High(),
		PeakCohorts:   m.activeCohorts.High(),
		Datagrams:     rs.Delivered,
		RecvDropped:   rs.Dropped,
		PeakRecvSlots: rs.SlotsPeak,
		BatchedReads:  rs.BatchedReads,
		ReadSyscalls:  rs.ReadSyscalls,
		GroSegments:   rs.GROSegments,
		GroFallbacks:  rs.GROFallbacks,
		ReadErrors:    rs.ReadErrors,
		Reconnects:    m.reconnects.Load(),
	}
	for _, co := range cohorts {
		n := int64(len(co.viewers))
		res.MaxBufferBytes = max(res.MaxBufferBytes, co.maxBuffer.Load())
		late, lost := co.late.Load(), co.lostShared.Load()
		res.LateChunks += late * n
		res.DuplicateChunks += co.dup.Load() * n
		res.LostChunks += lost * n
		res.RepairedChunks += co.repaired.Load() * n
		res.MulticastRepairs += co.nackRepaired.Load() * n
		res.FecHeals += co.fecHeals.Load() * n
		res.Bytes += n * (m.videoBytes - co.lostSharedBytes.Load())
		res.ByteErrors += co.byteErrors.Load()
		res.RepairRequests += co.repairReqs.Load()
		res.BusyReplies += co.busy.Load()
		res.NacksSent += co.nacks.Load()
		res.NacksSuppressed += co.nackSuppressed.Load()
		res.StripeDefeats += co.stripeDefeats.Load()
		if lost > 0 || late > 0 {
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

// resetTimer re-arms a timer whose channel is only read by its owner
// loop (the pre-Go-1.23 drain discipline).
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// controlTimeout bounds each control round trip and each dial.
const controlTimeout = 5 * time.Second

// controlConn is the mux's one control connection: re-dialed with
// backoff on transport failure, serialized by a mutex. Joins, leaves,
// NACKs and repairs of every cohort share it, and so do the group
// memberships: refcounted across cohorts, the first subscriber of a group
// joins it on the server, the last leaves, and a redial joins every held
// group again — the server drops a connection's memberships with it.
type controlConn struct {
	mux *Mux
	// seed keys the redial backoff (stream ReconnectJitterKey); redials
	// numbers its sleeps across the run, so each draws a fresh substream.
	seed    uint64
	redials uint64
	// port is the shared receiver's, where every join sends the group.
	port int

	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	dialed bool
	refs   map[mcast.Group]int
}

// handshake dials, says hello and reads the server's welcome — the one
// place a Welcome enters the process, so the one place it is validated
// and, on a redial, held to the broadcast epoch the run began under — and
// on a redial joins every held group again. Callers hold mu and have no
// connection open.
func (c *controlConn) handshake() (*wire.Welcome, error) {
	conn, err := net.DialTimeout("tcp", c.mux.cfg.ServerAddr, controlTimeout)
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
	for g := range c.refs {
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
	if c.dialed {
		c.mux.reconnects.Add(1)
		c.mux.tracef("reconnect", "control connection re-established")
		c.mux.cfg.Logf("viewer: control connection re-established")
	}
	c.dialed = true
	return m.Welcome, nil
}

// redialLocked replaces a broken connection, sleeping a full-jitter delay
// from a doubling window between attempts: after a server restart every
// audience of the old process re-dials at once, and the jitter — keyed on
// each mux's own seed — spreads the wave. A changed epoch is
// refused at once: no retry can make it the same broadcast.
func (c *controlConn) redialLocked() error {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(msg, wantReply)
}

// roundTripLocked is roundTrip for callers holding mu.
func (c *controlConn) roundTripLocked(msg *wire.Control, wantReply bool) (*wire.Control, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if c.conn == nil {
			if !wantReply {
				return nil, nil // fire-and-forget on a dead link: drop it
			}
			if err := c.redialLocked(); err != nil {
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
				c.mux.tracef("server-bye", "server draining; disabling repairs")
				c.mux.cfg.Logf("viewer: server draining (bye); repairs disabled for all viewers")
				c.closeLocked()
				return nil, errMuxDraining
			}
			return reply, nil
		}
		lastErr = err
		c.closeLocked()
	}
	return nil, lastErr
}

// repair pulls one chunk over unicast.
func (c *controlConn) repair(video, channel int, seq uint32, offset int64, length int) ([]byte, error) {
	req := &wire.Repair{Video: video, Channel: channel, Seq: seq, Offset: offset, Length: length}
	reply, err := c.roundTrip(&wire.Control{Kind: wire.KindRepair, Repair: req}, true)
	if err != nil {
		return nil, err
	}
	if reply.Kind == wire.KindBusy {
		return nil, &busyError{retryAfter: time.Duration(reply.RetryAfterNanos)}
	}
	if reply.Kind != wire.KindRepairOK || reply.Repair == nil {
		return nil, fmt.Errorf("viewer: repair rejected: %s", reply.Error)
	}
	rp := reply.Repair
	if rp.Video != video || rp.Channel != channel || rp.Offset != offset || len(rp.Data) != length {
		return nil, fmt.Errorf("viewer: repair reply mismatch: got %d/%d@%d (%d bytes)", rp.Video, rp.Channel, rp.Offset, len(rp.Data))
	}
	return rp.Data, nil
}

// nack reports a burst of losses as one gap-bitmap NACK — the cohort's
// aggregated voice — and returns a predicate over the chunks the server
// accepted for multicast re-send. A transport or protocol failure, or a
// reply for another fragment repetition, returns an error; the caller
// escalates every chunk to unicast repair.
func (c *controlConn) nack(video, channel int, seq uint32, chunks []int) (func(idx int) bool, error) {
	req := wire.NackFromChunks(video, channel, seq, chunks)
	reply, err := c.roundTrip(&wire.Control{Kind: wire.KindNack, Nack: req}, true)
	if err != nil {
		return nil, err
	}
	if reply.Kind == wire.KindBusy {
		return nil, &busyError{retryAfter: time.Duration(reply.RetryAfterNanos)}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
}

func (c *controlConn) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

func (c *controlConn) joinMsg(g mcast.Group) *wire.Control {
	return &wire.Control{Kind: wire.KindJoin, Video: g.Video, Channel: g.Channel, Port: c.port}
}

// join adds one subscriber of g, joining it on the server for the first.
func (c *controlConn) join(g mcast.Group) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs[g] > 0 {
		c.refs[g]++
		return nil
	}
	reply, err := c.roundTripLocked(c.joinMsg(g), true)
	if err != nil {
		return fmt.Errorf("viewer: waiting for join ack: %w", err)
	}
	if reply.Kind != wire.KindJoined {
		return fmt.Errorf("viewer: join rejected: %s", reply.Error)
	}
	c.refs[g] = 1
	return nil
}

// leave drops one subscriber of g, leaving it on the server with the last.
func (c *controlConn) leave(g mcast.Group) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs[g] == 0 {
		return
	}
	if c.refs[g]--; c.refs[g] == 0 {
		delete(c.refs, g)
		_, _ = c.roundTripLocked(&wire.Control{Kind: wire.KindLeave, Video: g.Video, Channel: g.Channel}, false)
	}
}
