package harness

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// Grid is the broadcast schedule a Welcome banner describes: enough to
// name the instant every datagram is due on the wire.
type Grid struct {
	Epoch        time.Time
	Unit         time.Duration
	Sizes        []int64
	BytesPerUnit int
	ChunkBytes   int
	bases        []int64 // byte offset of each fragment in the video
}

// NewGrid reads the schedule off a Welcome. The epoch is anchored to this
// process's monotonic clock: the server paces on its monotonic clock, and
// a wall-clock step during the run (this kind of VM takes them) would
// otherwise read as lateness.
func NewGrid(w *wire.Welcome) (*Grid, error) {
	if w.UnitNanos <= 0 || w.ChunkBytes <= 0 || w.BytesPerUnit < w.ChunkBytes || len(w.SizeUnits) == 0 {
		return nil, fmt.Errorf("harness: malformed welcome %+v", *w)
	}
	anchor := time.Now()
	g := &Grid{Epoch: anchor.Add(-time.Duration(anchor.UnixNano() - w.EpochUnixNano)), Unit: time.Duration(w.UnitNanos),
		Sizes: w.SizeUnits, BytesPerUnit: w.BytesPerUnit, ChunkBytes: w.ChunkBytes}
	var units int64
	for _, s := range w.SizeUnits {
		g.bases = append(g.bases, units*int64(w.BytesPerUnit))
		units += s
	}
	return g, nil
}

// WallStep is how far the wall clock has moved against the monotonic
// clock since the grid was anchored.
func (g *Grid) WallStep(w *wire.Welcome) time.Duration {
	now := time.Now()
	return time.Duration(now.UnixNano()-w.EpochUnixNano) - now.Sub(g.Epoch)
}

// Chunks is the number of data chunks in one broadcast of channel (1-based).
func (g *Grid) Chunks(channel int) int {
	return int(g.Sizes[channel-1]) * g.BytesPerUnit / g.ChunkBytes
}

// Instant is when chunk idx of repetition seq of channel is due:
// epoch + seq·size·unit + idx·⌊size·unit/chunks⌋, the server's arithmetic.
func (g *Grid) Instant(channel int, seq uint32, idx int) time.Time {
	period := time.Duration(g.Sizes[channel-1]) * g.Unit
	spacing := period / time.Duration(g.Chunks(channel))
	return g.Epoch.Add(time.Duration(seq)*period + time.Duration(idx)*spacing)
}

// Spacing is the gap between consecutive chunk instants — the same on
// every channel, because every fragment carries BytesPerUnit per unit.
func (g *Grid) Spacing() time.Duration {
	return g.Unit / time.Duration(g.BytesPerUnit/g.ChunkBytes)
}

// UnitTime converts an absolute (fractional) unit to wall time.
func (g *Grid) UnitTime(u float64) time.Time {
	return g.Epoch.Add(time.Duration(u * float64(g.Unit)))
}

// controlTimeout bounds every control round trip the harness makes.
const controlTimeout = 5 * time.Second

// Control is one control connection driven with the wire package's codec.
// Round trips are serialized; each returns how long it took.
type Control struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// DialControl opens a control connection.
func DialControl(addr string) (*Control, error) {
	conn, err := net.DialTimeout("tcp", addr, controlTimeout)
	if err != nil {
		return nil, fmt.Errorf("harness: dialing control %s: %w", addr, err)
	}
	return &Control{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close says bye and closes the connection.
func (c *Control) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.conn.SetDeadline(time.Now().Add(time.Second))
	_ = wire.WriteControl(c.conn, &wire.Control{Kind: wire.KindBye}) // best effort: the close below ends the session anyway
	c.conn.Close()
}

func (c *Control) roundTrip(req *wire.Control, wantKind string) (*wire.Control, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	_ = c.conn.SetDeadline(start.Add(controlTimeout))
	if err := wire.WriteControl(c.conn, req); err != nil {
		return nil, 0, err
	}
	if wantKind == "" {
		return nil, time.Since(start), nil
	}
	reply, err := wire.ReadControl(c.r)
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, fmt.Errorf("harness: %s reply: %w", req.Kind, err)
	}
	if reply.Kind != wantKind {
		return reply, rtt, fmt.Errorf("harness: %s answered %q (%s)", req.Kind, reply.Kind, reply.Error)
	}
	return reply, rtt, nil
}

// Hello performs the hello/welcome round trip.
func (c *Control) Hello() (*wire.Welcome, time.Duration, error) {
	reply, rtt, err := c.roundTrip(&wire.Control{Kind: wire.KindHello}, wire.KindWelcome)
	if err != nil {
		return nil, rtt, err
	}
	if reply.Welcome == nil {
		return nil, rtt, errors.New("harness: welcome without payload")
	}
	return reply.Welcome, rtt, nil
}

// Join subscribes UDP port to (video, channel).
func (c *Control) Join(video, channel, port int) (time.Duration, error) {
	_, rtt, err := c.roundTrip(&wire.Control{Kind: wire.KindJoin, Video: video, Channel: channel, Port: port}, wire.KindJoined)
	return rtt, err
}

// Leave drops the membership (fire and forget, as the protocol has it).
func (c *Control) Leave(video, channel int) error {
	_, _, err := c.roundTrip(&wire.Control{Kind: wire.KindLeave, Video: video, Channel: channel}, "")
	return err
}

// Repair pulls one chunk over unicast.
func (c *Control) Repair(video, channel int, seq uint32, offset int64, length int) ([]byte, time.Duration, error) {
	req := &wire.Repair{Video: video, Channel: channel, Seq: seq, Offset: offset, Length: length}
	reply, rtt, err := c.roundTrip(&wire.Control{Kind: wire.KindRepair, Repair: req}, wire.KindRepairOK)
	if err != nil {
		return nil, rtt, err
	}
	if reply.Repair == nil || len(reply.Repair.Data) != length {
		return nil, rtt, errors.New("harness: repair reply carries the wrong length")
	}
	return reply.Repair.Data, rtt, nil
}

// Nack reports missing chunks as one gap bitmap.
func (c *Control) Nack(video, channel int, seq uint32, chunks []int) (time.Duration, error) {
	_, rtt, err := c.roundTrip(&wire.Control{Kind: wire.KindNack, Nack: wire.NackFromChunks(video, channel, seq, chunks)}, wire.KindNackOK)
	return rtt, err
}

// Probe is the harness's own minimal viewer. It holds at most two channel
// memberships at a time — one start-latency session and one roving
// lateness tap — and timestamps every datagram against its grid instant.
type Probe struct {
	addr string
	grid *Grid
	rec  *Recorder

	mu sync.Mutex
	st ProbeStats // the sample slices, session count and errors; counters are filled in by Stats

	datagrams    atomic.Int64
	offSchedule  atomic.Int64 // verified, but not advancing the channel's schedule (re-sends, dups, reorders)
	decodeErrors atomic.Int64

	// Schedule slip. The wheel catches a stalled shard up only through a
	// batching sender; behind the fault injector it sends one chunk per
	// entry per tick for ever after, so every stall of a whole tick or
	// more (this kind of VM pauses for 10–30 ms a few times a minute)
	// shifts the whole schedule by that many ticks for the rest of the run.
	// The rover tracks the shift — the trailing minimum of raw lateness, in
	// whole ticks — and, on a workload with a fault plan, lateness and
	// start latency are taken against the shifted schedule, or they would
	// measure the host's pauses. probe.schedule_slip_ms reports the shift.
	compensate bool
	slipRing   [slipWindow]time.Duration
	slipSeen   int
	slipTicks  atomic.Int64
	slipMax    atomic.Int64
}

// slipWindow is how many consecutive schedule datagrams must all be a
// tick late before the schedule counts as slipped by that tick.
const slipWindow = 16

// NewProbe prepares a probe against the server at addr. compensate takes
// timing against the slipped schedule (see Probe).
func NewProbe(addr string, grid *Grid, rec *Recorder, compensate bool) *Probe {
	return &Probe{addr: addr, grid: grid, rec: rec, compensate: compensate}
}

// ProbeStats is what a probe measured, poolable over the waves of a run.
type ProbeStats struct {
	LateMs     []float64 // receive time − grid instant, schedule datagrams only
	StartUnits []float64 // per session: due → start of the first broadcast caught, in units
	HelloUs    []float64
	JoinUs     []float64
	RepairUs   []float64
	NackUs     []float64
	LagMs      []float64 // how late each session started after it was due
	Sessions   int
	// SessionErrs names every session that saw no verified chunk.
	SessionErrs                          []string
	Datagrams, OffSchedule, DecodeErrors int64
	MaxSlip                              time.Duration
}

// Stats returns what the probe measured; call it once its goroutines are done.
func (p *Probe) Stats() ProbeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.st
	st.Datagrams, st.OffSchedule, st.DecodeErrors = p.datagrams.Load(), p.offSchedule.Load(), p.decodeErrors.Load()
	st.MaxSlip = p.MaxSlip()
	return st
}

func (s *ProbeStats) merge(o ProbeStats) {
	s.LateMs, s.StartUnits = append(s.LateMs, o.LateMs...), append(s.StartUnits, o.StartUnits...)
	s.HelloUs, s.JoinUs = append(s.HelloUs, o.HelloUs...), append(s.JoinUs, o.JoinUs...)
	s.RepairUs, s.NackUs = append(s.RepairUs, o.RepairUs...), append(s.NackUs, o.NackUs...)
	s.LagMs, s.SessionErrs = append(s.LagMs, o.LagMs...), append(s.SessionErrs, o.SessionErrs...)
	s.Sessions += o.Sessions
	s.Datagrams, s.OffSchedule, s.DecodeErrors = s.Datagrams+o.Datagrams, s.OffSchedule+o.OffSchedule, s.DecodeErrors+o.DecodeErrors
	s.MaxSlip = max(s.MaxSlip, o.MaxSlip)
}

// MaxSlip is the largest shift the rover saw.
func (p *Probe) MaxSlip() time.Duration { return time.Duration(p.slipMax.Load()) * p.grid.Spacing() }

// Slip is the schedule's current shift, a whole number of ticks.
func (p *Probe) Slip() time.Duration { return time.Duration(p.slipTicks.Load()) * p.grid.Spacing() }

// observeSlip folds one raw lateness sample into the slip estimate; only
// the rover calls it.
func (p *Probe) observeSlip(late time.Duration) {
	p.slipRing[p.slipSeen%slipWindow] = late
	p.slipSeen++
	if p.slipSeen < slipWindow {
		return
	}
	lo := p.slipRing[0]
	for _, v := range p.slipRing[1:] {
		lo = min(lo, v)
	}
	ticks := max(0, int64(lo/p.grid.Spacing()))
	p.slipTicks.Store(ticks)
	if ticks > p.slipMax.Load() {
		p.slipMax.Store(ticks)
	}
}

// shift is how far behind the grid the probe takes the schedule to be:
// the slip where it compensates for it, nothing elsewhere.
func (p *Probe) shift() time.Duration {
	if p.compensate {
		return p.Slip()
	}
	return 0
}

// adjusted is a raw lateness as the metrics count it.
func (p *Probe) adjusted(late time.Duration) time.Duration { return late - p.shift() }

// position orders datagrams of one channel along the schedule.
type position struct {
	seq uint32
	idx int
}

func (p position) after(q position) bool {
	return p.seq > q.seq || (p.seq == q.seq && p.idx > q.idx)
}

// datagram is what check extracts from one verified data frame.
type datagram struct {
	video, channel int
	pos            position
	late           time.Duration
	parity         bool
}

// check decodes and verifies one frame received at now: CRC through
// wire.Decode, bytes through content.Verify, and its lateness against the
// grid. Parity frames are CRC-checked only. Every 64th frame is traced.
func (p *Probe) check(frame []byte, now time.Time, n int64, traceID string) (datagram, bool) {
	var rec *Recorder
	if n%64 == 0 {
		rec = p.rec
	}
	root := rec.Start("recv", traceID, 0)
	defer rec.End(root)
	if wire.IsParity(frame) {
		sp := rec.Start("wire.decode", traceID, root)
		par, err := wire.DecodeParity(frame)
		rec.End(sp)
		if err != nil {
			p.decodeErrors.Add(1)
			return datagram{}, false
		}
		return datagram{video: int(par.Video), channel: int(par.Channel), parity: true}, true
	}
	sp := rec.Start("wire.decode", traceID, root)
	c, err := wire.Decode(frame)
	rec.End(sp)
	ch := int(c.Channel)
	if err != nil || ch < 1 || ch > len(p.grid.Sizes) || int(c.Offset)%p.grid.ChunkBytes != 0 {
		p.decodeErrors.Add(1)
		return datagram{}, false
	}
	sp = rec.Start("content.verify", traceID, root)
	bad := content.Verify(c.Payload, int(c.Video), p.grid.bases[ch-1]+int64(c.Offset))
	rec.End(sp)
	if bad >= 0 {
		p.decodeErrors.Add(1)
		return datagram{}, false
	}
	pos := position{seq: c.Seq, idx: int(c.Offset) / p.grid.ChunkBytes}
	return datagram{video: int(c.Video), channel: ch, pos: pos, late: now.Sub(p.grid.Instant(ch, pos.seq, pos.idx))}, true
}

// maxFrame is the largest datagram the server can emit: a parity frame
// over a full stripe of the largest payload.
var maxFrame = wire.EncodedSize(wire.ParityOverhead(wire.MaxFecGroup, wire.MaxPayload))

// RunSessions runs the start-latency schedule open loop: each session
// starts at its due time on its own goroutine whether or not the previous
// one has finished, and is timed from when it was due.
func (p *Probe) RunSessions(sessions []ProbeSession, wave int) {
	var wg sync.WaitGroup
	for k, s := range sessions {
		due := p.grid.UnitTime(s.DueUnits)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(k int, s ProbeSession) {
			defer wg.Done()
			err := p.session(fmt.Sprintf("probe-%d-%d", wave, k), s.Video, due)
			p.mu.Lock()
			p.st.Sessions++
			if err != nil {
				p.st.SessionErrs = append(p.st.SessionErrs, fmt.Sprintf("session %d of wave %d (video %d): %v", k, wave, s.Video, err))
			}
			p.mu.Unlock()
		}(k, s)
	}
	wg.Wait()
}

// sessionPatience is how long after it was due a session waits for its
// chunk: the broadcast is at most a unit and two round trips away, and the
// rest is the host's — a deadline that passes while the process is paused
// fails the read even though the datagram is in the socket by then.
func sessionPatience(unit time.Duration) time.Duration { return 4*unit + 2*time.Second }

// session is one viewer request for video, on a control connection of its
// own as a real viewer's is: dial, hello, join fragment 1, and wait for
// the first verified chunk of a broadcast that began after the join was
// acknowledged — the paper's access latency, ≤ 1 unit + control round
// trips.
func (p *Probe) session(traceID string, video int, due time.Time) error {
	root := p.rec.Start("probe.session", traceID, 0)
	defer p.rec.End(root)
	lag := time.Since(due)

	rcv, err := mcast.NewReceiverSized(0)
	if err != nil {
		return err
	}
	defer rcv.Close()
	ctl, err := DialControl(p.addr)
	if err != nil {
		return err
	}
	defer ctl.Close() // the server drops the session's membership with the connection
	sp := p.rec.Start("control.hello", traceID, root)
	_, helloRTT, err := ctl.Hello()
	p.rec.End(sp)
	if err != nil {
		return err
	}
	sp = p.rec.Start("control.join", traceID, root)
	joinRTT, err := ctl.Join(video, 1, rcv.Addr().Port)
	p.rec.End(sp)
	if err != nil {
		return err
	}
	joined := time.Now()

	sp = p.rec.Start("wait.first_datagram", traceID, root)
	defer p.rec.End(sp)
	buf := make([]byte, maxFrame)
	_ = rcv.Conn.SetReadDeadline(due.Add(sessionPatience(p.grid.Unit)))
	var lates []float64
	last, started := position{}, false
	for {
		n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
		now := time.Now()
		if err != nil {
			return fmt.Errorf("no verified fragment-1 chunk within %v: %w", sessionPatience(p.grid.Unit), err)
		}
		d, ok := p.check(buf[:n], now, p.datagrams.Add(1), traceID)
		if !ok || d.parity || d.video != video || d.channel != 1 {
			continue
		}
		if started && !d.pos.after(last) {
			p.offSchedule.Add(1)
			continue
		}
		last, started = d.pos, true
		lates = append(lates, float64(p.adjusted(d.late))/1e6)
		if p.grid.Instant(1, d.pos.seq, 0).Add(p.shift()).Before(joined) {
			continue // mid-broadcast: a viewer cannot start playback here
		}
		p.mu.Lock()
		// Timed to the start of the broadcast the chunk belongs to: when
		// chunk 0 is one the fault plan drops in every repetition, a viewer
		// still starts on time (the stripe or a repair fills it in), so the
		// later chunk that arrived first stands in for it.
		wait := now.Sub(due) - time.Duration(d.pos.idx)*p.grid.Spacing()
		p.st.StartUnits = append(p.st.StartUnits, float64(p.adjusted(wait))/float64(p.grid.Unit))
		p.st.HelloUs = append(p.st.HelloUs, float64(helloRTT)/1e3)
		p.st.JoinUs = append(p.st.JoinUs, float64(joinRTT)/1e3)
		p.st.LagMs = append(p.st.LagMs, float64(lag)/1e6)
		p.st.LateMs = append(p.st.LateMs, lates...)
		p.mu.Unlock()
		return nil
	}
}

// gap is a hole the rover saw in one complete broadcast.
type gap struct {
	video, channel int
	seq            uint32
	chunks         []int
}

// RunRover keeps one membership alive over the whole window, hopping to a
// new (video, channel) on the plan's schedule, and samples delivery
// lateness on everything that advances a channel's schedule. When a
// broadcast it watched from the start shows holes, it times one NACK and
// one unicast repair round trip (lossy workloads only see any).
func (p *Probe) RunRover(hops []RoverHop, until time.Time) error {
	if len(hops) == 0 {
		return nil
	}
	ctl, err := DialControl(p.addr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	rcv, err := mcast.NewReceiverSized(0)
	if err != nil {
		return err
	}
	defer rcv.Close()

	// Round trips run beside the read loop, never in it: a blocked reader
	// would stamp the datagrams queued behind it late.
	gaps := make(chan gap, 1) // one pending probe is enough; further gaps are skipped, not queued
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for g := range gaps {
			p.probeRepair(ctl, g)
		}
	}()
	defer rwg.Wait()
	defer close(gaps)

	// chanState follows one channel's schedule position and, for each
	// broadcast the rover was joined for from its first chunk, which chunks
	// arrived.
	type chanState struct {
		joined  time.Time
		started bool
		last    position
		whole   bool
		seen    map[int]bool
	}
	states := map[[2]int]*chanState{}
	buf := make([]byte, maxFrame)
	cur := -1
	for {
		if next := cur + 1; next < len(hops) && !time.Now().Before(p.grid.UnitTime(float64(hops[next].AtUnits))) {
			if cur >= 0 {
				if err := ctl.Leave(hops[cur].Video, hops[cur].Channel); err != nil {
					return err
				}
			}
			h := hops[next]
			sp := p.rec.Start("control.join", "rover", 0)
			_, err := ctl.Join(h.Video, h.Channel, rcv.Addr().Port)
			p.rec.End(sp)
			if err != nil {
				return err
			}
			states[[2]int{h.Video, h.Channel}] = &chanState{joined: time.Now(), seen: map[int]bool{}}
			cur = next
		}
		if !time.Now().Before(until) {
			return nil
		}
		wake := until
		if cur+1 < len(hops) {
			wake = p.grid.UnitTime(float64(hops[cur+1].AtUnits))
		}
		_ = rcv.Conn.SetReadDeadline(wake)
		n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
		now := time.Now()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		d, ok := p.check(buf[:n], now, p.datagrams.Add(1), "rover")
		st := states[[2]int{d.video, d.channel}]
		if !ok || d.parity || st == nil {
			continue
		}
		if st.started && !d.pos.after(st.last) {
			p.offSchedule.Add(1)
			continue
		}
		if !st.started || d.pos.seq != st.last.seq {
			if chunks := p.grid.Chunks(d.channel); st.started && st.whole && len(st.seen) < chunks {
				g := gap{video: d.video, channel: d.channel, seq: st.last.seq}
				for i := 0; i < chunks; i++ {
					if !st.seen[i] {
						g.chunks = append(g.chunks, i)
					}
				}
				select {
				case gaps <- g:
				default:
				}
			}
			clear(st.seen)
			st.started = true
			st.whole = !p.grid.Instant(d.channel, d.pos.seq, 0).Before(st.joined)
		}
		st.last = d.pos
		st.seen[d.pos.idx] = true
		p.observeSlip(d.late)
		p.mu.Lock()
		p.st.LateMs = append(p.st.LateMs, float64(p.adjusted(d.late))/1e6)
		p.mu.Unlock()
	}
}

// probeRepair times one NACK and one unicast repair for a hole, verifying
// the repaired bytes.
func (p *Probe) probeRepair(ctl *Control, g gap) {
	sp := p.rec.Start("control.nack", "rover", 0)
	nackRTT, err := ctl.Nack(g.video, g.channel, g.seq, g.chunks)
	p.rec.End(sp)
	if err == nil {
		p.mu.Lock()
		p.st.NackUs = append(p.st.NackUs, float64(nackRTT)/1e3)
		p.mu.Unlock()
	}
	off := int64(g.chunks[0]) * int64(p.grid.ChunkBytes)
	sp = p.rec.Start("control.repair", "rover", 0)
	data, rtt, err := ctl.Repair(g.video, g.channel, g.seq, off, p.grid.ChunkBytes)
	p.rec.End(sp)
	if err != nil {
		return // Busy or a drained server: no sample, not a fault of the probe
	}
	if content.Verify(data, g.video, p.grid.bases[g.channel-1]+off) >= 0 {
		p.decodeErrors.Add(1)
		return
	}
	p.mu.Lock()
	p.st.RepairUs = append(p.st.RepairUs, float64(rtt)/1e3)
	p.mu.Unlock()
}
