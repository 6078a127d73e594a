// The egress engine: the wheel, a small fixed pool of shard goroutines
// that drives every (video, channel) broadcast schedule.
//
// M videos × K channels are M·K schedules, but not M·K timers: each shard
// owns a fixed subset of the channels as a flat list, quantizes time to
// their chunk spacing, and sleeps until the earliest due tick. One wakeup
// collects *every* chunk due in that tick across all the shard's channels
// and hands them to the sender as a single batch (mcast.BatchSender), which
// puts them on the wire in sendmmsg batches. The paper broadcasts every
// channel at the one display rate, so every entry is due every tick and
// finding the due ones is a pass over the list — there is no structure to
// keep. Steady state is one timer wakeup and a handful of syscalls per tick
// per shard, independent of how many channels share the tick — the paper's
// O(channels) server cost with the constant actually small.
//
// A tick is built before its instant and only sent on it. Nothing in a
// frame depends on the instant it leaves at, so a shard wakes early
// enough to stage the whole batch — fault-plan decisions for every due
// chunk, materialised frames for the heard ones, cursors advanced — and,
// when anything is heard, to warm the send path with one datagram to the
// hub's own sink (mcast.Hub.Warm), then holds on the clock, and at the
// instant only releases it: the one send, the drift check. Without the
// warm the tick's first datagram would pay tens of microseconds after the
// instant for a transmit path gone cold since the last tick.
//
// What every channel is owed:
//
//   - The absolute epoch-anchored grid: entry positions are derived from
//     the clock (resync), never from send counts, so chunk c of
//     repetition n is due at epoch + n*period_i + c*spacing_i — the
//     golden equivalence test pins every frame released to the closed
//     form of that grid.
//   - Supervision: a shard runs under a panic-recovery/backoff loop
//     (runWheelShard); a restarted shard resyncs every entry from the
//     clock and rejoins the grid mid-repetition instead of replaying a
//     burst.
//   - The drift watchdog: every chunk sent more than one unit after its
//     scheduled instant counts a drift event, with rate-limited logging —
//     sustained drift means the host cannot keep the grid and clients
//     will see schedule misses as losses.
//
// What a tick costs follows what is heard, not M·K: every due chunk keeps
// its place on the grid (cursor, fault-plan accounting), but only a
// chunk whose group has a listener is materialised and staged.
//
// The wheel is the server's only sender: NACK re-sends ride the releases
// of the shard that owns their channel (stageResends).
package server

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
)

// wheelMaxRun caps how many chunks one entry may stage into a single
// dispatch when catching up. 64 matches the kernel's UDP GSO segment cap
// (UDP_MAX_SEGMENTS), so a maximal catch-up run coalesces into exactly
// one super-frame on the GSO path.
const wheelMaxRun = 64

// The supervisor's (runWheelShard) restart backoff: exponential between
// shardRestartBase and shardRestartMax, reset for a shard that stayed up
// longer than shardStableAfter.
const (
	shardRestartBase = 5 * time.Millisecond
	shardRestartMax  = 500 * time.Millisecond
	shardStableAfter = time.Second
)

// Bounds on the wheel quantum. The quantum tracks the finest chunk
// spacing so same-tick chunks batch without adding schedule error beyond
// one spacing; the floor keeps a pathological spacing from turning the
// wheel into a busy loop, the ceiling bounds how much of a sparse schedule
// one tick may gather.
const (
	minWheelQuantum = 50 * time.Microsecond
	maxWheelQuantum = time.Second
)

// wheelEntry is one channel's place in the broadcast schedule: its static
// geometry (period, spacing, chunk count) and its cursor (repetition n,
// chunk c, and the absolute due offset from the epoch).
type wheelEntry struct {
	group mcast.Group
	cc    *channelCache

	period  time.Duration
	spacing time.Duration
	chunks  int

	n   uint32
	c   int
	due time.Duration // offset of the next send from the epoch
	// heard is whether the channel had a listener in the membership
	// snapshot the shard last looked at (wheelShard.seen); true until a
	// stage has a hub to ask.
	heard bool
	// The tick being staged: its first chunk (repetition firstN, chunk
	// firstC, due at firstDue — the most-late one) and how many chunks it
	// holds. Staging advances the cursor past them before the batch
	// leaves, so release reads them here: the drift check measures and
	// names its first chunk.
	firstN   uint32
	firstC   int
	firstDue time.Duration
	run      int
}

// resync points the entry at the grid slot containing elapsed — the chunk
// due now or most recently — so a shard restart rejoins the schedule where
// the clock is, not where the sends left off.
func (e *wheelEntry) resync(elapsed time.Duration) {
	if elapsed < 0 {
		elapsed = 0
	}
	n := elapsed / e.period
	c := int((elapsed % e.period) / e.spacing)
	if c >= e.chunks {
		n, c = n+1, 0
	}
	e.n = uint32(n)
	e.c = c
	e.due = time.Duration(e.n)*e.period + time.Duration(e.c)*e.spacing
}

// advance moves the cursor to the next chunk. The due offset is always
// recomputed from (n, c) — not incremented by spacing — because spacing
// is the floor of period/chunks, and accumulating it would let the
// schedule creep off the repetition boundaries the clients compute.
func (e *wheelEntry) advance() {
	if e.c++; e.c >= e.chunks {
		e.n, e.c = e.n+1, 0
	}
	e.due = time.Duration(e.n)*e.period + time.Duration(e.c)*e.spacing
}

// wheelShard owns a fixed subset of the channel entries and runs their
// schedule from one goroutine. due and batch are reused across wakeups.
type wheelShard struct {
	s       *Server
	id      int
	entries []*wheelEntry
	// tickLen is the run's quantum and cur the next tick not yet collected:
	// time is cut into ticks of tickLen from the epoch, and one tick's
	// entries leave together — that is the batching.
	tickLen time.Duration
	cur     int64
	due     []*wheelEntry
	batch   []mcast.BatchEntry
	// batchSeq is the repetition of the batch's first frame, for the log
	// line of a failed send.
	batchSeq uint32
	// arena backs every frame one tick stages; stage resets it on entry,
	// after the previous tick's sends have returned.
	arena frameArena
	// seen is the membership snapshot the entries' heard flags were drawn
	// from; they are redrawn only when the hub publishes another.
	seen mcast.Listeners

	// tick is the source the current run parks on between ticks, nil
	// between runs. tickMu orders its publication against stopWheel so a
	// stopping server always reaches a parked shard.
	tickMu sync.Mutex
	tick   tickSource
	// wakeLate records, for every tick, how far past its grid instant the
	// shard began the release; stageTime how long staging the tick took
	// (before the instant, when the lead covered it), warmTime, when there
	// was anything to send, how long the warm at its end took, and
	// sendTime how long inside SendBatch. All in nanoseconds.
	wakeLate  metrics.Log2Histogram
	stageTime metrics.Log2Histogram
	warmTime  metrics.Log2Histogram
	sendTime  metrics.Log2Histogram
	// wakeLead and stageLead are what the shard has measured its wake
	// latency and its staging time to be; it arms its tick source their
	// sum ahead of a grid instant (lead).
	wakeLead  leadEstimator
	stageLead leadEstimator

	// resends are the chunks NACKs queued for the next stage, under
	// resendMu (Server.nackResend); staging is what the last stage took.
	resendMu         sync.Mutex
	resends, staging []resend
}

// resend is one NACKed chunk of an entry's channel, under the NACK's Seq.
type resend struct {
	e     *wheelEntry
	seq   uint32
	chunk int
}

// newWheelEntry builds the schedule state for (video v, channel i): chunks
// of repetition n are spread evenly across [epoch + n*period,
// epoch + (n+1)*period).
func (s *Server) newWheelEntry(v, i int) *wheelEntry {
	size := s.cfg.Scheme.Sizes()[i-1]
	period := time.Duration(size) * s.cfg.Unit
	chunks := s.fragmentBytes(i) / s.cfg.ChunkBytes
	return &wheelEntry{
		group:   mcast.Group{Video: v, Channel: i},
		cc:      s.cache.channel(v, i),
		heard:   true,
		period:  period,
		spacing: period / time.Duration(chunks),
		chunks:  chunks,
	}
}

// startWheel launches the egress shards, min(GOMAXPROCS, channels) of
// them, each under its own supervisor.
func (s *Server) startWheel() {
	s.wheel = s.newWheel(runtime.GOMAXPROCS(0))
	for _, sh := range s.wheel {
		s.wg.Add(1)
		go s.runWheelShard(sh)
	}
}

// newWheel deals every (video, channel) entry round-robin across
// min(n, channels) shards: entry j = video·K + channel − 1 goes to shard
// j mod n, at its index j / n (entry).
func (s *Server) newWheel(n int) []*wheelShard {
	k := s.cfg.Scheme.K()
	channels := s.cfg.Scheme.Config().Videos * k
	wheel := make([]*wheelShard, min(n, channels))
	for si := range wheel {
		wheel[si] = &wheelShard{s: s, id: si}
	}
	for j := 0; j < channels; j++ {
		sh := wheel[j%len(wheel)]
		sh.entries = append(sh.entries, s.newWheelEntry(j/k, j%k+1))
	}
	return wheel
}

// entry finds the shard that owns (video, channel) and its entry there.
func (s *Server) entry(video, channel int) (*wheelShard, *wheelEntry) {
	j := video*s.cfg.Scheme.K() + channel - 1
	sh := s.wheel[j%len(s.wheel)]
	return sh, sh.entries[j/len(s.wheel)]
}

// stopWheel wakes every shard parked on its tick source. Close calls it
// after closing s.stop: a shard that published its source before this
// sees the wake, one that publishes after sees the closed channel.
func (s *Server) stopWheel() {
	for _, sh := range s.wheel {
		sh.tickMu.Lock()
		if sh.tick != nil {
			sh.tick.wake()
		}
		sh.tickMu.Unlock()
	}
}

// newTickSource picks what a shard run waits on: the timerfd where the
// build has one and no shard has had to give it up, the runtime timer
// otherwise.
func (s *Server) newTickSource() tickSource {
	if haveTimerfd && !s.tickDemoted.Load() {
		src, err := newFdTicks()
		if err == nil {
			return src
		}
		s.demoteTicks(err)
	}
	return newTimerTicks(s.stop)
}

// demoteTicks records that the timerfd let a shard down — creation
// failed, or a wait returned something other than a tick — and logs the
// first occurrence. From then on every shard run waits on the runtime
// timer; shards still parked on a working timerfd keep it until their
// run ends.
func (s *Server) demoteTicks(err error) {
	if !s.tickDemoted.Swap(true) {
		s.cfg.Logf("server: timerfd tick source unavailable (%v); egress shards wait on the runtime timer", err)
	}
}

// poke ends the shard's park, or its next one, so re-sends just queued
// leave now.
func (sh *wheelShard) poke() {
	sh.tickMu.Lock()
	if sh.tick != nil {
		sh.tick.poke()
	}
	sh.tickMu.Unlock()
}

// queued reports whether re-sends wait for the next stage.
func (sh *wheelShard) queued() bool {
	sh.resendMu.Lock()
	defer sh.resendMu.Unlock()
	return len(sh.resends) > 0
}

// setTick publishes (or, with nil, retires) the run's tick source and
// closes the one it replaces.
func (sh *wheelShard) setTick(src tickSource) {
	sh.tickMu.Lock()
	old := sh.tick
	sh.tick = src
	sh.tickMu.Unlock()
	if old != nil {
		old.close()
	}
}

// runWheelShard supervises one shard: a shard is the one goroutine its
// channels cannot survive losing, so panics are recovered, the shard
// restarts with exponential backoff, and a stable run earns the backoff
// reset. Restarts are counted in shardRestarts.
func (s *Server) runWheelShard(sh *wheelShard) {
	defer s.wg.Done()
	backoff := shardRestartBase
	for {
		started := s.clock.now()
		if sh.runRecovering() {
			return // orderly exit: server stopping
		}
		d := s.shardRestarts.Add(1)
		if s.clock.now().Sub(started) > shardStableAfter {
			backoff = shardRestartBase
		}
		s.cfg.Logf("server: restarting egress shard %d (%d channels) in %v (restart #%d)",
			sh.id, len(sh.entries), backoff, d)
		if !s.clock.sleep(backoff, s.stop) {
			return
		}
		if backoff *= 2; backoff > shardRestartMax {
			backoff = shardRestartMax
		}
	}
}

// runRecovering runs one shard attempt, converting a panic into a false
// return so the supervisor restarts it. An orderly return reports true.
func (sh *wheelShard) runRecovering() (done bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.s.cfg.Logf("server: egress shard %d panicked: %v\n%s", sh.id, r, debug.Stack())
		}
	}()
	sh.run()
	return true
}

// quantum picks the shard's wheel resolution: the finest chunk spacing
// among its entries, clamped to [minWheelQuantum, maxWheelQuantum].
func (sh *wheelShard) quantum() time.Duration {
	q := maxWheelQuantum
	for _, e := range sh.entries {
		if e.spacing < q {
			q = e.spacing
		}
	}
	if q < minWheelQuantum {
		q = minWheelQuantum
	}
	return q
}

// collect fills due with every entry whose due tick the clock has reached
// and advances cur past the tick containing now. A past-due entry belongs
// to tick cur: it waits for the clock to enter it, so a dispatch that left
// an entry behind hands it to the next tick, not to a spin on this one.
func (sh *wheelShard) collect(now time.Duration) {
	sh.due = sh.due[:0]
	target := int64(now / sh.tickLen)
	if target < sh.cur {
		return
	}
	sh.cur = target + 1
	end := time.Duration(sh.cur) * sh.tickLen
	for _, e := range sh.entries {
		if e.due < end {
			sh.due = append(sh.due, e)
		}
	}
}

// nextDue returns the epoch offset the shard should sleep until: the
// earliest due offset, but never before the start of the tick that will
// release it — a past-due entry keeps its stale offset while collect waits
// for tick cur, and waking any earlier would spin (timer fires, collect
// crosses no tick, nothing dispatches, repeat), burning the core exactly
// when the schedule is already behind. ok is false for a shard of nothing.
func (sh *wheelShard) nextDue() (next time.Duration, ok bool) {
	if len(sh.entries) == 0 {
		return 0, false
	}
	next = sh.entries[0].due
	for _, e := range sh.entries[1:] {
		next = min(next, e.due)
	}
	return max(next, time.Duration(sh.cur)*sh.tickLen), true
}

// leadBound is how far ahead of a grid instant the shard may arm its tick
// source: maxWakeLead, and never more than a quarter of its quantum.
func (sh *wheelShard) leadBound() time.Duration {
	return min(maxWakeLead, sh.quantum()/4)
}

// lead is how far ahead of a grid instant the shard arms its tick source:
// the time it takes to be running again, plus the time it takes to stage
// the tick, within bound.
func (sh *wheelShard) lead(bound time.Duration) time.Duration {
	return min(sh.wakeLead.value()+sh.stageLead.value(), bound)
}

// run is the shard's tick loop: park on the tick source until a little
// before the earliest due tick, collect everything due and stage it as
// one batch, hold on the clock until the instant, release the batch.
// Entered fresh after every restart, it resyncs every entry from the
// clock so the shard rejoins the absolute grid.
//
// The park ends `lead` early because the tick takes time before anything
// can be sent: being woken — the timer fires on the instant, the goroutine
// runs some tens of microseconds later — and staging the batch, which
// behind a fault plan takes longer than the wake. Both are measured
// (wakeLead, stageLead), so the batch is usually built just before the
// instant and the short hold that follows is what puts the send on it:
// nothing is sent early, and the hold never exceeds lead. A shard that
// wakes late, or whose staging overruns, sends late by the overrun; one
// already past the instant stages and sends at once. A wait that ends
// earlier than lead — or for no reason — is harmless: nothing is staged,
// and the next pass re-arms from the clock.
//
// Queued re-sends ride the next release: a tick's, or, when a poke ended
// the park too early to stage one, a release of the re-sends alone. A
// poke that finds the shard busy ends its next park.
func (sh *wheelShard) run() {
	s := sh.s
	sh.tickLen = sh.quantum()
	start := s.since()
	sh.cur = int64(start / sh.tickLen)
	for _, e := range sh.entries {
		e.resync(start)
	}
	maxLead := sh.leadBound()
	src := s.newTickSource()
	sh.setTick(src)
	defer sh.setTick(nil) // every exit, a panic included, releases the source
	select {
	case <-s.stop:
		return // stopWheel may have passed before the source was published
	default:
	}
	for {
		next, ok := sh.nextDue()
		wait, lead := time.Hour, time.Duration(0)
		if ok {
			lead = sh.lead(maxLead)
			wait = s.epoch.Add(next).Sub(s.clock.now()) - lead
		}
		ticked, err := s.clock.park(src, wait)
		if err != nil {
			// Finish this run on the runtime timer. The loop tolerates a
			// wait that ended early, so going round again is all it takes.
			s.demoteTicks(err)
			src = newTimerTicks(s.stop)
			sh.setTick(src)
			continue
		}
		if !ticked {
			return
		}
		if !ok {
			continue
		}
		now := s.since()
		if wait > 0 {
			// The source was armed for next-lead; this is how long
			// after it the shard is running.
			sh.wakeLead.observe(now-(next-lead), maxLead)
		}
		at := max(now, next)
		if next-now > lead {
			sh.due = sh.due[:0] // too early to stage for the tick
		} else {
			sh.collect(at)
		}
		if len(sh.due) == 0 {
			if sh.queued() {
				sh.stage(now)
				sh.release()
			}
			continue
		}
		sh.stageLead.observe(sh.stage(at), maxLead)
		if now < next {
			now = s.clock.hold(s.epoch.Add(next)).Sub(s.epoch)
		}
		sh.wakeLate.Observe(int64(now - next))
		s.wheelWakeups.Inc()
		sh.release()
	}
}

// stage builds the tick collect put in due, for the batch to leave at the
// epoch offset at, and reports how long that took; it sends nothing a
// member hears. The hub's membership snapshot is read once, on entry (and
// the per-channel answers redrawn only if it is not the one the last stage
// saw): a chunk
// whose group has a member is materialised into the shard's arena and
// staged into the tick's one batch, and a chunk nobody hears is not built
// at all. Under a fault plan every due frame, built or not, meets the
// plan's decision here (Server.emit), and the batch holds what leaves — a
// frame held back from the group's previous tick copied into the arena.
// Every due chunk advances its cursor. A group's first member that joins
// after the read starts with the next tick — even when it joins before
// this tick is released: release sends what was staged, so each frame's
// fault-plan decision is made exactly once.
//
// Catch-up shaping: when an entry has fallen behind — a stalled shard,
// a restart, a dense schedule — every chunk already due at `at` is
// staged in the same tick as one same-group contiguous run (capped at
// wheelMaxRun), instead of one chunk per wakeup; a shard that sent one
// chunk per tick would stay as many ticks late as it once stalled, for
// ever. A run may cross a repetition boundary: every staged frame is
// materialised into memory of its own with its own repetition number.
// The run order is the schedule order, so per-channel (rep, chunk)
// sequences stay contiguous on the grid, and a listener's share of the
// batch — one run or twenty channels' chunks — is what the hub's GSO path
// coalesces into super-frames.
//
// Queued re-sends go behind the scheduled frames (stageResends). A tick's
// non-empty batch then ends the stage with a warm (hubSeam.Warm), inside
// the timed region, so the stage lead — and with it the wake lead —
// covers it. Last, only the hold stands between the warm and the release,
// and a tick nobody hears is known not to need one. The fault plan never
// sees it. Re-sends alone (nothing due) leave at once, unwarmed.
func (sh *wheelShard) stage(at time.Duration) time.Duration {
	s := sh.s
	began := s.clock.now()
	sh.batch = sh.batch[:0]
	sh.arena.reset()
	if s.hub != nil { // nil only under tests that drive a never-started server
		if l := s.hub.Listeners(); l != sh.seen {
			sh.seen = l
			for _, e := range sh.entries {
				e.heard = l.Heard(e.group)
			}
		}
	}
	var scheduled, staged int64
	for _, e := range sh.due {
		if len(sh.batch) == 0 {
			sh.batchSeq = e.n
		}
		e.firstN, e.firstC, e.firstDue, e.run = e.n, e.c, e.due, 0
		for {
			sh.batch = s.emit(&sh.arena, sh.batch, e.group, e.cc, e.c, e.n, e.heard)
			e.advance()
			e.run++
			// A run ends when the entry is caught up or at the wheelMaxRun
			// cap; a still-behind entry is due again at the next tick and
			// that wakeup continues the catch-up.
			if e.due > at || e.run >= wheelMaxRun {
				break
			}
		}
		scheduled += int64(e.run)
		if e.heard {
			staged += int64(e.run)
		}
	}
	s.egressScheduled.Add(scheduled)
	s.egressStaged.Add(staged)
	sh.stageResends()
	if len(sh.due) == 0 {
		return 0
	}
	end := s.clock.now()
	if len(sh.batch) > 0 {
		s.send.Warm()
		warmed := s.clock.now()
		sh.warmTime.Observe(int64(warmed.Sub(end)))
		end = warmed
	}
	took := end.Sub(began)
	sh.stageTime.Observe(int64(took))
	return took
}

// stageResends takes the queue and materialises each chunk heard into the
// batch under its NACK's Seq, counting a datagram per member. The fault
// plan whose loss a re-send repairs never sees it, so cannot drop it again.
func (sh *wheelShard) stageResends() {
	s := sh.s
	sh.resendMu.Lock()
	sh.resends, sh.staging = sh.staging[:0], sh.resends
	sh.resendMu.Unlock()
	var datagrams int64
	for _, r := range sh.staging {
		if n := s.hub.Members(r.e.group); n > 0 {
			if len(sh.batch) == 0 {
				sh.batchSeq = r.seq
			}
			frame := s.cache.materialise(&sh.arena, r.e.cc, r.chunk, r.seq)
			sh.batch = append(sh.batch, mcast.BatchEntry{Group: r.e.group, Frame: frame})
			datagrams += int64(n)
		}
	}
	s.repairDatagrams.Add(datagrams)
}

// release puts the staged tick on the wire: it hands the batch to the hub
// in one call — the fault plan, if any, decided it at stage — and takes
// one drift sample per due entry, against the first (most-late) chunk the
// entry staged.
func (sh *wheelShard) release() {
	s := sh.s
	sent := s.since()
	if len(sh.batch) > 0 {
		stagedAt := sent
		if _, err := s.send.SendBatch(sh.batch); err != nil {
			select {
			case <-s.stop: // socket teardown fails trailing sends by design
			default:
				s.cfg.Logf("server: sending %v seq %d: %v", sh.batch[0].Group, sh.batchSeq, err)
			}
		}
		sent = s.since()
		sh.sendTime.Observe(int64(sent - stagedAt))
	}
	for _, e := range sh.due {
		if late := sent - e.firstDue; late > s.cfg.Unit {
			if d := s.driftEvents.Add(1); d == 1 || d%256 == 0 {
				s.cfg.Logf("server: pacing drift: %v seq %d chunk %d sent %v late (%d drift events)",
					e.group, e.firstN, e.firstC, late, d)
			}
		}
	}
}
