// The egress engine: the wheel, a small fixed pool of shard goroutines
// that drives every (video, channel) broadcast schedule.
//
// M videos × K channels are M·K schedules, but not M·K timers, nor M·K
// cursors. The paper broadcasts every channel at the one display rate, so
// every channel's chunks fall on one grid: chunk j of any channel's
// timeline — chunk c of repetition n, j = n·chunks + c — is due
// ⌊j·Unit/perUnit⌋ after the epoch, perUnit chunks to a unit. Each shard
// owns a fixed subset of the channels as a flat list and one index into
// that grid, sleeps until the chunk it names is due, and stages that chunk
// of every channel it owns as one batch for the sender
// (mcast.BatchSender), which puts them on the wire in sendmmsg batches.
// Steady state is one timer wakeup and a handful of syscalls per tick per
// shard, independent of how many channels share the tick — the paper's
// O(channels) server cost with the constant actually small.
//
// A tick is built before its instant and only sent on it. Nothing in a
// frame depends on the instant it leaves at, so a shard wakes early
// enough to stage the whole batch — fault-plan decisions for every due
// chunk, materialised frames for the heard ones, the index advanced — and,
// when anything is heard, to warm the send path with one datagram to the
// hub's own sink (mcast.Hub.Warm), then holds on the clock, and at the
// instant only releases it: the one send, the drift check. Without the
// warm the tick's first datagram would pay tens of microseconds after the
// instant for a transmit path gone cold since the last tick.
//
// What every channel is owed:
//
//   - The absolute epoch-anchored grid: the index is derived from the
//     clock (chunkAt), never from send counts, and every repetition n
//     starts exactly at epoch + n·period_i — the golden equivalence test
//     pins every frame released to the closed form of that grid, and
//     none leaves before its instant.
//   - Supervision: a shard runs under a panic-recovery/backoff loop
//     (runWheelShard); a restarted shard takes its index from the clock
//     and rejoins the grid mid-repetition instead of replaying a burst.
//   - The drift watchdog: every chunk sent more than one unit after its
//     scheduled instant counts a drift event, with rate-limited logging —
//     sustained drift means the host cannot keep the grid and clients
//     will see schedule misses as losses.
//
// What a tick costs follows what is heard, not M·K: every due chunk keeps
// its place on the grid (the index, fault-plan accounting), but only a
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

// wheelMaxRun caps how many chunks of each entry a shard may stage into a
// single dispatch when catching up. 64 matches the kernel's UDP GSO
// segment cap (UDP_MAX_SEGMENTS), so a maximal catch-up run coalesces
// into exactly one super-frame on the GSO path.
const wheelMaxRun = 64

// The supervisor's (runWheelShard) restart backoff: exponential between
// shardRestartBase and shardRestartMax, reset for a shard that stayed up
// longer than shardStableAfter.
const (
	shardRestartBase = 5 * time.Millisecond
	shardRestartMax  = 500 * time.Millisecond
	shardStableAfter = time.Second
)

// minWheelQuantum is the least time between two releases of a shard: a
// grid finer than it batches several chunks a tick instead of turning the
// wheel into a busy loop.
const minWheelQuantum = 50 * time.Microsecond

// wheelEntry is one channel of a shard: its group, its frames, and how
// many chunks a repetition holds. Where it is on the grid is the shard's.
type wheelEntry struct {
	group  mcast.Group
	cc     *channelCache
	chunks int
	// heard is whether the channel had a listener in the membership
	// snapshot the shard last looked at (wheelShard.seen); true until the
	// first stage reads one.
	heard bool
}

// wheelShard owns a fixed subset of the channel entries and runs their
// schedule from one goroutine. batch is reused across wakeups.
type wheelShard struct {
	s       *Server
	id      int
	entries []*wheelEntry
	// The grid: unit is the server's Unit and perUnit its chunks a unit.
	// next is the index of the next chunk to stage, of every entry; the
	// tick being staged holds runLen chunks from first — 0 for re-sends
	// alone. Staging moves next past them before the batch leaves, so
	// release reads them here: the drift check measures and names first.
	unit        time.Duration
	perUnit     int64
	next, first int64
	runLen      int
	batch       []mcast.BatchEntry
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
	// lead is what the shard has measured the span from the instant its
	// tick source was armed for to the end of staging to be; it arms the
	// source that far ahead of a grid instant.
	lead leadEstimator

	// resends are the chunks NACKs queued for the next stage, under
	// resendMu (Server.nackResend); staging is what the last stage took.
	resendMu         sync.Mutex
	resends, staging []resend
}

// chunkDue is the epoch offset chunk j of every channel's timeline is due
// at, ⌊j·unit/perUnit⌋, computed unit by unit so it cannot overflow
// before the Duration does.
func (sh *wheelShard) chunkDue(j int64) time.Duration {
	p := sh.perUnit
	return time.Duration(j/p)*sh.unit + time.Duration(j%p)*sh.unit/time.Duration(p)
}

// chunkAt is chunkDue's inverse: the last chunk due at or before elapsed,
// 0 before the epoch. Within a unit, chunk k is due by r exactly when
// k·unit < (r+1)·perUnit.
func (sh *wheelShard) chunkAt(elapsed time.Duration) int64 {
	if elapsed < 0 {
		return 0
	}
	p, r := sh.perUnit, int64(elapsed%sh.unit)
	return int64(elapsed/sh.unit)*p + ((r+1)*p-1)/int64(sh.unit)
}

// tickSpan is the shard's tick: the grid's spacing, but no finer than
// minWheelQuantum. The lead is bounded by a quarter of it.
func (sh *wheelShard) tickSpan() time.Duration {
	return max(sh.unit/time.Duration(sh.perUnit), minWheelQuantum)
}

// resend is one NACKed chunk of an entry's channel, under the NACK's Seq.
type resend struct {
	e     *wheelEntry
	seq   uint32
	chunk int
}

// newWheelEntry builds the entry for (video v, channel i).
func (s *Server) newWheelEntry(v, i int) *wheelEntry {
	return &wheelEntry{
		group:  mcast.Group{Video: v, Channel: i},
		cc:     s.cache.channel(v, i),
		chunks: s.fragmentBytes(i) / s.cfg.ChunkBytes,
		heard:  true,
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
	perUnit := int64(s.cfg.BytesPerUnit / s.cfg.ChunkBytes)
	for si := range wheel {
		wheel[si] = &wheelShard{s: s, id: si, unit: s.cfg.Unit, perUnit: perUnit}
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

// run is the shard's tick loop: park on the tick source until a little
// before the next chunk is due, stage that chunk of every entry as one
// batch, hold on the clock until the instant, release the batch. Entered
// fresh after every restart, it takes its index from the clock so the
// shard rejoins the absolute grid.
//
// The park ends `lead` early because the tick takes time before anything
// can be sent: being woken — the timer fires on the instant, the goroutine
// runs some tens of microseconds later — then staging the batch, which
// behind a fault plan takes longer than the wake, and warming the send
// path. The whole span, from the instant the source was armed for to the
// end of the stage, is measured as one (lead), once per armed tick that
// staged, so the batch is usually built and the path warm just before the
// instant and the short hold that follows is what puts the send on it:
// nothing is sent early, and the hold never exceeds lead, which never
// exceeds a quarter of the tick. A shard that wakes late, or whose
// staging overruns, sends late by the overrun; one already past the
// instant stages and sends at once. A wait that ends earlier than lead —
// or for no reason — is harmless: nothing is staged, and the next pass
// re-arms from the clock. No two releases are nearer than
// minWheelQuantum: on a finer grid, or catching up, a tick stages every
// chunk due by its instant (see stage).
//
// Queued re-sends ride the next release: a tick's, or, when a poke ended
// the park too early to stage one, a release of the re-sends alone. A
// poke that finds the shard busy ends its next park.
func (sh *wheelShard) run() {
	s := sh.s
	sh.next = sh.chunkAt(s.since())
	bound := sh.tickSpan() / 4
	src := s.newTickSource()
	sh.setTick(src)
	defer sh.setTick(nil) // every exit, a panic included, releases the source
	select {
	case <-s.stop:
		return // stopWheel may have passed before the source was published
	default:
	}
	var floor time.Duration // minWheelQuantum past the last release
	for {
		next := max(sh.chunkDue(sh.next), floor)
		lead := sh.lead.value()
		wait := s.epoch.Add(next).Sub(s.clock.now()) - lead
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
		now := s.since()
		if next-now > lead { // too early to stage for the tick
			if sh.queued() {
				sh.stage(now, 0)
				sh.release()
			}
			continue
		}
		// at is at or past chunk next's instant, so the run holds at least it.
		at := max(now, next)
		sh.stage(at, int(min(sh.chunkAt(at)-sh.next+1, wheelMaxRun)))
		if wait > 0 {
			// The source was armed for next-lead: this is how long after
			// it the tick was staged — the wake, the build and the warm.
			sh.lead.observe(s.since()-(next-lead), bound)
		}
		if now < next {
			now = s.clock.hold(s.epoch.Add(next)).Sub(s.epoch)
		}
		sh.wakeLate.Observe(int64(now - next))
		s.wheelWakeups.Inc()
		sh.release()
		floor = at + minWheelQuantum
	}
}

// stage builds a tick of run chunks of every entry from the index on, for
// the batch to leave at the epoch offset at; it sends nothing a member
// hears. The hub's membership snapshot is read once, on entry (and the
// per-channel answers redrawn only if it is not the one the last stage
// saw): a chunk whose group has a member is materialised into the shard's
// arena and staged into the tick's one batch, and a chunk nobody hears is
// not built at all. Under a fault plan every due frame, built or not,
// meets the plan's decision here (Server.emit), and the batch holds what
// leaves — a frame held back from the group's previous tick copied into
// the arena. The index moves past the run. A group's first member that
// joins after the read starts with the next tick — even when it joins
// before this tick is released: release sends what was staged, so each
// frame's fault-plan decision is made exactly once.
//
// Catch-up shaping: when the shard has fallen behind — a stall, a
// restart, a grid finer than minWheelQuantum — every chunk already due at
// `at` is staged in the same tick, each entry's as one same-group
// contiguous run (capped at wheelMaxRun), instead of one chunk per
// wakeup; a shard that sent one chunk per tick would stay as many ticks
// late as it once stalled, for ever. A run may cross a repetition
// boundary: every staged frame is materialised into memory of its own
// with its own repetition number. The run order is the schedule order, so
// per-channel (rep, chunk) sequences stay contiguous on the grid, and a
// listener's share of the batch — one run or twenty channels' chunks — is
// what the hub's GSO path coalesces into super-frames.
//
// Queued re-sends go behind the scheduled frames (stageResends). A tick's
// non-empty batch then ends the stage with a warm (hubSeam.Warm), so the
// lead, which runs to the end of the stage, covers it. Last, only the hold
// stands between the warm and the release, and a tick nobody hears is
// known not to need one. The fault plan never sees it. Re-sends alone
// (run 0) leave at once, unwarmed. stageTime and warmTime time the stage
// and its warm for /status.
func (sh *wheelShard) stage(at time.Duration, run int) {
	s := sh.s
	began := s.clock.now()
	sh.batch = sh.batch[:0]
	sh.arena.reset()
	if l := s.hub.Listeners(); l != sh.seen {
		sh.seen = l
		for _, e := range sh.entries {
			e.heard = l.Heard(e.group)
		}
	}
	sh.first, sh.runLen = sh.next, run
	sh.next += int64(run)
	var staged int64
	release := s.epoch.Add(at)
	for _, e := range sh.entries {
		n, c := uint32(sh.first/int64(e.chunks)), int(sh.first%int64(e.chunks))
		if len(sh.batch) == 0 {
			sh.batchSeq = n
		}
		for range run {
			sh.batch = s.emit(&sh.arena, sh.batch, release, e.group, e.cc, c, n, e.heard)
			if c++; c == e.chunks {
				n, c = n+1, 0
			}
		}
		if e.heard {
			staged += int64(run)
		}
	}
	s.egressScheduled.Add(int64(run * len(sh.entries)))
	s.egressStaged.Add(staged)
	sh.stageResends()
	if run == 0 {
		return
	}
	end := s.clock.now()
	if len(sh.batch) > 0 {
		s.send.Warm()
		warmed := s.clock.now()
		sh.warmTime.Observe(int64(warmed.Sub(end)))
		end = warmed
	}
	sh.stageTime.Observe(int64(end.Sub(began)))
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
// one drift sample, against the run's first (most-late) chunk, counted
// once for every entry that staged it.
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
	if late := sent - sh.chunkDue(sh.first); sh.runLen > 0 && late > s.cfg.Unit {
		for _, e := range sh.entries {
			if d := s.driftEvents.Add(1); d == 1 || d%256 == 0 {
				s.cfg.Logf("server: pacing drift: %v seq %d chunk %d sent %v late (%d drift events)",
					e.group, sh.first/int64(e.chunks), sh.first%int64(e.chunks), late, d)
			}
		}
	}
}
