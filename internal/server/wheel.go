// The egress engine: a sharded hierarchical timer wheel that drives every
// (video, channel) broadcast schedule from a small fixed pool of shard
// goroutines.
//
// M videos × K channels are M·K schedules, but not M·K timers: each shard
// owns a fixed subset of the channels, hashes their next-due instants into
// a timer wheel quantized to the channels' chunk spacing, and sleeps until
// the earliest due tick. One wakeup collects *every* chunk due in that
// tick across all the shard's channels and hands them to the sender as a
// single batch (mcast.BatchSender), which puts them on the wire in
// sendmmsg batches. Steady state is therefore one timer wakeup and a
// handful of syscalls per tick per shard, independent of how many channels
// share the tick — the paper's O(channels) server cost with the constant
// actually small.
//
// What every channel is owed:
//
//   - The absolute epoch-anchored grid: entry positions are derived from
//     the wall clock (resync), never from send counts, so chunk c of
//     repetition n is due at epoch + n*period_i + c*spacing_i — the
//     golden equivalence test pins every hook firing to the closed form
//     of that grid.
//   - Supervision: a shard runs under a panic-recovery/backoff loop
//     (runWheelShard); a restarted shard resyncs every entry from the
//     clock and rejoins the grid mid-repetition instead of replaying a
//     burst.
//   - The drift watchdog: every chunk dispatched more than one unit after
//     its scheduled instant counts a drift event, with rate-limited
//     logging — sustained drift means the host cannot keep the grid and
//     clients will see schedule misses as losses.
//
// What a tick costs follows what is heard, not M·K: every due chunk keeps
// its place on the grid (hook, cursor, fault-plan accounting), but only a
// chunk whose group has a listener is materialised and staged.
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

// wheelSlots is the fan-out of each wheel level: 256 level-0 slots of one
// quantum each, 256 level-1 slots of wheelSlots quanta each, and an
// overflow list beyond that horizon.
const wheelSlots = 256

// Bounds on the wheel quantum. The quantum tracks the finest chunk
// spacing so same-tick chunks batch without adding schedule error beyond
// one spacing; the floor keeps a pathological spacing from turning the
// wheel into a busy loop, the ceiling keeps idle boundary scans frequent
// enough that a sparse wheel still cascades promptly.
const (
	minWheelQuantum = 50 * time.Microsecond
	maxWheelQuantum = time.Second
)

// wheelEntry is one channel's place in the broadcast schedule: its static
// geometry (period, spacing, chunk count) and its cursor (repetition n,
// chunk c, and the absolute due offset from the epoch).
type wheelEntry struct {
	video   int
	channel int
	group   mcast.Group
	cc      *channelCache

	period  time.Duration
	spacing time.Duration
	chunks  int

	n   uint32
	c   int
	due time.Duration // offset of the next send from the epoch
	// heard is whether the channel had a listener in the membership
	// snapshot the shard last looked at (wheelShard.seen); true until a
	// dispatch has a hub to ask.
	heard bool
	// firstDue remembers the due offset of the first chunk staged in the
	// current dispatch — the most-late one — for the post-send drift
	// check, since catch-up staging advances due before the batch leaves.
	firstDue time.Duration
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
	e.c++
	if e.c >= e.chunks {
		e.c = 0
		e.n++
	}
	e.due = time.Duration(e.n)*e.period + time.Duration(e.c)*e.spacing
}

// timerWheel is a two-level hierarchical timer wheel over epoch offsets.
// Level 0 resolves single ticks across a 256-tick window starting at cur;
// level 1 resolves 256-tick windows across a 65536-tick horizon; entries
// beyond that wait in overflow. Slots hold entry pointers in reused
// slices, so steady-state insert/collect allocates nothing.
type timerWheel struct {
	quantum  time.Duration
	cur      int64 // next tick not yet collected
	level0   [wheelSlots][]*wheelEntry
	level1   [wheelSlots][]*wheelEntry
	overflow []*wheelEntry
}

// reset re-arms the wheel at the tick containing now, clearing all slots
// (their capacity is kept).
func (w *timerWheel) reset(quantum time.Duration, now time.Duration) {
	w.quantum = quantum
	w.cur = int64(now / quantum)
	for i := range w.level0 {
		w.level0[i] = w.level0[i][:0]
		w.level1[i] = w.level1[i][:0]
	}
	w.overflow = w.overflow[:0]
}

// insert files e by its due tick. Past-due entries land in the current
// tick and come out on the next collect.
func (w *timerWheel) insert(e *wheelEntry) {
	t := int64(e.due / w.quantum)
	if t < w.cur {
		t = w.cur
	}
	switch dt := t - w.cur; {
	case dt < wheelSlots:
		w.level0[t%wheelSlots] = append(w.level0[t%wheelSlots], e)
	case dt < wheelSlots*wheelSlots:
		w.level1[(t/wheelSlots)%wheelSlots] = append(w.level1[(t/wheelSlots)%wheelSlots], e)
	default:
		w.overflow = append(w.overflow, e)
	}
}

// collect advances the wheel to the tick containing now, appending every
// entry due in the crossed ticks to out (one tick's entries dispatch
// together — that is the batching). Level-1 windows cascade into level 0
// as cur crosses their boundaries, and overflow is re-filed once per
// level-1 lap.
func (w *timerWheel) collect(now time.Duration, out []*wheelEntry) []*wheelEntry {
	target := int64(now / w.quantum)
	for w.cur <= target {
		if w.cur%wheelSlots == 0 {
			w.cascade()
		}
		slot := &w.level0[w.cur%wheelSlots]
		out = append(out, *slot...)
		*slot = (*slot)[:0]
		w.cur++
	}
	return out
}

// cascade re-files the level-1 slot covering the window that starts at
// cur, and — once per level-1 lap — the overflow list. An entry whose due
// tick is a whole lap ahead goes back where it was and waits for the next
// cascade; everything else drops into level 0.
func (w *timerWheel) cascade() {
	slot := &w.level1[(w.cur/wheelSlots)%wheelSlots]
	pending := *slot
	*slot = (*slot)[:0]
	for _, e := range pending {
		w.insert(e)
	}
	if w.cur%(wheelSlots*wheelSlots) == 0 {
		pending = w.overflow
		w.overflow = w.overflow[:0]
		for _, e := range pending {
			w.insert(e)
		}
	}
}

// nextDue returns the epoch offset the shard should sleep until: the
// earliest due entry in the level-0 window if there is one, otherwise the
// next cascade boundary (at which closer entries may surface from level 1
// or overflow). ok is false when the wheel is empty.
func (w *timerWheel) nextDue() (next time.Duration, ok bool) {
	boundary := (w.cur/wheelSlots + 1) * wheelSlots
	best := time.Duration(-1)
	for t := w.cur; t < boundary+wheelSlots; t++ {
		slot := w.level0[t%wheelSlots]
		if len(slot) == 0 {
			continue
		}
		best = slot[0].due
		for _, e := range slot[1:] {
			if e.due < best {
				best = e.due
			}
		}
		// A past-due entry (clamped into this slot by insert) keeps its
		// stale due offset, but collect only releases the slot once the
		// clock enters tick t. Waking any earlier would spin — timer
		// fires, collect crosses no tick, nothing dispatches, repeat —
		// burning the core exactly when the schedule is already behind.
		if bt := time.Duration(t) * w.quantum; best < bt {
			best = bt
		}
		break
	}
	more := len(w.overflow) > 0
	for i := 0; !more && i < wheelSlots; i++ {
		more = len(w.level1[i]) > 0
	}
	if more {
		if bt := time.Duration(boundary) * w.quantum; best < 0 || bt < best {
			// Level-0 slots past the boundary can hold later entries than
			// an uncascaded level-1 window; waking at the boundary keeps
			// the scan cheap and never oversleeps a due entry.
			best = bt
		}
	}
	return best, best >= 0
}

// wheelShard owns a fixed subset of the channel entries and runs their
// schedule from one goroutine. due and batch are reused across wakeups.
type wheelShard struct {
	s       *Server
	id      int
	entries []*wheelEntry
	wheel   timerWheel
	due     []*wheelEntry
	batch   []mcast.BatchEntry
	// arena backs every frame one dispatch stages; dispatch resets it on
	// entry, after the previous tick's sends have returned.
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
	// shard began the dispatch; stageTime how long the dispatch then spent
	// building its batch, and sendTime, when there was anything to send,
	// how long inside SendBatch. All in nanoseconds.
	wakeLate  metrics.Log2Histogram
	stageTime metrics.Log2Histogram
	sendTime  metrics.Log2Histogram
	// lead is how far ahead of a grid instant the shard arms its tick
	// source, learned from its own wake latency (wakeLead).
	lead wakeLead
}

// newWheelEntry builds the schedule state for (video v, channel i): chunks
// of repetition n are spread evenly across [epoch + n*period,
// epoch + (n+1)*period).
func (s *Server) newWheelEntry(v, i int) *wheelEntry {
	size := s.cfg.Scheme.Sizes()[i-1]
	period := time.Duration(size) * s.cfg.Unit
	chunks := s.fragmentBytes(i) / s.cfg.ChunkBytes
	return &wheelEntry{
		video:   v,
		channel: i,
		group:   mcast.Group{Video: v, Channel: i},
		cc:      s.cache.channel(v, i),
		heard:   true,
		period:  period,
		spacing: period / time.Duration(chunks),
		chunks:  chunks,
	}
}

// startWheel launches the egress shards: every (video, channel) entry is
// dealt round-robin across min(GOMAXPROCS, channels) shards, each under
// its own supervisor.
func (s *Server) startWheel() {
	sch := s.cfg.Scheme
	var entries []*wheelEntry
	for v := 0; v < sch.Config().Videos; v++ {
		for i := 1; i <= sch.K(); i++ {
			entries = append(entries, s.newWheelEntry(v, i))
		}
	}
	n := runtime.GOMAXPROCS(0)
	if n > len(entries) {
		n = len(entries)
	}
	s.wheel = make([]*wheelShard, n)
	for si := range s.wheel {
		sh := &wheelShard{s: s, id: si}
		for j := si; j < len(entries); j += n {
			sh.entries = append(sh.entries, entries[j])
		}
		s.wheel[si] = sh
	}
	for _, sh := range s.wheel {
		s.wg.Add(1)
		go s.runWheelShard(sh)
	}
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
// reset. Restarts are counted in pacerRestarts.
func (s *Server) runWheelShard(sh *wheelShard) {
	defer s.wg.Done()
	backoff := pacerRestartBase
	for {
		started := time.Now()
		if sh.runRecovering() {
			return // orderly exit: server stopping
		}
		d := s.pacerRestarts.Add(1)
		if time.Since(started) > pacerStableAfter {
			backoff = pacerRestartBase
		}
		s.cfg.Logf("server: restarting egress shard %d (%d channels) in %v (restart #%d)",
			sh.id, len(sh.entries), backoff, d)
		select {
		case <-s.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > pacerRestartMax {
			backoff = pacerRestartMax
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

// run is the shard dispatch loop: park on the tick source until a little
// before the earliest due tick, hold on the clock until its instant,
// collect everything due, dispatch it as one batch, re-file the entries.
// Entered fresh after every restart, it rebuilds the wheel from the wall
// clock so the shard rejoins the absolute grid.
//
// The park ends `lead` early because being woken takes time — the timer
// fires on the instant, the goroutine runs some tens of microseconds
// later, and every datagram of the tick would leave that late. lead is
// what the shard has measured that latency to be (wakeLead), so the
// goroutine is usually running just before the instant and the short hold
// that follows is what puts the dispatch on it: nothing is sent early, and
// the hold never exceeds lead. A wait that ends earlier than that — or for
// no reason — is harmless: nothing dispatches, and the next pass re-arms
// from the clock.
func (sh *wheelShard) run() {
	s := sh.s
	quantum := sh.quantum()
	sh.wheel.reset(quantum, time.Since(s.epoch))
	for _, e := range sh.entries {
		e.resync(time.Since(s.epoch))
		sh.wheel.insert(e)
	}
	maxLead := min(maxWakeLead, quantum/4)
	src := s.newTickSource()
	sh.setTick(src)
	defer sh.setTick(nil) // every exit, a panic included, releases the source
	select {
	case <-s.stop:
		return // stopWheel may have passed before the source was published
	default:
	}
	for {
		next, ok := sh.wheel.nextDue()
		wait, lead := time.Hour, time.Duration(0)
		if ok {
			lead = sh.lead.value()
			wait = time.Until(s.epoch.Add(next)) - lead
		}
		ticked, err := src.wait(wait)
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
		s.wheelWakeups.Inc()
		now := time.Since(s.epoch)
		if ok {
			if wait > 0 {
				// The source was armed for next-lead; this is how long
				// after it the shard is running.
				sh.lead.observe(now-(next-lead), maxLead)
			}
			if next-now > lead {
				continue // too early to hold for: wait again
			}
			for now < next {
				now = time.Since(s.epoch)
			}
			sh.wakeLate.Observe(int64(now - next))
		}
		sh.due = sh.wheel.collect(now, sh.due[:0])
		if len(sh.due) > 0 {
			sh.dispatch()
		}
	}
}

// dispatch sends one tick's worth of chunks. Every due chunk fires the
// hook and advances its cursor; what it costs beyond that depends on who
// listens. The hub's membership snapshot is read once, on entry (and the
// per-channel answers redrawn only if it is not the one the last dispatch
// saw): a chunk whose group has a member is materialised into the shard's
// arena and staged into the tick's one batch — which the sender, hub or
// fault injector, takes in one call — and a chunk nobody hears is not
// built at all, only accounted for in the fault plan (Server.emit). A
// group's first member that joins after the read starts with the next
// tick.
//
// Catch-up shaping: when an entry has fallen behind — a stalled shard,
// a restart, a dense schedule — every chunk already due is staged in
// the same dispatch as one same-group contiguous run (capped at
// wheelMaxRun), instead of one chunk per wakeup; a shard that sent one
// chunk per tick would stay as many ticks late as it once stalled, for
// ever. A run may cross a repetition boundary: every staged frame is
// materialised into memory of its own with its own repetition number.
// The run order is the schedule order, so per-channel (rep, chunk)
// sequences stay contiguous on the grid, and a listener's share of the
// batch — one run or twenty channels' chunks — is what the hub's GSO path
// coalesces into super-frames.
func (sh *wheelShard) dispatch() {
	s := sh.s
	hook := s.cfg.PacerHook
	elapsed := time.Since(s.epoch)
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
		e.firstDue = e.due
		run := 0
		for {
			if hook != nil {
				hook(e.video, e.channel, e.n, e.c)
			}
			sh.batch = s.emit(&sh.arena, sh.batch, e.group, e.cc, e.c, e.n, e.heard)
			e.advance()
			run++
			// A run ends when the entry is caught up or at the wheelMaxRun
			// cap; a still-behind entry re-files at the current tick and
			// the next wakeup continues the catch-up.
			if e.due > elapsed || run >= wheelMaxRun {
				break
			}
		}
		scheduled += int64(run)
		if e.heard {
			staged += int64(run)
		}
	}
	s.egressScheduled.Add(scheduled)
	s.egressStaged.Add(staged)
	sent := time.Since(s.epoch)
	sh.stageTime.Observe(int64(sent - elapsed))
	if len(sh.batch) > 0 {
		stagedAt := sent
		if _, err := s.send.SendBatch(sh.batch); err != nil {
			select {
			case <-s.stop: // socket teardown fails trailing sends by design
			default:
				s.cfg.Logf("server: sending %v seq %d: %v", sh.due[0].group, sh.due[0].n, err)
			}
		}
		sent = time.Since(s.epoch)
		sh.sendTime.Observe(int64(sent - stagedAt))
	}
	for _, e := range sh.due {
		// One drift sample per entry per dispatch, taken against the
		// first (most-late) chunk staged.
		if late := sent - e.firstDue; late > s.cfg.Unit {
			if d := s.driftEvents.Add(1); d == 1 || d%256 == 0 {
				s.cfg.Logf("server: pacing drift: %v seq %d chunk %d sent %v late (%d drift events)",
					e.group, e.n, e.c, late, d)
			}
		}
		sh.wheel.insert(e)
	}
}
