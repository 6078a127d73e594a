package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/vod"
	"skyscraper/internal/wire"
)

// wheelScheme builds an M-video, K-channel broadcast (W = 2), the same
// construction the live tests use.
func wheelScheme(t testing.TB, m, k int) *core.Scheme {
	t.Helper()
	cfg := vod.Config{ServerMbps: 1.5 * float64(m*k), Videos: m, LengthMin: 120, RateMbps: 1.5}
	sch, err := core.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sch.K() != k {
		t.Fatalf("K = %d, want %d", sch.K(), k)
	}
	return sch
}

// chanKey identifies one channel in the recorded logs.
type chanKey struct{ video, channel int }

// event is one chunk of a channel's schedule: repetition n, chunk c.
type event struct {
	n uint32
	c int
}

// grid is the closed form of the paper's broadcast grid (§3–§4) for one
// channel repeating `chunks` chunks, `spacing` apart, every period — the
// reference the wheel is held to.
type grid struct {
	period, spacing time.Duration
	chunks          int
}

// gridAt returns the slot containing elapsed: chunk c of repetition n with
// dueOf(n, c) <= elapsed < dueOf(n, c) + spacing — or, in the remainder
// that flooring spacing leaves at the end of a period, the next
// repetition's first chunk.
func (g grid) gridAt(elapsed time.Duration) (n uint32, c int) {
	n, c = uint32(elapsed/g.period), int(elapsed%g.period/g.spacing)
	if c >= g.chunks {
		return n + 1, 0
	}
	return n, c
}

// dueOf is gridAt's inverse: the offset from the epoch at which chunk c of
// repetition n is due.
func (g grid) dueOf(n uint32, c int) time.Duration {
	return time.Duration(n)*g.period + time.Duration(c)*g.spacing
}

// checkContiguous asserts a channel's event sequence walks the broadcast
// grid one chunk at a time: after (n, c) comes (n, c+1), or (n+1, 0) at
// the repetition boundary.
func checkContiguous(t *testing.T, k chanKey, evs []event, chunks int) {
	t.Helper()
	for j := 1; j < len(evs); j++ {
		prev, cur := evs[j-1], evs[j]
		want := event{prev.n, prev.c + 1}
		if want.c >= chunks {
			want = event{prev.n + 1, 0}
		}
		if cur != want {
			t.Fatalf("video%d/ch%d event %d: got (rep %d, chunk %d), want (rep %d, chunk %d) after (rep %d, chunk %d)",
				k.video, k.channel, j, cur.n, cur.c, want.n, want.c, prev.n, prev.c)
		}
	}
}

// virtualClock is the clock the wheel's tests run the server on. It
// stands still until the server reads it or waits on it, and then moves
// as its script says, so a shard run on it is a function of the script
// alone. It belongs to the shard goroutine.
type virtualClock struct {
	t    time.Time
	stop <-chan struct{} // the server's: once closed, parks and sleeps report the stop
	end  time.Time       // a park for an instant at or past end reports the stop too
	// The script. onPark and onHold, when set, run first thing in every
	// park and hold (numbered from 1) and may rewrite the rest, or panic.
	work  time.Duration // how far each reading moves the clock: the cost of what runs between two
	wake  time.Duration // how far past its instant a park returns; negative: that much before it
	fail  bool          // the park fails, as a broken tick source does
	stall time.Duration // how far past its instant a hold returns
	onPark,
	onHold func(n int)

	parks, holds int
	maxHold      time.Duration // the longest a hold had to wait
}

func (c *virtualClock) now() time.Time {
	t := c.t
	c.t = t.Add(c.work)
	return t
}

func (c *virtualClock) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

func (c *virtualClock) park(_ tickSource, d time.Duration) (bool, error) {
	at := c.t.Add(d)
	if c.stopped() || !at.Before(c.end) {
		return false, nil
	}
	c.parks++
	if c.onPark != nil {
		c.onPark(c.parks)
	}
	if c.fail {
		return false, errors.New("virtual clock: scripted tick source failure")
	}
	if at = at.Add(c.wake); at.After(c.t) {
		c.t = at
	}
	return true, nil
}

func (c *virtualClock) hold(at time.Time) time.Time {
	c.holds++
	if c.onHold != nil {
		c.onHold(c.holds)
	}
	c.maxHold = max(c.maxHold, at.Sub(c.t))
	if at.After(c.t) {
		c.t = at
	}
	c.t = c.t.Add(c.stall)
	return c.now()
}

func (c *virtualClock) sleep(d time.Duration, _ <-chan struct{}) bool {
	c.t = c.t.Add(d)
	return !c.stopped()
}

// sentFrame is one frame the wheel handed its sender: its group, its
// repetition and chunk (a parity frame's: its stripe group's first
// chunk), the release it left in (counted from 1) and the virtual instant
// it left at, from the epoch.
type sentFrame struct {
	g      mcast.Group
	n      uint32
	c      int
	parity bool
	batch  int
	at     time.Duration
}

// sendLog stands in for the hub behind a wheelRig's seam: every frame it
// is handed is decoded, a data frame checked against the content
// function, and noted with the virtual instant it left at. Re-sends are
// only counted: they leave from control goroutines, off the clock.
type sendLog struct {
	mu  sync.Mutex
	srv *Server
	vc  *virtualClock
	// quiet counts frames, checking only that they decode, without
	// keeping them; onSend, when set, runs as a release begins to hand its
	// batch over; err is what SendBatch reports.
	quiet  bool
	onSend func(batch []mcast.BatchEntry)
	err    error

	sent                                 []sentFrame
	batches, frames, parity, bad, resent int
}

func (l *sendLog) SendBatch(entries []mcast.BatchEntry) (int, error) {
	if l.onSend != nil {
		l.onSend(entries)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches++
	for _, e := range entries {
		f, ok := l.decode(e.Group, e.Frame)
		if !ok {
			l.bad++
			continue
		}
		l.frames++
		if f.parity {
			l.parity++
		}
		if !l.quiet {
			f.batch, f.at = l.batches, l.vc.t.Sub(l.srv.epoch)
			l.sent = append(l.sent, f)
		}
	}
	return len(entries), l.err
}

func (l *sendLog) SendRepairBatch(entries []mcast.BatchEntry) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		if _, ok := l.decode(e.Group, e.Frame); ok {
			l.resent++
		} else {
			l.bad++
		}
	}
	return len(entries), nil
}

// Send is the fault injector's way out for a frame it delays.
func (l *sendLog) Send(g mcast.Group, frame []byte) (int, error) {
	return l.SendBatch([]mcast.BatchEntry{{Group: g, Frame: frame}})
}

func (*sendLog) Join(mcast.Group, *net.UDPAddr) error { return nil }
func (*sendLog) Leave(mcast.Group, *net.UDPAddr)      {}

// decode reads one frame of group g; ok is false for a frame that is not
// g's, does not decode, or — unless the log is quiet — carries the wrong
// bytes.
func (l *sendLog) decode(g mcast.Group, frame []byte) (f sentFrame, ok bool) {
	video, channel, _, _, ok := wire.PeekID(frame)
	if !ok || int(video) != g.Video || int(channel) != g.Channel {
		return f, false
	}
	f.g = g
	cb := l.srv.cfg.ChunkBytes
	if wire.IsParity(frame) {
		p, err := wire.DecodeParity(frame)
		f.parity, f.n, f.c = true, p.Seq, int(p.Base)/cb
		return f, err == nil
	}
	c, err := wire.Decode(frame)
	if err != nil || !l.quiet && content.Verify(c.Payload, g.Video, l.srv.cache.channel(g.Video, g.Channel).base+int64(c.Offset)) >= 0 {
		return f, false
	}
	f.n, f.c = c.Seq, int(c.Offset)/cb
	return f, true
}

// wheelRig is a server that was never started, with one shard owning
// every channel, whose tick loop — runWheelShard, run, stage, release —
// runs on a virtual clock from the epoch stepEpoch and sends to a
// sendLog. Its hub only keeps memberships: a group's chunks are built
// and sent once something joins it.
type wheelRig struct {
	srv *Server
	sh  *wheelShard
	vc  *virtualClock
	log *sendLog
}

func newWheelRig(t testing.TB, cfg Config) *wheelRig {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := mcast.NewHub()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	vc := &virtualClock{t: stepEpoch, stop: srv.stop}
	log := &sendLog{srv: srv, vc: vc}
	srv.clock, srv.hub, srv.send, srv.ln, srv.epoch = vc, hub, log, noListener{}, stepEpoch
	sh := &wheelShard{s: srv}
	sch := cfg.Scheme
	for v := 0; v < sch.Config().Videos; v++ {
		for i := 1; i <= sch.K(); i++ {
			sh.entries = append(sh.entries, srv.newWheelEntry(v, i))
		}
	}
	srv.wheel = []*wheelShard{sh}
	return &wheelRig{srv: srv, sh: sh, vc: vc, log: log}
}

// join subscribes a throwaway loopback address to g.
func (r *wheelRig) join(t testing.TB, g mcast.Group) *net.UDPAddr {
	t.Helper()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9} // discard; the hub sends nothing
	if err := r.srv.hub.Join(g, addr); err != nil {
		t.Fatal(err)
	}
	return addr
}

// hearAll joins every group, so every chunk is built and sent.
func (r *wheelRig) hearAll(t testing.TB) {
	for _, e := range r.sh.entries {
		r.join(t, e.group)
	}
}

// play runs the shard under its supervisor, on the calling goroutine,
// through the grid's first `ticks` ticks: it returns when the shard parks
// for a later one, or the server stops.
func (r *wheelRig) play(ticks int) {
	q := r.sh.quantum()
	r.vc.end = r.srv.epoch.Add(time.Duration(ticks)*q - q/2)
	r.srv.wg.Add(1)
	r.srv.runWheelShard(r.sh)
}

// grid is the closed-form grid of g's channel.
func (r *wheelRig) grid(g mcast.Group) grid {
	e := r.sh.entries[g.Video*r.srv.cfg.Scheme.K()+g.Channel-1]
	return grid{e.period, e.spacing, e.chunks}
}

// channels splits the data frames sent by channel, in send order.
func (r *wheelRig) channels() map[chanKey][]sentFrame {
	by := make(map[chanKey][]sentFrame)
	for _, f := range r.log.sent {
		if !f.parity {
			k := chanKey{f.g.Video, f.g.Channel}
			by[k] = append(by[k], f)
		}
	}
	return by
}

// events is the (rep, chunk) walk of one channel's frames.
func events(frames []sentFrame) []event {
	evs := make([]event, len(frames))
	for i, f := range frames {
		evs[i] = event{f.n, f.c}
	}
	return evs
}

// checkOnGrid holds every channel's frames to the closed-form grid: each
// channel walks it contiguously from (rep 0, chunk 0), and each frame is a
// slot of it that left no earlier than its instant and less than `within`
// after it.
func checkOnGrid(t *testing.T, r *wheelRig, within time.Duration) map[chanKey][]sentFrame {
	t.Helper()
	by := r.channels()
	for k, frames := range by {
		g := r.grid(mcast.Group{Video: k.video, Channel: k.channel})
		if first := frames[0]; first.n != 0 || first.c != 0 {
			t.Fatalf("video%d/ch%d starts at (rep %d, chunk %d), want (0, 0)", k.video, k.channel, first.n, first.c)
		}
		checkContiguous(t, k, events(frames), g.chunks)
		for j, f := range frames {
			due := g.dueOf(f.n, f.c)
			if n, c := g.gridAt(due); n != f.n || c != f.c {
				t.Fatalf("video%d/ch%d frame %d: (rep %d, chunk %d) is not a grid slot", k.video, k.channel, j, f.n, f.c)
			}
			if f.at < due || f.at >= due+within {
				t.Fatalf("video%d/ch%d frame %d: (rep %d, chunk %d) left at epoch+%v, want within [%v, %v)",
					k.video, k.channel, j, f.n, f.c, f.at, due, due+within)
			}
		}
	}
	return by
}

// twice plays a rig twice and fails unless both runs sent the same frames
// in the same releases at the same instants; it returns the first.
func twice(t *testing.T, play func() *wheelRig) *wheelRig {
	t.Helper()
	a, b := play(), play()
	if !slices.Equal(a.log.sent, b.log.sent) {
		t.Fatalf("one script played twice: %d frames sent, then %d, not the same", len(a.log.sent), len(b.log.sent))
	}
	return a
}

// TestWheelGoldenEquivalence is the schedule half of the golden
// equivalence gate: with every group heard and the shard waking up to
// 150 µs late, every channel's frames walk exactly the closed-form grid
// from (0, 0), one chunk a tick, each on its instant and within one unit
// of it, and the drift watchdog stays silent.
func TestWheelGoldenEquivalence(t *testing.T) {
	const unit, ticks = 25 * time.Millisecond, 160
	r := twice(t, func() *wheelRig {
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 2, 3), Unit: unit, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
		r.hearAll(t)
		rng := rand.New(rand.NewSource(1))
		r.vc.work = 2 * time.Microsecond
		r.vc.onPark = func(int) { r.vc.wake = time.Duration(rng.Int63n(int64(150 * time.Microsecond))) }
		r.play(ticks)
		return r
	})
	by := checkOnGrid(t, r, unit)
	if len(by) != 6 {
		t.Fatalf("%d channels sent, want 6", len(by))
	}
	for k, frames := range by {
		if len(frames) != ticks {
			t.Errorf("video%d/ch%d sent %d chunks in %d ticks", k.video, k.channel, len(frames), ticks)
		}
	}
	if d := r.srv.driftEvents.Value(); d != 0 {
		t.Errorf("%d drift events, want 0", d)
	}
}

// TestWheelSustainsManyChannels: 100 videos × 21 channels on one shard
// take exactly one wakeup per tick — however many channels share it —
// and every channel is scheduled once a tick, with the drift watchdog
// silent. It counts wakeups and scheduled chunks on the virtual clock; it
// does not measure how long staging 2,100 channels really takes, which
// BenchmarkWheelDispatch does.
func TestWheelSustainsManyChannels(t *testing.T) {
	const ticks = 80 // 2 s of 25 ms spacing
	r := twice(t, func() *wheelRig {
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 100, 21), Unit: 100 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
		r.vc.work = time.Microsecond
		r.play(ticks)
		return r
	})
	if got := r.srv.wheelWakeups.Value(); got != ticks {
		t.Errorf("%d wakeups for %d ticks of 2,100 channels, want one a tick", got, ticks)
	}
	if got, want := r.srv.egressScheduled.Value(), int64(2100*ticks); got != want {
		t.Errorf("egressScheduled = %d, want %d", got, want)
	}
	if d := r.srv.driftEvents.Value(); d != 0 {
		t.Errorf("%d drift events, want 0", d)
	}
}

// TestWheelWakeupsCountTicks: a tick source that always returns 3 ms
// before its instant on a 5 ms grid sends the shard round its loop
// thousands of times, but egressWakeups counts what the shard released —
// one per tick, one release each — not how often the source returned.
func TestWheelWakeupsCountTicks(t *testing.T) {
	const ticks = 40
	r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: 20 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
	if q := r.sh.quantum(); q != 5*time.Millisecond {
		t.Fatalf("grid spacing %v, want 5ms", q)
	}
	r.hearAll(t)
	r.vc.work = time.Microsecond
	r.vc.wake = -3 * time.Millisecond
	r.play(ticks)
	if r.vc.parks <= 2*ticks {
		t.Fatalf("%d parks for %d ticks: the early source never sent the shard round again", r.vc.parks, ticks)
	}
	if got := r.srv.wheelWakeups.Value(); got != ticks || r.log.batches != ticks {
		t.Errorf("%d wakeups and %d releases over %d parks, want %d of each (one a tick)", got, r.log.batches, r.vc.parks, ticks)
	}
}

// TestWheelShardPanicRecovered is the supervisor's schedule half (its
// session half is TestShardPanicRecoveredSession): the clock panics in a
// shard's hold, after the tick was staged and before it was released; the
// supervisor restarts the shard one backoff later, which is within the
// tick's spacing, so every channel rejoins the grid at the lost tick and
// walks on with no chunk skipped or repeated, none early, and the lost
// tick late by the backoff alone.
func TestWheelShardPanicRecovered(t *testing.T) {
	const unit, ticks = 25 * time.Millisecond, 80
	r := twice(t, func() *wheelRig {
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 2, 3), Unit: unit, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
		r.hearAll(t)
		r.vc.work = 2 * time.Microsecond
		r.vc.onHold = func(n int) {
			if n == 20 {
				panic("wheel_test: injected shard panic")
			}
		}
		r.play(ticks)
		return r
	})
	if got := r.srv.shardRestarts.Value(); got != 1 {
		t.Fatalf("%d shard restarts, want 1", got)
	}
	late := 0
	for k, frames := range checkOnGrid(t, r, unit) {
		if len(frames) != ticks {
			t.Errorf("video%d/ch%d sent %d chunks in %d ticks", k.video, k.channel, len(frames), ticks)
		}
		g := r.grid(frames[0].g)
		for _, f := range frames {
			if lag := f.at - g.dueOf(f.n, f.c); lag >= shardRestartBase {
				late++
				if lag > shardRestartBase+time.Millisecond {
					t.Errorf("video%d/ch%d (rep %d, chunk %d) left %v late, want within a backoff", k.video, k.channel, f.n, f.c, lag)
				}
			}
		}
	}
	if late != 6 {
		t.Errorf("%d frames left a backoff late, want the lost tick's 6", late)
	}
}

// TestWheelGridProperty plays seeded random scripts over a 3-video, K=5
// catalogue with every group heard: wakes from on time to twice the lead
// bound late, early returns, staging time, stalls of up to three units
// and one panic. Whatever the script, no frame leaves before its grid
// instant, no hold is longer than the lead bound, every channel walks
// its grid with no chunk skipped or repeated, and after a stall every
// channel is back on its grid within ⌈behind/wheelMaxRun⌉ + 1 ticks.
func TestWheelGridProperty(t *testing.T) {
	const unit, ticks = 40 * time.Millisecond, 240
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			var bound time.Duration
			r := twice(t, func() *wheelRig {
				r := newWheelRig(t, Config{Scheme: wheelScheme(t, 3, 5), Unit: unit, BytesPerUnit: 4096, ChunkBytes: 1024})
				r.hearAll(t)
				bound = r.sh.leadBound()
				rng := rand.New(rand.NewSource(seed))
				panicAt, lastStall := 10+rng.Intn(20), 0
				r.vc.onPark = func(int) {
					r.vc.work = time.Microsecond + time.Duration(rng.Int63n(int64(40*time.Microsecond)))
					r.vc.wake = time.Duration(rng.Int63n(int64(2*bound) + 1))
					if rng.Intn(8) == 0 {
						r.vc.wake = -time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
					}
				}
				r.vc.onHold = func(n int) {
					r.vc.stall = 0
					switch {
					case n == panicAt:
						panic("wheel_test: scripted panic")
					case n > panicAt+4 && n > lastStall+8 && rng.Intn(6) == 0:
						r.vc.stall, lastStall = time.Duration(rng.Int63n(int64(3*unit)))+1, n
					}
				}
				r.play(ticks)
				return r
			})
			if got := r.srv.shardRestarts.Value(); got != 1 {
				t.Errorf("%d shard restarts, want 1", got)
			}
			if r.vc.maxHold > bound {
				t.Errorf("a hold waited %v, over the lead bound %v", r.vc.maxHold, bound)
			}
			stalls := 0
			for k, frames := range checkOnGrid(t, r, time.Hour) {
				g := r.grid(frames[0].g)
				// lag is how late a release's first frame of the channel left.
				var lags []time.Duration
				for i, f := range frames {
					if i == 0 || f.batch != frames[i-1].batch {
						lags = append(lags, f.at-g.dueOf(f.n, f.c))
					}
				}
				for i := 0; i < len(lags); i++ {
					if lags[i] < g.spacing {
						continue
					}
					stalls++
					behind := int(lags[i] / g.spacing)
					within := (behind+wheelMaxRun-1)/wheelMaxRun + 1
					j := i + 1
					for j < len(lags) && j <= i+within && lags[j] >= g.spacing {
						j++
					}
					if j < len(lags) && j > i+within {
						t.Fatalf("video%d/ch%d: release %d left %v late (%d chunks behind), still off its grid %d releases later",
							k.video, k.channel, i, lags[i], behind, within)
					}
					i = j - 1
				}
			}
			if stalls == 0 {
				t.Error("the script stalled nothing")
			}
		})
	}
}

// TestTimerWheelMechanics pins the shard's due-list itself: entries
// surface exactly at their due ticks, however far off, a past-due one at
// the current tick, and nextDue names the earliest. An entry that has
// surfaced is taken off the list here, where a dispatch would advance it.
func TestTimerWheelMechanics(t *testing.T) {
	q := time.Millisecond
	mk := func(due time.Duration) *wheelEntry {
		return &wheelEntry{due: due, period: time.Hour, spacing: time.Hour, chunks: 1}
	}
	near := mk(3 * q)
	mid := mk(300 * q)
	far := mk(time.Duration(70000) * q)
	past := mk(-5 * q) // clamped to the current tick
	w := &wheelShard{tickLen: q, entries: []*wheelEntry{near, mid, far, past}}
	collect := func(now time.Duration) []*wheelEntry {
		w.collect(now)
		for _, e := range w.due {
			w.entries = slices.DeleteFunc(w.entries, func(have *wheelEntry) bool { return have == e })
		}
		return w.due
	}

	got := collect(0)
	if len(got) != 1 || got[0] != past {
		t.Fatalf("collect(0) = %v entries, want just the past-due entry", len(got))
	}
	if next, ok := w.nextDue(); !ok || next != 3*q {
		t.Fatalf("nextDue = %v, %v; want %v, true", next, ok, 3*q)
	}
	got = collect(3 * q)
	if len(got) != 1 || got[0] != near {
		t.Fatalf("collect(3q) = %v entries, want the near entry", len(got))
	}
	if got = collect(299 * q); len(got) != 0 {
		t.Fatalf("collect(299q) returned %d entries early", len(got))
	}
	got = collect(300 * q)
	if len(got) != 1 || got[0] != mid {
		t.Fatalf("collect(300q) = %d entries, want the 300q entry", len(got))
	}
	got = collect(70000 * q)
	if len(got) != 1 || got[0] != far {
		t.Fatalf("collect(70000q) = %d entries, want the 70000q entry", len(got))
	}
	if _, ok := w.nextDue(); ok {
		t.Error("nextDue reports work on an empty wheel")
	}
}

// TestWheelEntryResyncMatchesGrid pins resync — and advance after it — to
// the closed-form grid, and the closed form to a table of hand-worked
// slots, on an even geometry and on one whose floored spacing leaves a
// remainder at the end of each period.
func TestWheelEntryResyncMatchesGrid(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		period  time.Duration
		chunks  int
		elapsed time.Duration
		n       uint32
		c       int
	}{
		{80 * ms, 8, -5 * ms, 0, 0}, // before the epoch: the first slot
		{80 * ms, 8, 0, 0, 0},
		{80 * ms, 8, 9 * ms, 0, 0}, // mid-slot floors to the slot
		{80 * ms, 8, 10 * ms, 0, 1},
		{80 * ms, 8, 79 * ms, 0, 7},
		{80 * ms, 8, 80 * ms, 1, 0},
		{80 * ms, 8, 845 * ms, 10, 4},
		{100 * ms, 7, 99 * ms, 0, 6},    // spacing floors to 14.285714ms
		{100 * ms, 7, 100*ms - 1, 1, 0}, // the 2 ns remainder belongs to the next repetition
		{100 * ms, 7, 350 * ms, 3, 3},
	} {
		g := grid{tc.period, tc.period / time.Duration(tc.chunks), tc.chunks}
		n, c := g.gridAt(max(tc.elapsed, 0))
		if n != tc.n || c != tc.c {
			t.Errorf("gridAt(%v) = (rep %d, chunk %d), want (rep %d, chunk %d)", tc.elapsed, n, c, tc.n, tc.c)
		}
		if rn, rc := g.gridAt(g.dueOf(n, c)); rn != n || rc != c {
			t.Errorf("gridAt(dueOf(%d, %d)) = (%d, %d): not an inverse", n, c, rn, rc)
		}
		e := &wheelEntry{period: g.period, spacing: g.spacing, chunks: g.chunks}
		e.resync(tc.elapsed)
		if e.n != n || e.c != c || e.due != g.dueOf(n, c) {
			t.Errorf("resync(%v) = (rep %d, chunk %d) due %v, want (rep %d, chunk %d) due %v",
				tc.elapsed, e.n, e.c, e.due, n, c, g.dueOf(n, c))
		}
		// advance lands on the slot holding the instant one spacing on.
		e.advance()
		wn, wc := g.gridAt(g.dueOf(n, c) + g.spacing)
		if e.n != wn || e.c != wc || e.due != g.dueOf(wn, wc) {
			t.Errorf("advance from (%d, %d) = (rep %d, chunk %d) due %v, want (rep %d, chunk %d) due %v",
				n, c, e.n, e.c, e.due, wn, wc, g.dueOf(wn, wc))
		}
	}
}

// catchupRun plays three ticks of a one-video, three-channel wheel with
// every group heard, its third wake `late` behind its instant, and
// returns the rig and, from inside the third release, whether two of its
// frames shared memory.
func catchupRun(t *testing.T, chunkBytes int, late time.Duration) (*wheelRig, bool) {
	t.Helper()
	shared := false
	r := twice(t, func() *wheelRig {
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: 250 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: chunkBytes, Logf: t.Logf})
		r.hearAll(t)
		r.vc.work = 2 * time.Microsecond
		r.vc.onPark = func(n int) {
			if r.vc.wake = 0; n == 3 {
				r.vc.wake = late
			}
		}
		r.log.onSend = func(batch []mcast.BatchEntry) {
			if r.log.batches == 2 { // the third release is beginning
				seen := make(map[*byte]bool)
				for _, be := range batch {
					shared = shared || seen[&be.Frame[0]]
					seen[&be.Frame[0]] = true
				}
			}
		}
		r.play(3)
		return r
	})
	return r, shared
}

// TestWheelCatchupStagesRuns pins the catch-up shaping dispatch feeds
// the GSO path: a shard that wakes behind its schedule stages every due
// chunk of each entry as ONE contiguous same-group run in a single batch,
// in schedule order and across repetition boundaries, with each staged
// frame backed by distinct memory and carrying its own repetition number;
// runs stop at wheelMaxRun; a healthy entry stages exactly one chunk.
func TestWheelCatchupStagesRuns(t *testing.T) {
	// third returns each channel's chunks in the third release, checking
	// that the release keeps each channel's run contiguous.
	third := func(t *testing.T, r *wheelRig) map[chanKey][]event {
		t.Helper()
		runs := make(map[chanKey][]event)
		switches := 0
		var prev mcast.Group
		for _, f := range r.log.sent {
			if f.batch != 3 {
				continue
			}
			if len(runs) > 0 && f.g != prev {
				switches++
			}
			prev = f.g
			k := chanKey{f.g.Video, f.g.Channel}
			runs[k] = append(runs[k], event{f.n, f.c})
		}
		if len(runs) != 3 || switches != 2 {
			t.Fatalf("third release holds %d channels and switches groups %d times, want 3 runs back to back", len(runs), switches)
		}
		return runs
	}

	t.Run("steady", func(t *testing.T) {
		r, _ := catchupRun(t, 1024, 0)
		for k, evs := range third(t, r) {
			if len(evs) != 1 || evs[0] != (event{0, 2}) {
				t.Errorf("video%d/ch%d staged %v, want [(0, 2)]", k.video, k.channel, evs)
			}
		}
		if d := r.srv.driftEvents.Value(); d != 0 {
			t.Errorf("driftEvents = %d on a healthy run, want 0", d)
		}
	})

	t.Run("behind", func(t *testing.T) {
		// Woken 400 ms after the third tick's instant (125 ms) at 62.5 ms
		// spacing: chunks 2 to 8 are due. Channel 1 (4 chunks a
		// repetition) runs (0,2)…(2,0) across two boundaries, channels 2
		// and 3 (8 chunks) (0,2)…(1,0) across one.
		r, shared := catchupRun(t, 1024, 400*time.Millisecond)
		want := map[int][]event{
			1: {{0, 2}, {0, 3}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 0}},
			2: {{0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {1, 0}},
		}
		want[3] = want[2]
		for k, evs := range third(t, r) {
			if !slices.Equal(evs, want[k.channel]) {
				t.Errorf("video%d/ch%d staged %v, want %v", k.video, k.channel, evs, want[k.channel])
			}
		}
		if shared {
			t.Error("two staged frames share one backing buffer")
		}
		if e1, e2 := r.sh.entries[0], r.sh.entries[1]; e1.n != 2 || e1.c != 1 || e2.n != 1 || e2.c != 1 {
			t.Errorf("cursors at (rep %d, chunk %d) and (rep %d, chunk %d) after the runs, want (2, 1) and (1, 1)", e1.n, e1.c, e2.n, e2.c)
		}
		if d := r.srv.driftEvents.Value(); d != 3 {
			t.Errorf("driftEvents = %d, want 3 (one per late entry per release)", d)
		}
	})

	t.Run("capped", func(t *testing.T) {
		// 64-byte chunks give the channels 64 and 128 chunks a repetition
		// at 3.9 ms spacing; 450 ms behind is over 64 spacings for all, so
		// each run stops at exactly wheelMaxRun — the GSO segment cap.
		r, _ := catchupRun(t, 64, 450*time.Millisecond)
		for k, evs := range third(t, r) {
			if len(evs) != wheelMaxRun {
				t.Errorf("video%d/ch%d staged %d chunks, want the %d cap", k.video, k.channel, len(evs), wheelMaxRun)
			}
		}
	})
}

// TestWheelCatchupBehindNonBatchingSender: a tick whose release stalls
// for five and a half spacings — the clock stops in the hold, after the
// tick was staged — is made good by the very next release, whatever the
// sender does with a batch (the log takes it frame by frame, the shape of
// a sender that cannot batch): every chunk that fell due goes out as one
// run, in order, and the channel is back within one spacing of its grid,
// instead of one chunk per tick with the stall carried for ever. The
// stalled release is a drift event, and its log line names the chunk
// that was late, not the one the cursor has moved on to.
func TestWheelCatchupBehindNonBatchingSender(t *testing.T) {
	const unit = 200 * time.Millisecond
	const spacing = unit / 4
	var logged []string
	r := twice(t, func() *wheelRig {
		logged = nil
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: unit, BytesPerUnit: 4096, ChunkBytes: 1024,
			Logf: func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
				t.Logf(format, args...)
			}})
		r.join(t, mcast.Group{Video: 0, Channel: 2})
		r.vc.work = 2 * time.Microsecond
		r.vc.onHold = func(n int) {
			if r.vc.stall = 0; n == 1 {
				r.vc.stall = 5*spacing + spacing/2
			}
		}
		r.play(12)
		return r
	})
	frames := r.channels()[chanKey{0, 2}]
	checkContiguous(t, chanKey{0, 2}, events(frames), 8)
	// The stalled release is the first whose frame left over a unit late.
	g := r.grid(frames[0].g)
	i := slices.IndexFunc(frames, func(f sentFrame) bool { return f.at-g.dueOf(f.n, f.c) > unit })
	if i < 0 {
		t.Fatal("no release stalled")
	}
	stalled := frames[i]
	want := fmt.Sprintf("pacing drift: %v seq %d chunk %d sent", r.sh.entries[0].group, stalled.n, stalled.c)
	if drift := slices.DeleteFunc(slices.Clone(logged), func(l string) bool { return !strings.Contains(l, "pacing drift") }); len(drift) != 1 || !strings.Contains(drift[0], want) {
		t.Errorf("stalled release logged %q, want one drift line naming %q", drift, want)
	}
	var run []sentFrame
	for _, f := range frames[i+1:] {
		if f.batch == frames[i+1].batch {
			run = append(run, f)
		}
	}
	if len(run) != 5 {
		t.Fatalf("the release after the stall sent %d chunks, want the 5 that fell due", len(run))
	}
	if last := run[len(run)-1]; last.at-g.dueOf(last.n, last.c) >= spacing {
		t.Errorf("the catch-up run ends %v behind its grid, want < %v", last.at-g.dueOf(last.n, last.c), spacing)
	}
}

// BenchmarkWheelDispatch measures the scheduling machinery alone: one
// tick's collect → advance cycle with every channel due, at the
// configured channel counts. This is the per-tick overhead the wheel
// engine adds on top of frame preparation and the send itself. The "full"
// cases are the whole tick on paper-shaped schedules (200 and 400
// channels) with 5 % of the channels heard — what a tick costs when it
// costs what is heard, and, faulted, what the fault injector in front of
// the sender adds to it — split into its stage (before the instant) and
// its release (at it).
func BenchmarkWheelDispatch(b *testing.B) {
	for _, phase := range []string{"stage", "release"} {
		for _, k := range []int{20, 40} {
			b.Run(fmt.Sprintf("full/channels=%d/heard=5%%/%s", 10*k, phase), func(b *testing.B) { benchFullDispatch(b, k, false, phase) })
		}
		b.Run("full/channels=200/heard=5%/faulted/"+phase, func(b *testing.B) { benchFullDispatch(b, 20, true, phase) })
	}
	for _, channels := range []int{2, 100, 2100} {
		b.Run(fmt.Sprintf("channels=%d", channels), func(b *testing.B) {
			const spacing = 25 * time.Millisecond
			entries := make([]*wheelEntry, channels)
			for i := range entries {
				entries[i] = &wheelEntry{
					period:  spacing * 8,
					spacing: spacing,
					chunks:  8,
				}
			}
			for _, e := range entries {
				e.resync(0)
			}
			w := &wheelShard{tickLen: spacing, entries: entries}
			now := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += spacing
				w.collect(now)
				for _, e := range w.due {
					e.advance()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(channels), "channels/tick")
		})
	}
}
