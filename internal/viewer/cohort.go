package viewer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/series"
)

// cohort is one set of viewers tuned identically: same video, same
// playback start unit, hence the same channel set, the same broadcast
// repetitions, and — by repetition invariance — byte-identical datagrams.
// The fault plan drops by position, so every member also misses the same
// chunks: the cohort's two loaders receive and recover for the whole
// cohort, one machine per fragment, and every outcome counter here
// applies to every member. Everything in it runs on the audience loop.
type cohort struct {
	mux           *Mux
	video         int
	playStartUnit int64
	playStart     time.Time // playStartUnit on the wall clock
	viewers       []int     // global viewer IDs, ascending

	// loaders are the paper's Odd and Even Loader, indexed by
	// core.LoaderID. at is when the loop next steps the cohort (zero:
	// nothing scheduled); err is what failed it.
	loaders [2]loader
	at      time.Time
	err     error

	// The buffer ledger: payload bytes the cohort holds (downloaded) and
	// the high-water mark of downloaded minus played, sampled at arrivals.
	downloaded, maxBuffer int64

	// Chunk outcomes, each applying to every viewer of the cohort (the
	// aggregator multiplies them by its size). byteErrors counts
	// verifications, once per cohort.
	late, dup, lostShared, lostSharedBytes, byteErrors int64
	nackRepaired, fecHeals                             int64

	// Recovery events, one per cohort whatever its size: one NACK and one
	// stripe defeat speak for every member.
	nacks, nackSuppressed, stripeDefeats int64
}

// loader is one of a cohort's two loader routines (§3.3) as the loop
// drives it: its fragments in tuning order, and those tuned now — at
// most two, the one being received and its successor, tuned when its
// join lead opens while the first one's recovery tail drains.
type loader struct {
	id    core.LoaderID
	sched []tuneEntry
	next  int     // sched[next] is the next fragment to tune
	open  []*frag // tuned, oldest first
	err   error
}

// finished reports whether the loader has nothing left to receive.
func (ld *loader) finished() bool {
	return ld.err != nil || ld.next == len(ld.sched) && len(ld.open) == 0
}

// tuneEntry is one fragment on a loader's tuning schedule: which channel
// to receive, and when its join lead opens.
type tuneEntry struct {
	channel   int
	g         series.Group
	j         int
	tuneUnit  int64
	seq       uint32 // the broadcast repetition received
	videoBase int64  // where the fragment starts in the video, bytes
	joinAt    time.Time
}

// frag is one fragment reception shared by the whole cohort: its
// schedule entry, the machine the router's datagrams and the control
// plane's replies drive, and the repetition state it is tuned to.
type frag struct {
	tuneEntry
	c *cohort
	m *Machine
	b *broadcast
	// busy is a reply awaited (its group's join, a NACK): the fragment is
	// not stepped until it is applied. done says it has left its loader,
	// so a late reply is dropped; err is what failed it.
	busy, done bool
	err        error
}

func (f *frag) group() mcast.Group { return mcast.Group{Video: f.c.video, Channel: f.channel} }

// credit books n payload bytes at the instant the cohort holds them — a
// broadcast arrival (a NACK's re-send among them) or a stripe heal — and
// raises the buffer high-water mark. A cohort that outgrew its disk is
// stepped at once, which fails it.
func (c *cohort) credit(n int, now time.Time) {
	c.downloaded += int64(n)
	c.maxBuffer = max(c.maxBuffer, c.downloaded-c.mux.playedBytes(now.Sub(c.playStart)))
	if c.overCap() != nil {
		c.wakeNow(now)
	}
}

// overCap fails a session whose buffer outgrew its stated capacity.
func (c *cohort) overCap() error {
	if s := c.mux.sess; s != nil && s.MaxBufferBytes > 0 && c.maxBuffer > s.MaxBufferBytes {
		return fmt.Errorf("buffer capacity exceeded: %d > %d bytes", c.maxBuffer, s.MaxBufferBytes)
	}
	return nil
}

// playedBytes is how much of a video the player has consumed elapsed
// after its playback start, under its fixed schedule.
func (m *Mux) playedBytes(elapsed time.Duration) int64 {
	if elapsed <= 0 {
		return 0
	}
	return min(int64(float64(elapsed)/float64(m.unit)*float64(m.w.BytesPerUnit)), m.videoBytes)
}

// earliest is the earlier of two instants, zero standing for none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// wakeNow has the loop step c no later than now.
func (c *cohort) wakeNow(now time.Time) {
	c.at = earliest(c.at, now)
	c.mux.next = earliest(c.mux.next, now)
}

// start plans the cohort's two loaders and steps it for the first time.
func (c *cohort) start(groups []series.Group, now time.Time) {
	m := c.mux
	m.activeCohorts.Inc()
	m.liveViewers.Add(int64(len(c.viewers)))
	plan, err := core.PlanForGroups(groups, c.playStartUnit)
	if err != nil {
		c.finish(fmt.Errorf("viewer: planning cohort (video %d, start %d): %w", c.video, c.playStartUnit, err))
		return
	}
	// Flatten each loader's schedule: consecutive broadcast windows on a
	// skyscraper loader abut exactly, so the successor is tuned at its own
	// join lead, not when the previous fragment's recovery tail drains.
	lead := time.Duration(m.cfg.JoinLeadFrac * float64(m.unit))
	c.loaders[core.EvenLoader].id = core.EvenLoader
	for _, d := range plan.Downloads {
		ld := &c.loaders[d.Loader]
		for j := 0; j < d.Group.Count; j++ {
			tuneUnit := d.FragmentStart(j)
			ld.sched = append(ld.sched, tuneEntry{
				channel:   d.Group.First + j,
				g:         d.Group,
				j:         j,
				tuneUnit:  tuneUnit,
				seq:       uint32(tuneUnit / d.Group.Size),
				videoBase: (d.Group.StartUnit + int64(j)*d.Group.Size) * int64(m.w.BytesPerUnit),
				joinAt:    m.epoch.Add(time.Duration(tuneUnit)*m.unit - lead),
			})
		}
	}
	c.step(now)
}

// step runs whatever of the cohort is due at now and schedules it at the
// earliest instant it asks for next; a cohort whose loaders both have
// nothing left finishes.
func (c *cohort) step(now time.Time) {
	var wake time.Time
	for i := range c.loaders {
		wake = earliest(wake, c.loaders[i].step(c, now))
	}
	c.at = wake
	if c.loaders[core.OddLoader].finished() && c.loaders[core.EvenLoader].finished() {
		c.finish(errors.Join(c.loaders[core.OddLoader].err, c.loaders[core.EvenLoader].err))
	}
}

// finish retires the cohort, failed by err when it is non-nil.
func (c *cohort) finish(err error) {
	m := c.mux
	c.err = err
	m.activeCohorts.Dec()
	m.liveViewers.Add(-int64(len(c.viewers)))
	if m.running--; m.running == 0 {
		close(m.finished)
	}
}

// step advances loader ld of cohort c at now: its tuned fragments are
// stepped in order (a finished one leaves), then the next fragment is
// tuned once its join lead has opened and fewer than two are, and stepped
// in the same pass. It returns the earliest instant the loader asks for,
// zero for none: a fragment waiting on a reply is stepped when it comes.
func (ld *loader) step(c *cohort, now time.Time) (wake time.Time) {
	if ld.err != nil {
		return wake
	}
	if len(ld.open) > 0 {
		if err := c.overCap(); err != nil {
			ld.fail(c, ld.open[0], err)
			return wake
		}
	}
	for i := 0; ; {
		if i == len(ld.open) {
			if i == 2 || ld.next == len(ld.sched) {
				return wake
			}
			e := &ld.sched[ld.next]
			if now.Before(e.joinAt) {
				return earliest(wake, e.joinAt)
			}
			ld.open = append(ld.open, c.tune(e))
			ld.next++
		}
		f := ld.open[i]
		if f.err != nil {
			ld.fail(c, f, f.err)
			return wake
		}
		if f.busy {
			i++
			continue
		}
		w, finished := c.advance(f, now)
		if finished {
			c.fold(f)
			c.untune(f)
			ld.open = slices.Delete(ld.open, i, i+1)
			continue
		}
		wake = earliest(wake, w)
		i++
	}
}

// fail ends loader ld at fragment f with err: every fragment it has
// tuned is released, and nothing more is tuned.
func (ld *loader) fail(c *cohort, f *frag, err error) {
	ld.err = fmt.Errorf("viewer: cohort (video %d, start %d) %v loader: group %d %v channel %d: %w",
		c.video, c.playStartUnit, ld.id, f.g.Index, f.g, f.channel, err)
	for _, o := range ld.open {
		c.untune(o)
	}
	ld.open = nil
}

// tune opens the cohort's reception of entry e on the router. A fragment
// of a joined group asks nothing and is stepped at once. A group's first
// asks its join; the reply goes to the route that asked, and steps every
// fragment tuned to it meanwhile — or, if the join failed (bad channel,
// draining server, dead link), fails them and any tuned before they leave.
func (c *cohort) tune(e *tuneEntry) *frag {
	m := c.mux
	f := &frag{tuneEntry: *e, c: c}
	// The NACK windows' jitter keys on the first member's seed, so a
	// one-viewer cohort recovers on its viewer's own seed.
	seed := m.viewerSeed(c.viewers[0])
	size := e.g.Size
	f.m = NewMachine(FragmentParams{
		Video:          c.video,
		Channel:        e.channel,
		Size:           size,
		TuneUnit:       e.tuneUnit,
		PlayUnit:       c.playStartUnit + e.g.StartUnit + int64(e.j)*size,
		TotalBytes:     int(size) * m.w.BytesPerUnit,
		ChunkBytes:     m.w.ChunkBytes,
		BytesPerUnit:   m.w.BytesPerUnit,
		Epoch:          m.epoch,
		Unit:           m.unit,
		Slack:          time.Duration(m.cfg.SlackFrac * float64(m.unit)),
		Lag:            time.Duration(m.cfg.RepairLagFrac * float64(m.unit)),
		FecGroup:       m.w.FecGroup,
		DisableRepair:  m.cfg.DisableRepair,
		RepairsEnabled: func() bool { return !m.bye.Load() },
		Jitter: func(key, stream uint64, window time.Duration) time.Duration {
			d := JitterIn(seed, key, stream, window)
			if m.trace != nil {
				m.tracef("nack-window", "ch %d seq %d window %d: %v of %v", f.channel, f.seq, stream, d, window)
			}
			return d
		},
		OnLost: func(idx, rounds int) {
			m.tracef("chunk-lost", "ch %d seq %d chunk %d lost (%d NACK rounds)", f.channel, f.seq, idx, rounds)
			m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d lost chunk %d",
				c.video, c.playStartUnit, f.channel, idx)
			c.lostShared++
			c.lostSharedBytes += int64(f.m.ChunkLen(idx))
		},
	})
	gr, opened := m.route.tap(f)
	f.busy, f.err = !gr.joined && gr.err == nil, gr.err
	if opened {
		m.ask(func() {
			err := m.cc.join(f.group())
			m.post(func(now time.Time) {
				gr.joined, gr.err = err == nil, err
				for _, w := range gr.frags {
					w.busy, w.err = false, cmp.Or(w.err, err)
					w.c.wakeNow(now)
				}
			})
		})
	}
	return f
}

// untune ends f's reception: off the router, and out of the group with
// its last fragment — after the group's join, since requests run in order.
func (c *cohort) untune(f *frag) {
	m, g := c.mux, f.group()
	f.done = true
	if m.route.untap(f) {
		m.ask(func() { m.cc.leave(g) })
	}
}

// advance steps f's machine at now. A NACK goes to the control
// goroutine, and f waits for the reply; otherwise advance returns the
// instant f next asks for, or finished once every chunk is resolved.
func (c *cohort) advance(f *frag, now time.Time) (wake time.Time, finished bool) {
	for !f.m.Done() {
		act := f.m.Next(now)
		if act.Kind == ActNack {
			c.nack(f, act.Chunks)
			return time.Time{}, false
		}
		if !f.m.Done() {
			// At least a millisecond on: a wake due already re-steps f
			// then, not in a spin.
			return now.Add(max(act.Wake.Sub(now), time.Millisecond)), false
		}
	}
	return time.Time{}, true
}

// fold adds a finished fragment's ledger to the cohort's: these outcomes
// hit every viewer of the cohort identically. (Losses were booked
// through OnLost, with their byte counts.)
func (c *cohort) fold(f *frag) {
	st := f.m.Stats()
	c.late += st.Late
	c.dup += st.Duplicates
	c.nacks += st.Nacks
	c.nackSuppressed += st.NacksSuppressed
	c.nackRepaired += st.NackRepaired
	c.fecHeals += st.FecHeals
	c.stripeDefeats += st.StripeDefeats
}

// nack sends one gap-bitmap NACK for the whole cohort on the control
// goroutine. f waits for the answer, which is applied to the machine and
// steps the cohort — unless f has left its loader by then.
func (c *cohort) nack(f *frag, chunks []int) {
	m := c.mux
	m.tracef("nack", "ch %d seq %d: %d chunks", f.channel, f.seq, len(chunks))
	f.busy = true
	m.ask(func() {
		accepted, err := m.cc.nack(c.video, f.channel, f.seq, chunks)
		m.post(func(now time.Time) {
			f.busy = false
			if f.done {
				return
			}
			if err != nil {
				m.tracef("nack-fail", "ch %d seq %d: %v", f.channel, f.seq, err)
				m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d nack (%d chunks) failed: %v",
					c.video, c.playStartUnit, f.channel, len(chunks), err)
			} else if m.trace != nil {
				refused := 0
				for _, idx := range chunks {
					if !accepted(idx) {
						refused++
					}
				}
				if refused > 0 {
					m.tracef("nack-refused", "ch %d seq %d: %d of %d chunks", f.channel, f.seq, refused, len(chunks))
				}
			}
			f.m.NackResult(chunks, now)
			c.step(now)
		})
	})
}

// apply books one routed datagram for the whole cohort — O(1) in the
// cohort's size, and the decode, CRC check and content verification were
// done once by the router for every cohort that hears the datagram. This
// is the steady-state hot path; it allocates nothing.
func (c *cohort) apply(f *frag, ev rxEvent) error {
	switch ev.kind {
	case rxStray:
		return nil
	case rxBadCRC:
		c.byteErrors++
		return nil
	case rxMalformed:
		return errors.New("malformed datagram")
	case rxInconsistent:
		return fmt.Errorf("inconsistent chunk: offset %d total %d", ev.idx, ev.n)
	}
	if f.m.Done() {
		return nil // post-deadline stray
	}
	now := time.Unix(0, ev.at)
	if (ev.kind == rxData || ev.kind == rxDup) && f.m.Chunk(int(ev.idx), now) != Duplicate {
		if ev.bad {
			c.byteErrors++
		}
		c.credit(int(ev.n), now)
	}
	// A heal books like a broadcast arrival, save that the machine counts
	// it as a FEC heal, suppressing the NACK its window would have sent.
	if idx := int(ev.heal); idx >= 0 && f.m.FecHealed(idx, now) != Duplicate {
		c.credit(f.m.ChunkLen(idx), now)
		if ev.healBad {
			c.byteErrors++
		}
		if c.mux.trace != nil {
			c.mux.tracef("fec-heal", "ch %d seq %d chunk %d reconstructed from parity", f.channel, f.seq, idx)
		}
	}
	return nil
}
