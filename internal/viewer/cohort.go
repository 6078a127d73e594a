package viewer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/series"
)

// cohort is one set of viewers tuned identically: same video, same
// playback start unit, hence the same channel set, the same broadcast
// repetitions, and — by repetition invariance — byte-identical datagrams.
// The fault plan drops by position, so every member also misses the same
// chunks: one pair of loader goroutines receives and recovers for the
// whole cohort, one machine per fragment, and every outcome counter here
// applies to every member.
type cohort struct {
	mux           *Mux
	video         int
	playStartUnit int64
	playStart     time.Time // playStartUnit on the wall clock
	viewers       []int     // global viewer IDs, ascending

	// The buffer ledger: payload bytes the cohort holds (downloaded) and
	// the high-water mark of downloaded minus played, sampled at arrivals.
	downloaded, maxBuffer atomic.Int64

	// Chunk outcomes, each applying to every viewer of the cohort (the
	// aggregator multiplies them by its size); written by the two loader
	// goroutines. byteErrors counts verifications, once per cohort.
	late, dup, lostShared, lostSharedBytes, byteErrors atomic.Int64
	repaired, nackRepaired, fecHeals                   atomic.Int64

	// Recovery events, one per cohort whatever its size: one NACK, one
	// unicast round trip and one stripe defeat speak for every member.
	// busy counts admission pushback on NACK and repair round trips.
	nacks, nackSuppressed, repairReqs, busy, stripeDefeats atomic.Int64
}

// credit books n payload bytes at the instant the cohort holds them — a
// broadcast arrival, a stripe heal or a unicast repair — and raises the
// buffer high-water mark: an atomic add and a little arithmetic per chunk.
func (c *cohort) credit(n int, now time.Time) {
	maxInt64(&c.maxBuffer, c.downloaded.Add(int64(n))-c.mux.playedBytes(now.Sub(c.playStart)))
}

// overCap fails a session whose buffer outgrew its stated capacity; the
// receive loops ask between bursts, whichever goroutine did the crediting.
func (c *cohort) overCap() error {
	if s := c.mux.sess; s != nil && s.MaxBufferBytes > 0 && c.maxBuffer.Load() > s.MaxBufferBytes {
		return fmt.Errorf("buffer capacity exceeded: %d > %d bytes", c.maxBuffer.Load(), s.MaxBufferBytes)
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

// maxInt64 raises the atomic to at least v.
func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (c *cohort) run(groups []series.Group) error {
	m := c.mux
	m.activeCohorts.Inc()
	m.liveViewers.Add(int64(len(c.viewers)))
	defer func() {
		m.activeCohorts.Dec()
		m.liveViewers.Add(-int64(len(c.viewers)))
	}()

	plan, err := core.PlanForGroups(groups, c.playStartUnit)
	if err != nil {
		return fmt.Errorf("viewer: planning cohort (video %d, start %d): %w", c.video, c.playStartUnit, err)
	}
	byLoader := map[core.LoaderID][]core.Download{}
	for _, d := range plan.Downloads {
		byLoader[d.Loader] = append(byLoader[d.Loader], d)
	}
	// The cohort's own goroutine is the odd loader (every plan's first
	// group is odd); only the even loader gets a goroutine of its own.
	var evenErr error
	var wg sync.WaitGroup
	if even := byLoader[core.EvenLoader]; len(even) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evenErr = c.loader(core.EvenLoader, even)
		}()
	}
	oddErr := c.loader(core.OddLoader, byLoader[core.OddLoader])
	wg.Wait()
	return errors.Join(oddErr, evenErr)
}

// tuneEntry is one fragment on a loader's tuning schedule: which channel
// to receive, when its join lead opens, and — once the tuner handoff has
// fired — the live tap opened from inside the previous fragment's receive
// loop.
type tuneEntry struct {
	channel   int
	g         series.Group
	j         int
	tuneUnit  int64
	seq       uint32 // the broadcast repetition received
	videoBase int64  // where the fragment starts in the video, bytes
	joinAt    time.Time
	tap       *fragTap // non-nil once tuned
}

// loader receives loader ld's transmission groups in order — one of the
// paper's two loader routines, its tuner a tap on the mux's router.
func (c *cohort) loader(ld core.LoaderID, downloads []core.Download) error {
	m := c.mux
	// Flatten the schedule so each fragment's receive loop can see its
	// successor: consecutive broadcast windows on a skyscraper loader abut
	// exactly, so the handoff between them must not hinge on how fast the
	// previous fragment's repair tail drains.
	lead := time.Duration(m.cfg.JoinLeadFrac * float64(m.unit))
	var entries []*tuneEntry
	for _, d := range downloads {
		for j := 0; j < d.Group.Count; j++ {
			tuneUnit := d.FragmentStart(j)
			entries = append(entries, &tuneEntry{
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
	for i, e := range entries {
		var next *tuneEntry
		if i+1 < len(entries) {
			next = entries[i+1]
		}
		err := c.receiveFragment(e, next)
		// Drop the finished entry: it pins its tap's queue, and a loader's
		// schedule outlives any one fragment by the whole video.
		entries[i] = nil
		if err != nil {
			if next != nil && next.tap != nil {
				// The handoff had already tuned the successor; release it.
				m.cc.leave(next.tap.g)
				m.route.untap(next.tap)
			}
			return fmt.Errorf("viewer: cohort (video %d, start %d) %v loader: group %d %v channel %d: %w",
				c.video, c.playStartUnit, ld, e.g.Index, e.g, e.channel, err)
		}
	}
	return nil
}

// tune opens the cohort's tap on entry e's channel: tap first so no
// datagram lands between the join ack and the tap, then join.
func (c *cohort) tune(e *tuneEntry) error {
	m := c.mux
	grp := mcast.Group{Video: c.video, Channel: e.channel}
	tap := m.route.tap(grp, e.seq, int(e.g.Size)*m.w.BytesPerUnit, e.videoBase)
	if err := m.cc.join(grp); err != nil {
		m.route.untap(tap)
		return err
	}
	e.tap = tap
	return nil
}

// cohortFrag is one fragment reception shared by the whole cohort: its
// schedule entry, and the machine the loader drives, fed by the entry's
// tap. evs holds the events last taken from the tap, whose buffer goes
// back as the next take's spare.
type cohortFrag struct {
	*tuneEntry
	c   *cohort
	m   *Machine
	evs []rxEvent
}

// receiveFragment tunes one channel for the whole cohort: one join, one
// tap, and one recovery round trip per loss, regardless of the cohort's
// size; the router has already decoded and verified each datagram once
// for every cohort that hears it.
//
// When next is non-nil it is the successor fragment on the same loader,
// and this loop performs the tuner handoff itself: it tunes next once
// its join lead opens, so next's events accumulate on its tap while this
// fragment's repair tail drains.
func (c *cohort) receiveFragment(e, next *tuneEntry) error {
	channel, g, j, tuneUnit := e.channel, e.g, e.j, e.tuneUnit
	m := c.mux
	size := g.Size
	f := &cohortFrag{tuneEntry: e, c: c}
	// Recovery timing — NACK windows and repair backoff — keys on the
	// first member's seed, so a one-viewer cohort recovers on its viewer's
	// own seed.
	seed := m.viewerSeed(c.viewers[0])
	f.m = NewMachine(FragmentParams{
		Video:          c.video,
		Channel:        channel,
		Size:           size,
		TuneUnit:       tuneUnit,
		PlayUnit:       c.playStartUnit + g.StartUnit + int64(j)*size,
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
		NackEnabled:    m.w.NackRepair && !m.cfg.DisableNack,
		Jitter: func(key, stream uint64, window time.Duration) time.Duration {
			return JitterIn(seed, key, stream, window)
		},
		OnLost: func(idx, attempts int) {
			m.tracef("chunk-lost", "ch %d seq %d chunk %d lost (%d repair attempts)", channel, f.seq, idx, attempts)
			m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d lost chunk %d",
				c.video, c.playStartUnit, channel, idx)
			c.lostShared.Add(1)
			c.lostSharedBytes.Add(int64(f.m.ChunkLen(idx)))
		},
	})
	// Join ahead of the broadcast start — unless the previous fragment's
	// receive loop already tuned this entry during its handoff overlap.
	if e.tap == nil {
		if d := time.Until(e.joinAt); d > 0 {
			time.Sleep(d)
		}
		if err := c.tune(e); err != nil {
			return err
		}
	}
	defer m.route.untap(f.tap)
	defer m.cc.leave(f.tap.g)

	// Book the backlog that accumulated on the tap during the tuner
	// handoff before the machine's first deadline pass, so a boundary
	// chunk that already arrived can never be mistaken for a gap, however
	// late this loop starts.
	if err := c.drainTap(f); err != nil {
		return err
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if err := c.overCap(); err != nil {
			return err
		}
		if f.m.Done() {
			break
		}
		now := time.Now()
		// Tuner handoff: once the successor's join lead opens, tune it
		// from here, so whether its first chunks are caught off the
		// broadcast no longer depends on how fast this loop exits.
		if next != nil && next.tap == nil && !now.Before(next.joinAt) {
			if err := c.tune(next); err != nil {
				return err
			}
		}
		act := f.m.Next(now)
		switch act.Kind {
		case ActNack:
			c.nack(f, act.Chunks)
			continue
		case ActRepair:
			c.repair(f, act)
			continue
		}
		if f.m.Done() {
			continue // that pass resolved the rest
		}
		wake := act.Wake
		if next != nil && next.tap == nil && next.joinAt.Before(wake) {
			wake = next.joinAt
		}
		resetTimer(timer, max(wake.Sub(now), time.Millisecond))
		select {
		case <-f.tap.wake:
			// Everything posted since the last take — a whole read's run
			// when the batched ingress rung lands one — is booked in one
			// pass, before the next deadline recomputation.
			if err := c.drainTap(f); err != nil {
				return err
			}
		case <-timer.C:
		}
	}

	// Fold the machine's ledger in: these outcomes hit every viewer of the
	// cohort identically. (Losses were booked through OnLost, with their
	// byte counts.)
	st := f.m.Stats()
	c.late.Add(st.Late)
	c.dup.Add(st.Duplicates)
	c.repaired.Add(st.Repaired)
	c.nacks.Add(st.Nacks)
	c.nackSuppressed.Add(st.NacksSuppressed)
	c.nackRepaired.Add(st.NackRepaired)
	c.fecHeals.Add(st.FecHeals)
	c.stripeDefeats.Add(st.StripeDefeats)
	return nil
}

// nack sends one gap-bitmap NACK for the whole cohort and applies the
// server's answer to the machine.
func (c *cohort) nack(f *cohortFrag, chunks []int) {
	m := c.mux
	m.tracef("nack", "ch %d seq %d: %d chunks", f.channel, f.seq, len(chunks))
	accepted, err := m.cc.nack(c.video, f.channel, f.seq, chunks)
	if err != nil {
		var busy *busyError
		if errors.As(err, &busy) {
			c.busy.Add(1)
		}
		m.tracef("nack-fail", "ch %d seq %d: %v", f.channel, f.seq, err)
		m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d nack (%d chunks) failed: %v",
			c.video, c.playStartUnit, f.channel, len(chunks), err)
		accepted = nil
	}
	f.m.NackResult(chunks, accepted, time.Now())
}

// repair pulls chunk act.Idx over unicast once for the whole cohort — its
// members miss the same chunks, so one copy heals them all — and applies
// the outcome to the machine.
func (c *cohort) repair(f *cohortFrag, act Action) {
	m := c.mux
	idx := act.Idx
	c.repairReqs.Add(1)
	off := int64(idx) * int64(m.w.ChunkBytes)
	if m.trace != nil {
		m.tracef("repair-req", "ch %d seq %d chunk %d attempt %d", f.channel, f.seq, idx, act.Attempt)
	}
	data, err := m.cc.repair(c.video, f.channel, f.seq, off, f.m.ChunkLen(idx))
	now := time.Now()
	outcome, retryAfter, kind := RepairOK, time.Duration(0), "repair-ok"
	if err != nil {
		var busy *busyError
		switch {
		case errors.As(err, &busy):
			c.busy.Add(1)
			outcome, retryAfter, kind = RepairBusy, busy.retryAfter, "repair-busy"
		case errors.Is(err, errMuxDraining):
			outcome, kind = RepairDisabled, "repair-off"
		default:
			outcome, kind = RepairFailed, "repair-fail"
		}
	}
	disp := f.m.RepairResult(idx, outcome, retryAfter, now)
	if disp == Repaired {
		if bad := content.Verify(data, c.video, f.videoBase+off); bad >= 0 {
			c.byteErrors.Add(1)
		}
		c.credit(len(data), now)
	}
	if m.trace != nil {
		note := "repaired"
		if err != nil {
			note = err.Error()
		}
		if disp == Rescheduled {
			note += fmt.Sprintf("; retry in %v", f.m.RetryAt(idx).Sub(now))
		}
		m.tracef(kind, "ch %d seq %d chunk %d attempt %d: %s", f.channel, f.seq, idx, act.Attempt, note)
	}
}

// drainTap applies every event posted to f's tap since the last take.
func (c *cohort) drainTap(f *cohortFrag) error {
	f.evs = f.tap.take(f.evs)
	for _, ev := range f.evs {
		if err := c.apply(f, ev); err != nil {
			return err
		}
	}
	return nil
}

// apply books one routed datagram for the whole cohort — O(1) in the
// cohort's size, and the decode, CRC check and content verification were
// done once by the router for every cohort that hears the datagram. This
// is the steady-state hot path; it allocates nothing.
func (c *cohort) apply(f *cohortFrag, ev rxEvent) error {
	switch ev.kind {
	case rxStray:
		return nil
	case rxBadCRC:
		c.byteErrors.Add(1)
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
			c.byteErrors.Add(1)
		}
		c.credit(int(ev.n), now)
	}
	// A heal books like a broadcast arrival, save that the machine counts
	// it as a FEC heal, suppressing the NACK its window would have sent.
	if idx := int(ev.heal); idx >= 0 && f.m.FecHealed(idx, now) != Duplicate {
		c.credit(f.m.ChunkLen(idx), now)
		if ev.healBad {
			c.byteErrors.Add(1)
		}
		if c.mux.trace != nil {
			c.mux.tracef("fec-heal", "ch %d seq %d chunk %d reconstructed from parity", f.channel, f.seq, idx)
		}
	}
	return nil
}
