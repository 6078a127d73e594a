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
	"skyscraper/internal/wire"
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
// fired — the live subscription opened from inside the previous
// fragment's receive loop.
type tuneEntry struct {
	channel  int
	g        series.Group
	j        int
	tuneUnit int64
	joinAt   time.Time
	sub      *mcast.Subscription // non-nil once tuned
}

// loader receives loader ld's transmission groups in order — one of the
// paper's two loader routines, its tuner a subscription on the shared
// socket.
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
				channel:  d.Group.First + j,
				g:        d.Group,
				j:        j,
				tuneUnit: tuneUnit,
				joinAt:   m.epoch.Add(time.Duration(tuneUnit)*m.unit - lead),
			})
		}
	}
	for i, e := range entries {
		var next *tuneEntry
		if i+1 < len(entries) {
			next = entries[i+1]
		}
		err := c.receiveFragment(e, next)
		// Drop the finished entry: it pins its subscription's buffers, and
		// a loader's schedule outlives any one fragment by the whole video.
		entries[i] = nil
		if err != nil {
			if next != nil && next.sub != nil {
				// The handoff had already tuned the successor; release it.
				m.rcv.Unsubscribe(next.sub)
				m.jm.leave(mcast.Group{Video: c.video, Channel: next.channel})
			}
			return fmt.Errorf("viewer: cohort (video %d, start %d) %v loader: group %d %v channel %d: %w",
				c.video, c.playStartUnit, ld, e.g.Index, e.g, e.channel, err)
		}
	}
	return nil
}

// subDepth is how many received datagrams one subscription may hold
// unreleased before further ones are dropped.
const subDepth = 256

// tune opens the cohort's tap on entry e's channel: subscribe first so no
// datagram lands between the join ack and the tap, then join.
func (c *cohort) tune(e *tuneEntry) error {
	m := c.mux
	grp := mcast.Group{Video: c.video, Channel: e.channel}
	// Every frame the group carries, data or parity, is one chunk behind
	// a header, so that is the slot size.
	sub, err := m.rcv.Subscribe(grp, subDepth, wire.EncodedSize(m.w.ChunkBytes))
	if err != nil {
		return err
	}
	if err := m.jm.join(grp); err != nil {
		m.rcv.Unsubscribe(sub)
		return err
	}
	e.sub = sub
	return nil
}

// cohortFrag is one fragment reception shared by the whole cohort: the
// machine the loader drives and the parity stripe it reassembles.
type cohortFrag struct {
	c          *cohort
	channel    int
	videoBase  int64
	wantSeq    uint32
	totalBytes int
	m          *Machine

	// stripe reassembles the broadcast's parity stripe once for the whole
	// cohort (nil when the server sends none); heals is its reusable
	// reconstruction buffer, consumed before the next frame is read.
	stripe *Stripe
	heals  []Heal
}

// receiveFragment tunes one channel for the whole cohort: one join, one
// subscription, one decode/verify pass per datagram and one recovery
// round trip per loss, regardless of the cohort's size.
//
// When next is non-nil it is the successor fragment on the same loader,
// and this loop performs the tuner handoff itself: it tunes next once
// its join lead opens, so next's frames accumulate in its subscription
// queue while this fragment's repair tail drains.
func (c *cohort) receiveFragment(e, next *tuneEntry) error {
	channel, g, j, tuneUnit := e.channel, e.g, e.j, e.tuneUnit
	m := c.mux
	size := g.Size
	f := &cohortFrag{
		c:          c,
		channel:    channel,
		videoBase:  (g.StartUnit + int64(j)*size) * int64(m.w.BytesPerUnit),
		wantSeq:    uint32(tuneUnit / size),
		totalBytes: int(size) * m.w.BytesPerUnit,
	}
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
		TotalBytes:     f.totalBytes,
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
			m.tracef("chunk-lost", "ch %d seq %d chunk %d lost (%d repair attempts)", channel, f.wantSeq, idx, attempts)
			m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d lost chunk %d",
				c.video, c.playStartUnit, channel, idx)
			c.lostShared.Add(1)
			c.lostSharedBytes.Add(int64(f.m.ChunkLen(idx)))
		},
	})
	// One stripe reassembler serves the whole cohort: a reconstruction
	// heals every member at once, exactly like a chunk caught off the
	// broadcast.
	f.stripe = m.stripes.stripe(f.m.NChunks())
	defer f.stripe.recycle()

	// Join ahead of the broadcast start — unless the previous fragment's
	// receive loop already tuned this entry during its handoff overlap.
	if e.sub == nil {
		if d := time.Until(e.joinAt); d > 0 {
			time.Sleep(d)
		}
		if err := c.tune(e); err != nil {
			return err
		}
	}
	sub := e.sub
	grp := mcast.Group{Video: c.video, Channel: channel}
	defer m.rcv.Unsubscribe(sub)
	defer m.jm.leave(grp)

	// Book the backlog that accumulated in the subscription queue during
	// the tuner handoff before the machine's first deadline pass, so a
	// boundary chunk that already arrived can never be mistaken for a
	// gap, however late this loop starts.
drain:
	for {
		select {
		case slot, ok := <-sub.Ready():
			if !ok {
				return errors.New("shared receiver closed")
			}
			err := c.handleFrame(f, sub.Frame(slot), time.Now())
			sub.Release(slot)
			if err != nil {
				return err
			}
		default:
			break drain
		}
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
		if next != nil && next.sub == nil && !now.Before(next.joinAt) {
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
		if next != nil && next.sub == nil && next.joinAt.Before(wake) {
			wake = next.joinAt
		}
		resetTimer(timer, max(wake.Sub(now), time.Millisecond))
		select {
		case slot, ok := <-sub.Ready():
			if !ok {
				return errors.New("shared receiver closed")
			}
			err := c.handleFrame(f, sub.Frame(slot), time.Now())
			sub.Release(slot)
			if err != nil {
				return err
			}
			// The batched ingress rung lands whole contiguous runs in the
			// queue at once; book the rest of the burst now — bounded by
			// the slot quota so a saturated group cannot starve the
			// repair passes — instead of paying one scheduler pass and
			// one deadline recomputation per frame.
			now = time.Now()
		burst:
			for i := 1; i < subDepth; i++ {
				select {
				case slot, ok := <-sub.Ready():
					if !ok {
						return errors.New("shared receiver closed")
					}
					err := c.handleFrame(f, sub.Frame(slot), now)
					sub.Release(slot)
					if err != nil {
						return err
					}
				default:
					break burst
				}
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
	m.tracef("nack", "ch %d seq %d: %d chunks", f.channel, f.wantSeq, len(chunks))
	accepted, err := m.jm.cc.nack(c.video, f.channel, f.wantSeq, chunks)
	if err != nil {
		var busy *busyError
		if errors.As(err, &busy) {
			c.busy.Add(1)
		}
		m.tracef("nack-fail", "ch %d seq %d: %v", f.channel, f.wantSeq, err)
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
		m.tracef("repair-req", "ch %d seq %d chunk %d attempt %d", f.channel, f.wantSeq, idx, act.Attempt)
	}
	data, err := m.jm.cc.repair(c.video, f.channel, f.wantSeq, off, f.m.ChunkLen(idx))
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
		m.tracef(kind, "ch %d seq %d chunk %d attempt %d: %s", f.channel, f.wantSeq, idx, act.Attempt, note)
	}
}

// handleFrame books one datagram for the whole cohort: one decode, one
// CRC check, one content verification — O(1) in the cohort's size. This
// is the steady-state hot path; it allocates nothing.
func (c *cohort) handleFrame(f *cohortFrag, frame []byte, now time.Time) error {
	m := c.mux
	if wire.IsParity(frame) {
		// Parity rides the same group as data; fold it into the cohort's
		// stripe. Damaged or stray parity is dropped silently — redundancy
		// must never fail a reception that the data path could finish.
		if f.stripe == nil || f.m.Done() {
			return nil
		}
		p, err := wire.DecodeParity(frame)
		if err != nil || int(p.Video) != c.video || int(p.Channel) != f.channel || p.Seq != f.wantSeq ||
			int(p.Total) != f.totalBytes {
			return nil
		}
		f.heals = f.stripe.Parity(&p, f.heals[:0])
		c.bookHeals(f, now)
		return nil
	}
	ch, err := wire.Decode(frame)
	if err != nil {
		if errors.Is(err, wire.ErrBadCRC) {
			c.byteErrors.Add(1)
			return nil
		}
		return err
	}
	if int(ch.Video) != c.video || int(ch.Channel) != f.channel || ch.Seq != f.wantSeq {
		return nil // stray datagram from an earlier membership or repetition
	}
	if int(ch.Total) != f.totalBytes || int(ch.Offset)%m.w.ChunkBytes != 0 || int(ch.Offset) >= f.totalBytes {
		return fmt.Errorf("inconsistent chunk: offset %d total %d", ch.Offset, ch.Total)
	}
	if f.m.Done() {
		return nil // post-deadline stray
	}
	idx := int(ch.Offset) / m.w.ChunkBytes
	if f.m.Chunk(idx, now) == Duplicate {
		return nil
	}
	if bad := content.Verify(ch.Payload, c.video, f.videoBase+int64(ch.Offset)); bad >= 0 {
		c.byteErrors.Add(1)
	}
	c.credit(len(ch.Payload), now)
	if f.stripe != nil {
		f.heals = f.stripe.Data(idx, ch.Payload, f.heals[:0])
		c.bookHeals(f, now)
	}
	return nil
}

// bookHeals books every chunk the stripe just reconstructed, for the
// whole cohort at once. A heal is indistinguishable from a broadcast
// arrival except in its accounting: the machine counts it as a FEC heal,
// suppressing the NACK its window would have sent. Heal payloads alias
// the stripe's pooled accumulators, so they are consumed here, before the
// next frame is read.
func (c *cohort) bookHeals(f *cohortFrag, now time.Time) {
	m := c.mux
	for _, h := range f.heals {
		idx := h.Idx
		if f.m.FecHealed(idx, now) == Duplicate {
			continue
		}
		payload := h.Payload[:f.m.ChunkLen(idx)]
		c.credit(len(payload), now)
		if bad := content.Verify(payload, c.video, f.videoBase+int64(idx)*int64(m.w.ChunkBytes)); bad >= 0 {
			c.byteErrors.Add(1)
		}
		if m.trace != nil {
			m.tracef("fec-heal", "ch %d seq %d chunk %d reconstructed from parity", f.channel, f.wantSeq, idx)
		}
	}
	f.heals = f.heals[:0]
}
