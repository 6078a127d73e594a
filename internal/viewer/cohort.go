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
// One pair of loader goroutines receives for the whole cohort; shared
// counters here apply to every member, and per-viewer ledgers take over
// only where losses make outcomes diverge.
type cohort struct {
	mux           *Mux
	video         int
	playStartUnit int64
	playStart     time.Time // playStartUnit on the wall clock
	viewers       []int     // global viewer IDs, ascending

	// The buffer ledger: payload bytes some member holds (downloaded) and
	// the high-water mark of downloaded minus played, sampled at arrivals.
	downloaded, maxBuffer atomic.Int64

	// Shared outcome counters, each applying to every viewer of the
	// cohort; written by the two loader goroutines.
	late, dup, lostShared, lostSharedBytes, byteErrors atomic.Int64

	// NACK-ladder counters. nacks and nackSuppressed are cohort-level
	// events (one NACK speaks for every member); nackRepaired chunks heal
	// every member at once, so the aggregator multiplies it by the cohort
	// size. nackBusy counts admission pushback on NACK round trips.
	nacks, nackSuppressed, nackRepaired, nackBusy atomic.Int64

	// Parity-stripe counters. fecHeals chunks are reconstructed on the
	// shared path before any divergence and heal every member at once
	// (multiplied by the cohort size, like nackRepaired); heals of
	// already-diverged chunks are booked per viewer through the machines
	// instead, because a member may have unicast-repaired the chunk
	// already (the heal is that viewer's duplicate, not a heal).
	// stripeDefeats are cohort-level escalation events, one per defeated
	// gap (like nacks).
	fecHeals, stripeDefeats atomic.Int64
}

// credit books n payload bytes at the first instant any member of the
// cohort holds them — a shared arrival, a stripe heal, a recorded
// divergent arrival or the first unicast repair — and raises the buffer
// high-water mark: an atomic add and a little arithmetic per chunk.
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
// Observe-mode machine the loader drives, plus the divergence state the
// worker pool picks up when gaps appear.
type cohortFrag struct {
	c         *cohort
	channel   int
	videoBase int64
	wantSeq   uint32
	// params is the per-viewer machine template (repair mode); the
	// loader's shared machine runs an Observe-mode copy of it.
	params FragmentParams
	m      *Machine

	// diverged marks chunks handed to the per-viewer plane (loader-owned;
	// nil until the fragment's first divergence).
	diverged bitset
	// divs records those chunks in hand-over order, so the loader and the
	// workers walk the divergence, not the fragment, and memory follows
	// the chunks diverged. The loader fills the next record and then
	// publishes it by bumping ndiverged; workers read only the first
	// ndiverged, through divergence. Records live in fixed blocks that never
	// move: a full table is replaced by a longer copy sharing its blocks,
	// so nothing a worker reads is ever reallocated under it.
	divs      atomic.Pointer[[]*divBlock]
	ndiverged atomic.Int64
	// vfs are the per-viewer fragments, materialized at first divergence.
	vfs []*viewerFrag
	// pending counts unfinished viewer fragments; inflight counts
	// commands queued to workers. The fragment completes when the shared
	// machine is done and both reach zero.
	pending  atomic.Int64
	inflight atomic.Int64
	wake     chan struct{}

	// stripe reassembles the broadcast's parity stripe once for the whole
	// cohort (nil when the server sends none); heals is its reusable
	// reconstruction buffer, consumed before the next frame is read.
	stripe *Stripe
	heals  []Heal
}

// divergence is the shared record of one diverged chunk.
type divergence struct {
	idx int
	// arrived records the chunk's broadcast arrival (unix nanos), once;
	// workers book it into viewer machines that still miss it. healed
	// marks the recorded arrival as a stripe reconstruction (set before
	// the arrived store publishes it), so workers book it as a FEC heal
	// rather than a broadcast chunk.
	arrived atomic.Int64
	healed  atomic.Bool
	// held marks the chunk held by some member — off the broadcast or by
	// its own unicast repair, whichever came first — so the buffer ledger
	// counts it once.
	held atomic.Bool
}

// divBlockLen is how many divergence records one block holds.
const divBlockLen = 8

type divBlock [divBlockLen]divergence

// addDivergence marks chunk idx diverged and publishes its record
// (loader only).
func (f *cohortFrag) addDivergence(idx int) {
	if f.diverged == nil {
		f.diverged = newBitset(f.m.NChunks())
	}
	f.diverged.set(idx)
	k := int(f.ndiverged.Load())
	var blocks []*divBlock
	if p := f.divs.Load(); p != nil {
		blocks = *p
	}
	if k == len(blocks)*divBlockLen {
		blocks = append(blocks[:len(blocks):len(blocks)], new(divBlock))
		f.divs.Store(&blocks)
	}
	blocks[k/divBlockLen][k%divBlockLen].idx = idx
	f.ndiverged.Store(int64(k + 1))
}

// divergence returns published record k (k < ndiverged); safe from any
// goroutine.
func (f *cohortFrag) divergence(k int) *divergence {
	blocks := *f.divs.Load()
	return &blocks[k/divBlockLen][k%divBlockLen]
}

// divergenceOf returns diverged chunk idx's record.
func (f *cohortFrag) divergenceOf(idx int) *divergence {
	for k := range int(f.ndiverged.Load()) {
		if d := f.divergence(k); d.idx == idx {
			return d
		}
	}
	return nil
}

// creditFirst credits diverged chunk d to the buffer ledger unless some
// member already holds it.
func (f *cohortFrag) creditFirst(d *divergence, n int, now time.Time) {
	if d.held.CompareAndSwap(false, true) {
		f.c.credit(n, now)
	}
}

// notify nudges the loader to re-check the completion condition.
func (f *cohortFrag) notify() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// viewerFrag is one viewer's divergent view of a fragment. After the
// loader materializes it, every field is owned by the viewer's worker.
type viewerFrag struct {
	f      *cohortFrag
	viewer int
	vm     *Machine
	done   bool
	// folded is the machine-stats prefix already credited to the ledger:
	// a viewer can finish, be reopened by a later gap, and finish again,
	// so each finish folds only the delta since the last one.
	folded MachineStats
}

func chunkLen(totalBytes, chunkBytes, idx int) int {
	if rem := totalBytes - idx*chunkBytes; rem < chunkBytes {
		return rem
	}
	return chunkBytes
}

// receiveFragment tunes one channel for the whole cohort: one join, one
// subscription, one decode/verify pass per datagram regardless of the
// cohort's size.
//
// When next is non-nil it is the successor fragment on the same loader,
// and this loop performs the tuner handoff itself: it tunes next once
// its join lead opens, so next's frames accumulate in its subscription
// queue while this fragment's repair tail drains.
func (c *cohort) receiveFragment(e, next *tuneEntry) error {
	channel, g, j, tuneUnit := e.channel, e.g, e.j, e.tuneUnit
	m := c.mux
	size := g.Size
	totalBytes := int(size) * m.w.BytesPerUnit
	f := &cohortFrag{
		c:         c,
		channel:   channel,
		videoBase: (g.StartUnit + int64(j)*size) * int64(m.w.BytesPerUnit),
		wantSeq:   uint32(tuneUnit / size),
		params: FragmentParams{
			Video:        c.video,
			Channel:      channel,
			Size:         size,
			TuneUnit:     tuneUnit,
			PlayUnit:     c.playStartUnit + g.StartUnit + int64(j)*size,
			TotalBytes:   totalBytes,
			ChunkBytes:   m.w.ChunkBytes,
			BytesPerUnit: m.w.BytesPerUnit,
			Epoch:        m.epoch,
			Unit:         m.unit,
			Slack:        time.Duration(m.cfg.SlackFrac * float64(m.unit)),
			Lag:          time.Duration(m.cfg.RepairLagFrac * float64(m.unit)),
			FecGroup:     m.w.FecGroup,
		},
		wake: make(chan struct{}, 1),
	}
	op := f.params
	// With repairs on, the shared machine only observes: gaps are handed
	// to the per-viewer plane. With repairs off there is nothing to
	// diverge over, so it keeps the deadline accounting itself and every
	// loss is cohort-wide.
	op.Observe = !m.cfg.DisableRepair
	op.DisableRepair = m.cfg.DisableRepair
	op.OnLost = func(idx, _ int) {
		m.tracef("chunk-lost", "ch %d seq %d chunk %d lost cohort-wide", channel, f.wantSeq, idx)
		m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d lost chunk %d cohort-wide",
			c.video, c.playStartUnit, channel, idx)
		c.lostShared.Add(1)
		c.lostSharedBytes.Add(int64(chunkLen(totalBytes, m.w.ChunkBytes, idx)))
	}
	// The shared machine runs the multicast-first NACK ladder before any
	// gap is handed to the per-viewer unicast plane: one NACK speaks for
	// the whole cohort, and one re-send heals it. Timing keys on the first
	// member's seed, so a one-viewer cohort NACKs on its viewer's own seed.
	op.NackEnabled = m.w.NackRepair && !m.cfg.DisableNack
	if op.NackEnabled {
		seed := m.viewerSeed(c.viewers[0])
		op.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
			return JitterIn(seed, key, stream, window)
		}
	}
	f.m = NewMachine(op)
	// One stripe reassembler serves the whole cohort: a reconstruction on
	// the shared path heals every member at once, exactly like a chunk
	// caught off the broadcast.
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
		if f.vfs != nil && f.pending.Load() == 0 && f.inflight.Load() == 0 {
			// Every viewer has resolved its divergent chunks (repaired or
			// lost), so the shared machine need not hold them open to
			// their loss deadlines — lingering here would delay this
			// loader's next fragment past its join time. Only the loader
			// goroutine submits work, so the zero reading is stable.
			for k := range int(f.ndiverged.Load()) {
				f.m.ResolveRepaired(f.divergence(k).idx)
			}
		}
		if f.m.Done() && f.pending.Load() == 0 && f.inflight.Load() == 0 {
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
		var wake time.Time
		if !f.m.Done() {
			act := f.m.Next(now)
			if act.Kind == ActGap {
				m.tracef("gap", "ch %d seq %d chunk %d overdue", channel, f.wantSeq, act.Idx)
				c.diverge(f, act.Idx)
				continue
			}
			if act.Kind == ActNack {
				m.tracef("nack", "ch %d seq %d: %d chunks", channel, f.wantSeq, len(act.Chunks))
				accepted, err := m.jm.cc.nack(c.video, channel, f.wantSeq, act.Chunks)
				if err != nil {
					var busy *busyError
					if errors.As(err, &busy) {
						c.nackBusy.Add(1)
					}
					m.tracef("nack-fail", "ch %d seq %d: %v", channel, f.wantSeq, err)
					m.cfg.Logf("viewer: cohort (video %d, start %d) channel %d nack (%d chunks) failed: %v",
						c.video, c.playStartUnit, channel, len(act.Chunks), err)
					accepted = nil
				}
				f.m.NackResult(act.Chunks, accepted, time.Now())
				continue
			}
			if f.m.Done() {
				continue // that pass resolved the rest
			}
			wake = act.Wake
		} else {
			// Only worker completions remain; f.wake is the primary
			// signal, the timer a backstop.
			wake = now.Add(20 * time.Millisecond)
		}
		if next != nil && next.sub == nil && next.joinAt.Before(wake) {
			wake = next.joinAt
		}
		d := wake.Sub(now)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		resetTimer(timer, d)
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
		case <-f.wake:
		case <-timer.C:
		}
	}

	// Fold the shared machine's ledger in: these outcomes hit every
	// viewer of the cohort identically. (Shared losses were booked
	// through OnLost, with their byte counts.)
	st := f.m.Stats()
	c.late.Add(st.Late)
	c.dup.Add(st.Duplicates)
	c.nacks.Add(st.Nacks)
	c.nackSuppressed.Add(st.NacksSuppressed)
	c.nackRepaired.Add(st.NackRepaired)
	c.fecHeals.Add(st.FecHeals)
	c.stripeDefeats.Add(st.StripeDefeats)
	return nil
}

// handleFrame books one datagram for the whole cohort: one decode, one
// CRC check, one content verification — O(1) in the cohort's size. This
// is the steady-state hot path; on the converged branch it allocates
// nothing.
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
			int(p.Total) != f.params.TotalBytes {
			return nil
		}
		f.heals = f.stripe.Parity(&p, f.heals[:0])
		return c.bookHeals(f, now)
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
	if int(ch.Total) != f.params.TotalBytes || int(ch.Offset)%m.w.ChunkBytes != 0 || int(ch.Offset) >= f.params.TotalBytes {
		return fmt.Errorf("inconsistent chunk: offset %d total %d", ch.Offset, ch.Total)
	}
	if f.m.Done() {
		return nil // post-deadline stray
	}
	idx := int(ch.Offset) / m.w.ChunkBytes
	if f.diverged != nil && f.diverged.has(idx) {
		d := f.divergenceOf(idx)
		if d.arrived.Load() != 0 {
			// A further broadcast copy of an already-recorded divergent
			// chunk: booked cohort-wide.
			c.dup.Add(1)
			return nil
		}
		if bad := content.Verify(ch.Payload, c.video, f.videoBase+int64(ch.Offset)); bad >= 0 {
			c.byteErrors.Add(1)
		}
		f.creditFirst(d, len(ch.Payload), now)
		d.arrived.Store(now.UnixNano())
		// The shared machine no longer waits on it; viewers that still
		// miss it book the recorded arrival on their own clocks.
		f.m.ResolveRepaired(idx)
		for _, vf := range f.vfs {
			m.submit(vf, -1)
		}
		if f.stripe != nil {
			f.heals = f.stripe.Data(idx, ch.Payload, f.heals[:0])
			return c.bookHeals(f, now)
		}
		return nil
	}
	if f.m.Chunk(idx, now) == Duplicate {
		return nil
	}
	if bad := content.Verify(ch.Payload, c.video, f.videoBase+int64(ch.Offset)); bad >= 0 {
		c.byteErrors.Add(1)
	}
	c.credit(len(ch.Payload), now)
	if f.stripe != nil {
		f.heals = f.stripe.Data(idx, ch.Payload, f.heals[:0])
		return c.bookHeals(f, now)
	}
	return nil
}

// bookHeals books every chunk the stripe just reconstructed, for the
// whole cohort at once. A heal is indistinguishable from a broadcast
// arrival except in its accounting: the shared machine counts it as a
// FEC heal (suppressing the NACK its window would have sent), and a
// heal of an already-diverged chunk feeds the per-viewer plane through
// the same recorded-arrival path a late broadcast copy would use —
// marked healed, so each viewer's machine books it as its own FEC heal
// or, if that viewer already unicast-repaired the chunk, a duplicate.
// Heal payloads alias the stripe's pooled accumulators, so they are
// consumed here, before the next frame is read.
func (c *cohort) bookHeals(f *cohortFrag, now time.Time) error {
	m := c.mux
	for _, h := range f.heals {
		idx := h.Idx
		payload := h.Payload[:chunkLen(f.params.TotalBytes, f.params.ChunkBytes, idx)]
		if f.diverged != nil && f.diverged.has(idx) {
			d := f.divergenceOf(idx)
			if d.arrived.Load() != 0 {
				c.dup.Add(1)
				continue
			}
			f.creditFirst(d, len(payload), now)
			d.healed.Store(true)
			d.arrived.Store(now.UnixNano())
			f.m.ResolveRepaired(idx)
			for _, vf := range f.vfs {
				m.submit(vf, -1)
			}
		} else if f.m.FecHealed(idx, now) == Duplicate {
			continue
		} else {
			c.credit(len(payload), now)
		}
		if bad := content.Verify(payload, c.video, f.videoBase+int64(idx)*int64(f.params.ChunkBytes)); bad >= 0 {
			c.byteErrors.Add(1)
		}
		if m.trace != nil {
			m.tracef("fec-heal", "ch %d seq %d chunk %d reconstructed from parity", f.channel, f.wantSeq, idx)
		}
	}
	f.heals = f.heals[:0]
	return nil
}

// diverge hands a gap to the per-viewer repair plane. The first gap of a
// fragment materializes one machine per viewer — with every other chunk
// pre-resolved, so per-viewer work stays proportional to divergence, not
// fragment size; later gaps re-arm (reopen) the existing machines.
func (c *cohort) diverge(f *cohortFrag, idx int) {
	f.addDivergence(idx)
	if f.vfs == nil {
		f.vfs = make([]*viewerFrag, len(c.viewers))
		f.pending.Store(int64(len(c.viewers)))
		for i, v := range c.viewers {
			f.vfs[i] = c.newViewerFrag(f, v, idx)
		}
		for _, vf := range f.vfs {
			c.mux.submit(vf, -1)
		}
		return
	}
	for _, vf := range f.vfs {
		c.mux.submit(vf, idx)
	}
}

// newViewerFrag builds viewer v's machine for fragment f with only the
// diverging chunk outstanding, its retry backoff keyed on the viewer's own
// seed.
func (c *cohort) newViewerFrag(f *cohortFrag, v, gapIdx int) *viewerFrag {
	m := c.mux
	p := f.params
	p.RepairsEnabled = func() bool { return !m.bye.Load() }
	seed := m.viewerSeed(v)
	p.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
		return JitterIn(seed, key, stream, window)
	}
	led := &m.ledgers[v]
	totalBytes, chunkBytes := f.params.TotalBytes, f.params.ChunkBytes
	p.OnLost = func(idx, attempts int) {
		led.lost++
		led.lostBytes += int64(chunkLen(totalBytes, chunkBytes, idx))
		m.tracef("chunk-lost", "ch %d seq %d chunk %d lost (%d repair attempts)", f.channel, f.wantSeq, idx, attempts)
	}
	return &viewerFrag{f: f, viewer: v, vm: newResolvedMachine(p, gapIdx)}
}
