package viewer

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"skyscraper/internal/des"
)

// nextFullScan is the reference implementation of Machine.Next: the
// original pass that revisits every chunk of the fragment on every call.
// It reads each unresolved chunk's recovery state through state — its
// record when listed, its schedule recomputed from the geometry when
// dormant — and stores it back only when the pass changed it, never
// touching the frontier or pruning the active set, so a machine driven
// exclusively through it behaves exactly as machines did before Next
// became incremental. The differential property test drives one machine
// through Next and a twin through this and requires identical actions,
// wake times and stats.
func (m *Machine) nextFullScan(now time.Time) Action {
	next := m.Deadline()
	nackDue := false
	var nackAnchor time.Time
	for idx := 0; idx < m.nchunks; idx++ {
		if m.Have(idx) {
			continue
		}
		c := m.state(idx)
		act, acted := m.fullScanChunk(&c, now, &next, &nackDue, &nackAnchor)
		m.store(c)
		if acted {
			return act
		}
	}
	if nackDue && m.nackAt.IsZero() {
		m.nackSeq++
		m.nackAt = nackAnchor.Add(m.p.Jitter(NackJitterKey(m.p.Channel), m.nackSeq, m.p.NackWindow))
	}
	if !m.nackAt.IsZero() {
		if !now.Before(m.nackAt) {
			until := m.nackAt
			m.nackAt = time.Time{}
			if chunks := m.fireNackFullScan(until, now); len(chunks) > 0 {
				m.stats.Nacks++
				return Action{Kind: ActNack, Chunks: chunks}
			}
			m.stats.NacksSuppressed++
		} else if m.nackAt.Before(next) {
			next = m.nackAt
		}
	}
	return Action{Kind: ActWait, Wake: next}
}

// fullScanChunk is the full scan's pass over one unresolved chunk c.
func (m *Machine) fullScanChunk(c *openChunk, now time.Time, next *time.Time, nackDue *bool, nackAnchor *time.Time) (Action, bool) {
	wakeBy := func(t time.Time) {
		if t.Before(*next) {
			*next = t
		}
	}
	lb := m.LostBy(c.idx)
	if !now.Before(lb) {
		if m.p.Observe && c.tryAt.IsZero() {
			m.book(c.idx)
		} else {
			m.markLost(c.idx, c.attempts)
		}
		return Action{}, false
	}
	if !c.fecUntil.IsZero() {
		if now.Before(c.fecUntil) {
			wakeBy(c.fecUntil)
			wakeBy(lb)
			return Action{}, false
		}
		if c.fecUntil.After(c.tryAt) {
			m.stats.StripeDefeats++
			c.tryAt = c.fecUntil
		}
		c.fecUntil = time.Time{}
	}
	if c.phase != nackDone {
		if c.phase == nackWait && !now.Before(c.tryAt) {
			m.escalateNack(c, now)
		}
		if c.phase == nackPre && !now.Before(c.tryAt) {
			if int(c.tries) >= m.p.MaxNackRounds && m.nackAt.IsZero() {
				c.phase = nackDone
			} else {
				*nackDue = true
				if nackAnchor.IsZero() || c.tryAt.Before(*nackAnchor) {
					*nackAnchor = c.tryAt
				}
			}
		}
		if c.phase != nackDone {
			if now.Before(c.tryAt) {
				wakeBy(c.tryAt)
			}
			wakeBy(lb)
			return Action{}, false
		}
	}
	if m.gapPending(c) {
		if !now.Before(c.tryAt) {
			c.tryAt = time.Time{}
			return Action{Kind: ActGap, Idx: c.idx}, true
		}
		wakeBy(c.tryAt)
	}
	if m.repairable(c) {
		if !now.Before(c.tryAt) {
			return Action{Kind: ActRepair, Idx: c.idx, Attempt: int(c.attempts) + 1}, true
		}
		wakeBy(c.tryAt)
	}
	wakeBy(lb)
	return Action{}, false
}

// fireNackFullScan is fireNack over every chunk of the fragment.
func (m *Machine) fireNackFullScan(until, now time.Time) []int {
	var chunks []int
	for idx := 0; idx < m.nchunks; idx++ {
		if m.Have(idx) {
			continue
		}
		c := m.state(idx)
		if c.phase != nackPre || c.tryAt.After(until) || int(c.tries) >= m.p.MaxNackRounds {
			continue
		}
		c.tries++
		c.phase = nackWait
		c.tryAt = m.relistenBy(idx, now)
		m.store(c)
		chunks = append(chunks, idx)
	}
	return chunks
}

// arrival is chunk idx's expected broadcast arrival instant.
func (m *Machine) arrival(idx int) time.Time { return m.at(m.arrivalOff(idx)) }

// store writes c back as its chunk's recovery state: into its record when
// listed, into a new record when it departs from the chunk's dormant
// state, and nowhere when a dormant chunk stays dormant.
func (m *Machine) store(c openChunk) {
	switch {
	case m.listed(c.idx):
		*m.find(c.idx) = c
	case c != m.dormant(c.idx):
		m.list(c)
	}
}

// ---------------------------------------------------------------------------
// Differential property: incremental Next vs the full scan.
// ---------------------------------------------------------------------------

// machinePair drives the machine under test (inc, through Next) and its
// reference twin (ref, through nextFullScan) with one script, failing on
// the first observable difference.
type machinePair struct {
	t        *testing.T
	inc, ref *Machine
	// lostInc/lostRef log the OnLost callbacks in order.
	lostInc, lostRef [][2]int
	label            string
	// kinds counts the actions Next returned, by kind.
	kinds *[4]int
}

func (mp *machinePair) failf(format string, args ...any) {
	mp.t.Helper()
	mp.t.Fatalf("%s: %s", mp.label, fmt.Sprintf(format, args...))
}

func (mp *machinePair) next(now time.Time) Action {
	mp.t.Helper()
	a, b := mp.inc.Next(now), mp.ref.nextFullScan(now)
	if a.Kind != b.Kind || a.Idx != b.Idx || a.Attempt != b.Attempt || !a.Wake.Equal(b.Wake) ||
		!reflect.DeepEqual(a.Chunks, b.Chunks) {
		mp.failf("Next(%v): incremental %+v, full scan %+v", now, a, b)
	}
	mp.kinds[a.Kind]++
	mp.check()
	return a
}

// check compares everything a driver can observe between calls.
func (mp *machinePair) check() {
	mp.t.Helper()
	if mp.inc.Stats() != mp.ref.Stats() {
		mp.failf("stats: incremental %+v, full scan %+v", mp.inc.Stats(), mp.ref.Stats())
	}
	if mp.inc.Done() != mp.ref.Done() {
		mp.failf("done: incremental %v, full scan %v", mp.inc.Done(), mp.ref.Done())
	}
	if !reflect.DeepEqual(mp.lostInc, mp.lostRef) {
		mp.failf("OnLost: incremental %v, full scan %v", mp.lostInc, mp.lostRef)
	}
	// Attempts are recovery state, which retires with a resolved chunk's
	// record (lazily on the incremental side, never on the reference
	// side), so they are compared while the chunk is open.
	for idx := 0; idx < mp.inc.NChunks(); idx++ {
		if mp.inc.Have(idx) != mp.ref.Have(idx) ||
			!mp.inc.Have(idx) && mp.inc.Attempts(idx) != mp.ref.Attempts(idx) {
			mp.failf("chunk %d: incremental have=%v attempts=%d, full scan have=%v attempts=%d", idx,
				mp.inc.Have(idx), mp.inc.Attempts(idx), mp.ref.Have(idx), mp.ref.Attempts(idx))
		}
	}
}

func (mp *machinePair) chunk(idx int, now time.Time) {
	if a, b := mp.inc.Chunk(idx, now), mp.ref.Chunk(idx, now); a != b {
		mp.failf("Chunk(%d): %v vs %v", idx, a, b)
	}
}

func (mp *machinePair) fecHealed(idx int, now time.Time) {
	if a, b := mp.inc.FecHealed(idx, now), mp.ref.FecHealed(idx, now); a != b {
		mp.failf("FecHealed(%d): %v vs %v", idx, a, b)
	}
}

func (mp *machinePair) resolveRepaired(idx int) {
	if a, b := mp.inc.ResolveRepaired(idx), mp.ref.ResolveRepaired(idx); a != b {
		mp.failf("ResolveRepaired(%d): %v vs %v", idx, a, b)
	}
}

func (mp *machinePair) reopen(idx int) {
	mp.inc.Reopen(idx)
	mp.ref.Reopen(idx)
}

func (mp *machinePair) repairResult(idx int, out RepairOutcome, retryAfter time.Duration, now time.Time) {
	if a, b := mp.inc.RepairResult(idx, out, retryAfter, now), mp.ref.RepairResult(idx, out, retryAfter, now); a != b {
		mp.failf("RepairResult(%d, %v): %v vs %v", idx, out, a, b)
	}
}

func (mp *machinePair) nackResult(chunks []int, accepted func(int) bool, now time.Time) {
	mp.inc.NackResult(chunks, accepted, now)
	mp.ref.NackResult(chunks, accepted, now)
}

// diffGeometry draws one fragment shape: from a handful of chunks to a
// few hundred, just-in-time (playback right behind the broadcast, so loss
// deadlines bite first) or prefetched (every chunk's deadline is the
// receive cutoff).
func diffGeometry(r *des.Rand) FragmentParams {
	size := int64(1 + r.Intn(6))
	perUnit := 1 << r.Intn(6) // chunks per unit
	p := FragmentParams{
		Video:        1,
		Channel:      1 + r.Intn(5),
		Size:         size,
		TuneUnit:     size * int64(1+r.Intn(4)),
		ChunkBytes:   64,
		BytesPerUnit: 64 * perUnit,
		TotalBytes:   int(size)*64*perUnit - r.Intn(2)*r.Intn(64), // sometimes a short tail
		Epoch:        time.Unix(1000, 0),
		Unit:         40 * time.Millisecond,
		Slack:        time.Duration(r.Intn(40)) * time.Millisecond,
		Lag:          time.Duration(1+r.Intn(30)) * time.Millisecond,
		GraceUnits:   int64(r.Intn(3)), // zero selects the default
	}
	p.PlayUnit = p.TuneUnit + int64(r.Intn(2))*int64(1+r.Intn(8))
	return p
}

// TestMachineNextMatchesFullScan is the seeded differential property
// behind Next's frontier: over random geometries and every policy mix
// (Observe, NACK ladder, parity stripe, repairs off or parked mid-run),
// scripts of dropped, duplicated, reordered and late arrivals, stripe
// heals, cohort-style ResolveRepaired/Reopen traffic, repair and NACK
// outcomes, and drivers that wake early or oversleep, the incremental
// pass and the full scan must agree on every action, every wake time,
// every OnLost callback and every counter.
func TestMachineNextMatchesFullScan(t *testing.T) {
	runs := 4000
	if testing.Short() {
		runs = 800
	}
	var kinds [4]int
	for seed := uint64(1); seed <= uint64(runs); seed++ {
		r := des.NewRand(des.SubSeed(0xD1FF, seed))
		p := diffGeometry(r)
		p.Observe = r.Intn(2) == 0
		p.NackEnabled = r.Intn(2) == 0
		if r.Intn(2) == 0 {
			p.FecGroup = 4
		}
		p.DisableRepair = !p.Observe && r.Intn(6) == 0
		jseed := des.SubSeed(seed, 7)
		p.Jitter = func(key, stream uint64, window time.Duration) time.Duration {
			return JitterIn(jseed, key, stream, window)
		}
		repairsOn := true
		if r.Intn(3) == 0 {
			p.RepairsEnabled = func() bool { return repairsOn }
		}
		mp := &machinePair{t: t, kinds: &kinds}
		mp.label = fmt.Sprintf("seed %d (observe=%v nack=%v fec=%d norepair=%v)", seed, p.Observe, p.NackEnabled, p.FecGroup, p.DisableRepair)
		pi, pr := p, p
		pi.OnLost = func(idx, attempts int) { mp.lostInc = append(mp.lostInc, [2]int{idx, attempts}) }
		pr.OnLost = func(idx, attempts int) { mp.lostRef = append(mp.lostRef, [2]int{idx, attempts}) }
		mp.ref = NewMachine(pr)
		n := mp.ref.NChunks()
		// A third of the runs start in the per-viewer shape: everything
		// resolved but one chunk, built directly on the incremental side
		// and the long way round on the reference side.
		if r.Intn(3) == 0 {
			open := r.Intn(n)
			mp.inc = newResolvedMachine(pi, open)
			for idx := 0; idx < n; idx++ {
				if idx != open {
					mp.ref.ResolveRepaired(idx)
				}
			}
		} else {
			mp.inc = NewMachine(pi)
		}
		mp.check()
		runDiffScript(mp, r, &repairsOn)
	}
	for kind, count := range kinds {
		if count == 0 {
			t.Errorf("no script ever drew action kind %d; the property is vacuous for it", kind)
		}
	}
}

// runDiffScript plays one random reception against the pair in virtual
// time until both machines are done.
func runDiffScript(mp *machinePair, r *des.Rand, repairsOn *bool) {
	m := mp.ref
	n := m.NChunks()
	start := m.arrival(-1)
	// Broadcast arrivals: each chunk at its grid instant unless dropped;
	// some late, some reordered, some duplicated.
	var arrivals []arrival
	drop := r.Float64() * 0.4
	for idx := 0; idx < n; idx++ {
		if m.Have(idx) || r.Float64() < drop {
			continue
		}
		at := m.arrival(idx)
		switch r.Intn(10) {
		case 0: // late, possibly past its deadline
			at = at.Add(time.Duration(r.Intn(int(6*m.p.Unit) + 1)))
		case 1: // reordered within a few intervals
			at = at.Add(time.Duration(r.Intn(int(3*m.spacing) + 1)))
		}
		arrivals = append(arrivals, arrival{at: at, idx: idx})
		if r.Intn(12) == 0 {
			arrivals = append(arrivals, arrival{at: at.Add(time.Duration(r.Intn(int(2*m.p.Unit) + 1))), idx: idx})
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at.Before(arrivals[j].at) })

	// Pending side effects scheduled by earlier actions: a multicast
	// re-send after a NACK, a cohort-style resolve or reopen after a gap
	// handover.
	type effect struct {
		at   time.Time
		kind int // 0 chunk, 1 resolveRepaired, 2 reopen, 3 fecHealed
		idx  int
	}
	var effects []effect
	now := start.Add(-time.Duration(r.Intn(int(m.p.Unit))))
	ai := 0
	for iter := 0; !mp.ref.Done() || !mp.inc.Done(); iter++ {
		if iter > 100_000 {
			mp.failf("script did not converge")
		}
		// Apply everything due at now.
		for ai < len(arrivals) && !arrivals[ai].at.After(now) {
			mp.chunk(arrivals[ai].idx, now)
			ai++
		}
		for i := 0; i < len(effects); {
			if e := effects[i]; !e.at.After(now) {
				switch e.kind {
				case 0:
					mp.chunk(e.idx, now)
				case 1:
					mp.resolveRepaired(e.idx)
				case 2:
					mp.reopen(e.idx)
				case 3:
					mp.fecHealed(e.idx, now)
				}
				effects = append(effects[:i], effects[i+1:]...)
				continue
			}
			i++
		}
		// Random out-of-band traffic.
		switch r.Intn(40) {
		case 0:
			*repairsOn = !*repairsOn
		case 1: // the cohort resolves a chunk, maybe reopens it later
			idx := r.Intn(n)
			mp.resolveRepaired(idx)
			if r.Intn(2) == 0 {
				effects = append(effects, effect{at: now.Add(time.Duration(r.Intn(int(2*m.p.Unit) + 1))), kind: 2, idx: idx})
			}
		case 2:
			mp.reopen(r.Intn(n))
		case 3:
			if m.p.FecGroup > 0 {
				mp.fecHealed(r.Intn(n), now)
			}
		case 4: // a repair result nobody asked for, possibly ahead of the frontier
			if idx := r.Intn(n); !mp.ref.Have(idx) {
				mp.repairResult(idx, RepairOutcome(r.Intn(4)), 0, now)
			}
		}
		mp.check()
		if mp.ref.Done() && mp.inc.Done() {
			break
		}

		act := mp.next(now)
		switch act.Kind {
		case ActRepair:
			out := RepairOutcome(r.Intn(4))
			var hint time.Duration
			if out == RepairBusy && r.Intn(2) == 0 {
				hint = time.Duration(1+r.Intn(20)) * time.Millisecond
			}
			now = now.Add(time.Duration(r.Intn(2000)) * time.Microsecond) // round trip
			mp.repairResult(act.Idx, out, hint, now)
			continue
		case ActGap:
			// The per-viewer plane owns it now: it may resolve it, and a
			// late broadcast copy may still land.
			if r.Intn(2) == 0 {
				effects = append(effects, effect{at: now.Add(time.Duration(r.Intn(int(3*m.p.Unit) + 1))), kind: 1, idx: act.Idx})
			}
			continue
		case ActNack:
			now = now.Add(time.Duration(r.Intn(2000)) * time.Microsecond)
			var accepted func(int) bool
			switch r.Intn(4) {
			case 0: // round trip failed
			case 1:
				accepted = func(int) bool { return false }
			default:
				mask := r.Uint64()
				accepted = func(idx int) bool { return mask>>(uint(idx)%64)&1 == 1 }
			}
			mp.nackResult(act.Chunks, accepted, now)
			for _, idx := range act.Chunks {
				if accepted != nil && accepted(idx) && r.Intn(4) != 0 { // the re-send itself may be lost
					kind := 0
					if m.p.FecGroup > 0 && r.Intn(4) == 0 {
						kind = 3
					}
					effects = append(effects, effect{at: now.Add(time.Duration(r.Intn(int(3*m.spacing) + 1))), kind: kind, idx: idx})
				}
			}
			continue
		}
		// ActWait: advance to the wake time or the next event, whichever
		// is first — and sometimes wake early, or oversleep.
		next := act.Wake
		if ai < len(arrivals) && arrivals[ai].at.Before(next) {
			next = arrivals[ai].at
		}
		for _, e := range effects {
			if e.at.Before(next) {
				next = e.at
			}
		}
		switch r.Intn(8) {
		case 0:
			if d := next.Sub(now); d > 0 {
				next = now.Add(time.Duration(r.Intn(int(d))))
			}
		case 1:
			next = next.Add(time.Duration(r.Intn(int(2*m.p.Unit) + 1)))
		}
		if !next.After(now) {
			next = now.Add(time.Microsecond)
		}
		now = next
	}
	mp.check()
}

// BenchmarkMachineNext times one Next call on the cohort's shared
// (Observe-mode) machine as a fragment streams in — each op books the
// next chunk's arrival and polls — at three fragment sizes, lossless and
// with every sixteenth chunk lost (reported as a gap, then resolved four
// chunk intervals later, as the per-viewer plane would). Each fragment's
// NewMachine is inside the timed loop, so B/op is the machine's memory
// per chunk received. The frontier pass must cost the same at 4096
// chunks as at 32; the fullscan rows run the reference scan over the
// same script for contrast.
func BenchmarkMachineNext(b *testing.B) {
	impls := []struct {
		name string
		next func(*Machine, time.Time) Action
	}{
		{"frontier", (*Machine).Next},
		{"fullscan", (*Machine).nextFullScan},
	}
	for _, impl := range impls {
		for _, lossEvery := range []int{0, 16} {
			for _, n := range []int{32, 384, 4096} {
				name := fmt.Sprintf("%s/loss=%d/chunks=%d", impl.name, lossEvery, n)
				b.Run(name, func(b *testing.B) {
					p := FragmentParams{
						Video: 1, Channel: 2, Size: 8, TuneUnit: 8, PlayUnit: 12,
						TotalBytes: n * 1024, ChunkBytes: 1024, BytesPerUnit: n * 1024 / 8,
						Epoch: time.Unix(1000, 0), Unit: 100 * time.Millisecond,
						Slack: 50 * time.Millisecond, Lag: 50 * time.Millisecond,
						Observe: true,
					}
					m := NewMachine(p)
					idx := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if idx == n {
							m = NewMachine(p)
							idx = 0
						}
						at := m.arrival(idx)
						if lossEvery == 0 || idx%lossEvery != lossEvery-1 {
							m.Chunk(idx, at)
						}
						if lossEvery != 0 && idx >= 4 && (idx-4)%lossEvery == lossEvery-1 {
							m.ResolveRepaired(idx - 4)
						}
						for impl.next(m, at).Kind == ActGap {
						}
						idx++
					}
				})
			}
		}
	}
}
