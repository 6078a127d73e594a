package metrics

import "sync/atomic"

// cacheLine is the assumed coherence-granule size. 64 bytes covers x86-64
// and almost every ARM server part; padding is sized so that two adjacent
// PaddedCounters can never land on one line even on parts that prefetch
// line pairs.
const cacheLine = 64

// PaddedCounter is the concurrent monotone event counter: increments are
// single atomic adds with no locking, and the hot word is padded onto its
// own cache line(s), so a struct or array of PaddedCounters updated by
// different cores does not bounce a shared line between them on every
// increment (the mcast hub's egress ledger, the server's repair, pacing
// and frame-cache counters). Counter is its single-goroutine sibling.
//
// The zero value is ready to use and must not be copied after first use.
type PaddedCounter struct {
	_ [cacheLine]byte
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *PaddedCounter) Inc() { c.n.Add(1) }

// Add adds delta, which must be non-negative, and returns the new count
// (so rate-limited logging can key off the value it produced without a
// second atomic load).
func (c *PaddedCounter) Add(delta int64) int64 {
	if delta < 0 {
		panic("metrics: PaddedCounter.Add of negative delta")
	}
	return c.n.Add(delta)
}

// Value returns the current count.
func (c *PaddedCounter) Value() int64 { return c.n.Load() }

// PaddedGauge is a concurrent level — live viewers, active cohorts, open
// control sessions — that rises and falls, padded against false sharing
// exactly like PaddedCounter. Unlike Gauge (a single-threaded,
// virtual-time integral for the simulator), PaddedGauge is lock-free and
// wall-clock-free: Inc/Dec/Add are single atomic adds, so it can sit on
// per-session and per-datagram hot paths next to other hot words. The
// high-water mark is maintained with a CAS loop that almost always
// settles on the first read.
//
// The zero value is ready to use and must not be copied after first use.
type PaddedGauge struct {
	_    [cacheLine]byte
	n    atomic.Int64
	high atomic.Int64
	_    [cacheLine - 16]byte
}

// Inc adds one and returns the new level.
func (g *PaddedGauge) Inc() int64 { return g.Add(1) }

// Dec subtracts one and returns the new level.
func (g *PaddedGauge) Dec() int64 { return g.Add(-1) }

// Add adds delta (of either sign) and returns the new level.
func (g *PaddedGauge) Add(delta int64) int64 {
	v := g.n.Add(delta)
	if delta > 0 {
		for {
			h := g.high.Load()
			if v <= h || g.high.CompareAndSwap(h, v) {
				break
			}
		}
	}
	return v
}

// Set forces the level to v (for levels computed elsewhere and mirrored
// here for export).
func (g *PaddedGauge) Set(v int64) {
	g.n.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			break
		}
	}
}

// Value returns the current level.
func (g *PaddedGauge) Value() int64 { return g.n.Load() }

// High returns the high-water mark of the level.
func (g *PaddedGauge) High() int64 { return g.high.Load() }
