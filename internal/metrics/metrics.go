// Package metrics provides the statistics primitives the simulator and the
// live client use to report the paper's three performance metrics — access
// latency, client buffer space and client disk bandwidth — plus the server
// throughput measures of the batching substrate.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Summary accumulates scalar observations and reports count, mean, min,
// max and quantiles. The zero value is ready to use. Summary is not safe
// for concurrent use; wrap it with a mutex or aggregate per goroutine.
type Summary struct {
	values []float64
	sorted bool
	sum    float64
}

// Observe records one value.
func (s *Summary) Observe(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
}

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.values) }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the average, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 with none.
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

// Max returns the largest observation, or 0 with none.
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted observations, or 0 with none.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: Quantile(%v): q outside [0, 1]", q))
	}
	s.sort()
	i := int(math.Ceil(q*float64(len(s.values)))) - 1
	if i < 0 {
		i = 0
	}
	return s.values[i]
}

// StdDev returns the population standard deviation, or 0 with fewer than
// two observations.
func (s *Summary) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// ReserveHint grows s's capacity so that n further observations (via
// Observe or Merge) append without reallocating. It records nothing.
func (s *Summary) ReserveHint(n int) {
	if n <= 0 {
		return
	}
	if need := len(s.values) + n; cap(s.values) < need {
		grown := make([]float64, len(s.values), need)
		copy(grown, s.values)
		s.values = grown
	}
}

// Merge absorbs every observation of other into s. It bulk-appends the
// raw observations and adds the running sums — one copy and one add
// rather than a per-element Observe loop — since it sits on the parallel
// sweep's shard-merge hot path. other is unchanged.
func (s *Summary) Merge(other *Summary) {
	if other == nil || len(other.values) == 0 {
		return
	}
	s.values = append(s.values, other.values...)
	s.sorted = false
	s.sum += other.sum
}

func (s *Summary) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// String renders a one-line summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g",
		s.Count(), s.Mean(), s.Min(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// Gauge tracks a level that rises and falls over (virtual) time, reporting
// its high-water mark and its time-weighted average. The zero value starts
// at level 0 at time 0.
type Gauge struct {
	level     float64
	lastT     float64
	started   bool
	startT    float64
	high      float64
	weightSum float64 // integral of level over time
}

// Set records that the level changed to v at time t. Times must be
// non-decreasing.
func (g *Gauge) Set(t, v float64) {
	if !g.started {
		g.started = true
		g.startT = t
		g.lastT = t
	}
	if t < g.lastT {
		panic(fmt.Sprintf("metrics: Gauge.Set at t=%v before last update %v", t, g.lastT))
	}
	g.weightSum += g.level * (t - g.lastT)
	g.lastT = t
	g.level = v
	if v > g.high {
		g.high = v
	}
}

// Add records a delta at time t.
func (g *Gauge) Add(t, delta float64) { g.Set(t, g.level+delta) }

// Level returns the current level.
func (g *Gauge) Level() float64 { return g.level }

// High returns the high-water mark.
func (g *Gauge) High() float64 { return g.high }

// TimeAverage returns the time-weighted mean level up to time t.
func (g *Gauge) TimeAverage(t float64) float64 {
	if !g.started || t <= g.startT {
		return g.level
	}
	return (g.weightSum + g.level*(t-g.lastT)) / (t - g.startT)
}

// TokenBucket is a continuously refilled token bucket, the admission
// primitive of the server's overload-safe repair plane: capacity refills
// at rate tokens/second up to burst, and each admitted request spends its
// cost up front. Take never sleeps — a denied caller receives the earliest
// retry-after delay at which the spend could succeed, so pushback can be
// propagated to remote clients instead of queued locally. Safe for
// concurrent use; time is supplied by the caller, which keeps the bucket
// fully deterministic under test clocks.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket refilling at rate tokens/second up
// to burst. It panics if rate or burst is not positive — an unlimited
// resource is represented by no bucket at all, not a degenerate one.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("metrics: NewTokenBucket(%v, %v): rate and burst must be positive", rate, burst))
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// refillLocked advances the bucket to now. Callers hold mu.
func (b *TokenBucket) refillLocked(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
}

// Take attempts to spend n tokens at time now. On success it returns
// (true, 0); on refusal, (false, d) where d is how long the caller should
// wait before the same spend could succeed. A spend larger than the burst
// can never succeed; its retry-after still reports the time to fill the
// deficit so callers degrade instead of spinning.
func (b *TokenBucket) Take(now time.Time, n float64) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if n <= b.tokens {
		b.tokens -= n
		return true, 0
	}
	return false, time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// Level returns the token count at time now (for observability). It
// leaves the bucket as it was: a reader on another clock than the
// spenders' cannot move their refill.
func (b *TokenBucket) Level(now time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); !b.last.IsZero() && dt > 0 {
		return math.Min(b.burst, b.tokens+dt*b.rate)
	}
	return b.tokens
}

// Counter is a monotone event counter.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add of negative delta")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }
