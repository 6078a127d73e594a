package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Error("zero Summary not all-zero")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Observe(v)
	}
	if s.Count() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Errorf("count/sum/mean = %d/%v/%v", s.Count(), s.Sum(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Quantile(0.5) != 3 {
		t.Errorf("median = %v, want 3", s.Quantile(0.5))
	}
	if s.Quantile(1) != 5 || s.Quantile(0) != 1 {
		t.Errorf("extreme quantiles %v %v", s.Quantile(0), s.Quantile(1))
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummaryObserveAfterSort(t *testing.T) {
	var s Summary
	s.Observe(10)
	_ = s.Max() // forces sort
	s.Observe(1)
	if s.Min() != 1 {
		t.Errorf("Min after post-sort Observe = %v, want 1", s.Min())
	}
}

func TestSummaryStdDev(t *testing.T) {
	var s Summary
	s.Observe(2)
	if s.StdDev() != 0 {
		t.Error("stddev of one observation not 0")
	}
	s.Observe(4)
	if math.Abs(s.StdDev()-1) > 1e-12 {
		t.Errorf("stddev = %v, want 1", s.StdDev())
	}
}

func TestSummaryQuantilePanics(t *testing.T) {
	var s Summary
	s.Observe(1)
	defer func() {
		if recover() == nil {
			t.Error("Quantile(2) did not panic")
		}
	}()
	s.Quantile(2)
}

func TestQuantileOrderProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Observe(v)
		}
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b Summary
	for _, v := range []float64{5, 1, 3} {
		a.Observe(v)
	}
	_ = a.Max() // force a sort; Merge must invalidate it
	for _, v := range []float64{4, 2} {
		b.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != 5 || a.Sum() != 15 || a.Mean() != 3 {
		t.Errorf("merged count/sum/mean = %d/%v/%v", a.Count(), a.Sum(), a.Mean())
	}
	if a.Min() != 1 || a.Max() != 5 || a.Quantile(0.5) != 3 {
		t.Errorf("merged min/max/median = %v/%v/%v", a.Min(), a.Max(), a.Quantile(0.5))
	}
	// other is unchanged, and nil/empty merges are no-ops.
	if b.Count() != 2 || b.Sum() != 6 {
		t.Errorf("Merge mutated its argument: %d/%v", b.Count(), b.Sum())
	}
	before := a.Count()
	a.Merge(nil)
	a.Merge(&Summary{})
	if a.Count() != before {
		t.Error("empty merge changed the summary")
	}
}

func TestSummaryMergeMatchesObserve(t *testing.T) {
	// Bulk Merge must match per-element Observe: exactly for the
	// order-insensitive statistics, and within floating-point grouping
	// noise for the sum (Merge adds two partial sums where Observe adds
	// element by element; addition is not associative).
	f := func(xs, ys []float64) bool {
		var viaMerge, viaObserve, other Summary
		for _, v := range xs {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
			viaMerge.Observe(v)
			viaObserve.Observe(v)
		}
		for _, v := range ys {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
			other.Observe(v)
			viaObserve.Observe(v)
		}
		viaMerge.Merge(&other)
		scale := 1.0
		for _, v := range viaMerge.values {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		sumClose := math.Abs(viaMerge.Sum()-viaObserve.Sum()) <=
			1e-9*scale*float64(viaMerge.Count()+1)
		return viaMerge.Count() == viaObserve.Count() &&
			sumClose &&
			viaMerge.Min() == viaObserve.Min() &&
			viaMerge.Max() == viaObserve.Max() &&
			viaMerge.Quantile(0.5) == viaObserve.Quantile(0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryReserveHint(t *testing.T) {
	var s Summary
	s.ReserveHint(100)
	if s.Count() != 0 {
		t.Error("ReserveHint recorded observations")
	}
	s.Observe(1)
	p := &s.values[0]
	for i := 0; i < 99; i++ {
		s.Observe(float64(i))
	}
	if &s.values[0] != p {
		t.Error("reserved summary reallocated within its hinted capacity")
	}
	s.ReserveHint(0)
	s.ReserveHint(-5)
	if s.Count() != 100 {
		t.Error("no-op hints changed the summary")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(0, 2)
	g.Add(10, 3) // level 5 from t=10
	g.Add(20, -4)
	if g.Level() != 1 {
		t.Errorf("level = %v, want 1", g.Level())
	}
	if g.High() != 5 {
		t.Errorf("high = %v, want 5", g.High())
	}
	// Integral: 2*10 + 5*10 = 70 over [0,20]; plus 1*10 over [20,30].
	if avg := g.TimeAverage(30); math.Abs(avg-80.0/30) > 1e-12 {
		t.Errorf("time average = %v, want %v", avg, 80.0/30)
	}
}

func TestGaugeMonotonicTime(t *testing.T) {
	var g Gauge
	g.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("time regression did not panic")
		}
	}()
	g.Set(4, 2)
}

func TestGaugeBeforeStart(t *testing.T) {
	var g Gauge
	if g.TimeAverage(10) != 0 {
		t.Error("unstarted gauge average not 0")
	}
	g.Set(5, 3)
	if g.TimeAverage(5) != 3 {
		t.Error("average at start time should be the level")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

// TestTokenBucket drives the bucket on a synthetic clock: spends succeed
// until the burst is gone, retry-after hints are exact, and refill is
// linear in elapsed time and capped at the burst.
func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewTokenBucket(100, 50) // 100 tokens/s, depth 50
	if ok, _ := b.Take(t0, 30); !ok {
		t.Fatal("fresh bucket refused a within-burst spend")
	}
	if ok, _ := b.Take(t0, 20); !ok {
		t.Fatal("exact drain refused")
	}
	ok, retry := b.Take(t0, 10)
	if ok {
		t.Fatal("empty bucket admitted a spend")
	}
	if retry != 100*time.Millisecond { // 10 tokens at 100/s
		t.Errorf("retry-after = %v, want 100ms", retry)
	}
	// Refill honors the hint exactly.
	if ok, _ := b.Take(t0.Add(retry), 10); !ok {
		t.Error("spend refused after waiting the advertised retry-after")
	}
	// Refill caps at the burst: after a long idle, one burst is available
	// but no more.
	late := t0.Add(time.Hour)
	if ok, _ := b.Take(late, 50); !ok {
		t.Error("full burst unavailable after long idle")
	}
	if ok, _ := b.Take(late, 1); ok {
		t.Error("refill overshot the burst")
	}
	// A spend beyond the burst can never succeed but still yields a
	// finite hint.
	if ok, retry := b.Take(late.Add(time.Hour), 80); ok || retry <= 0 {
		t.Errorf("over-burst spend: ok=%v retry=%v", ok, retry)
	}
	if b.Level(late.Add(2*time.Hour)) != 50 {
		t.Errorf("Level = %v, want 50", b.Level(late.Add(2*time.Hour)))
	}
}

// TestTokenBucketConcurrent hammers one bucket from many goroutines; the
// admitted total must never exceed burst + elapsed*rate (no token is ever
// minted twice). Run under -race via make race.
func TestTokenBucketConcurrent(t *testing.T) {
	b := NewTokenBucket(1e6, 1000)
	start := time.Now()
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if ok, _ := b.Take(time.Now(), 10); ok {
					admitted.Add(10)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if max := 1000 + elapsed*1e6 + 1; float64(admitted.Load()) > max {
		t.Errorf("admitted %d tokens, budget allowed at most %v", admitted.Load(), max)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	for _, args := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTokenBucket(%v, %v) did not panic", args[0], args[1])
				}
			}()
			NewTokenBucket(args[0], args[1])
		}()
	}
}
