package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestPaddedCounter(t *testing.T) {
	var c PaddedCounter
	c.Inc()
	if got := c.Add(4); got != 5 {
		t.Errorf("Add returned %d, want 5", got)
	}
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

// TestPaddedCounterLayout pins the anti-false-sharing property the type
// exists for: in an array (or adjacent struct fields), consecutive hot
// words are at least two cache lines apart.
func TestPaddedCounterLayout(t *testing.T) {
	var pair [2]PaddedCounter
	d := uintptr(unsafe.Pointer(&pair[1].n)) - uintptr(unsafe.Pointer(&pair[0].n))
	if d < 2*cacheLine {
		t.Errorf("adjacent counters %d bytes apart, want >= %d", d, 2*cacheLine)
	}
}

func TestPaddedGauge(t *testing.T) {
	var g PaddedGauge
	if got := g.Inc(); got != 1 {
		t.Errorf("Inc returned %d, want 1", got)
	}
	if got := g.Add(4); got != 5 {
		t.Errorf("Add returned %d, want 5", got)
	}
	if got := g.Dec(); got != 4 {
		t.Errorf("Dec returned %d, want 4", got)
	}
	if g.Value() != 4 {
		t.Errorf("Value = %d, want 4", g.Value())
	}
	if g.High() != 5 {
		t.Errorf("High = %d, want 5 (peak before the Dec)", g.High())
	}
	g.Set(2)
	if g.Value() != 2 || g.High() != 5 {
		t.Errorf("after Set(2): Value=%d High=%d, want 2/5", g.Value(), g.High())
	}
	g.Set(9)
	if g.High() != 9 {
		t.Errorf("Set did not raise high-water mark: High=%d, want 9", g.High())
	}
}

// TestPaddedGaugeConcurrentHigh: the high-water mark is exact under
// concurrent churn — N goroutines each raise and lower the level; the
// recorded peak must equal the true maximum concurrency reached at some
// moment, which is at least 1 and at most N, and the final level must
// return to zero.
func TestPaddedGaugeConcurrentHigh(t *testing.T) {
	var g PaddedGauge
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Errorf("final level = %d, want 0", g.Value())
	}
	if h := g.High(); h < 1 || h > n {
		t.Errorf("high-water mark = %d, want within [1, %d]", h, n)
	}
}

// TestPaddedGaugeLayout pins the same anti-false-sharing property as
// TestPaddedCounterLayout.
func TestPaddedGaugeLayout(t *testing.T) {
	var pair [2]PaddedGauge
	d := uintptr(unsafe.Pointer(&pair[1].n)) - uintptr(unsafe.Pointer(&pair[0].n))
	if d < 2*cacheLine {
		t.Errorf("adjacent gauges %d bytes apart, want >= %d", d, 2*cacheLine)
	}
}

// The parallel-increment benchmarks demonstrate the padding win: one
// goroutine per core hammering its *own* counter, with the counters laid
// out adjacently. Unpadded, every increment invalidates the line holding
// its neighbors' counters; padded, each core owns its line outright.

const benchCounters = 64

func BenchmarkCounterParallelUnpadded(b *testing.B) {
	var cs [benchCounters]atomic.Int64
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c := &cs[int(next.Add(1)-1)%benchCounters]
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkCounterParallelPadded(b *testing.B) {
	var cs [benchCounters]PaddedCounter
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c := &cs[int(next.Add(1)-1)%benchCounters]
		for pb.Next() {
			c.Inc()
		}
	})
}

// unpaddedGauge is PaddedGauge's hot words without the insulation — the
// baseline the gauge benchmarks compare against.
type unpaddedGauge struct{ n, high atomic.Int64 }

func (g *unpaddedGauge) add(delta int64) {
	v := g.n.Add(delta)
	if delta > 0 {
		for {
			h := g.high.Load()
			if v <= h || g.high.CompareAndSwap(h, v) {
				break
			}
		}
	}
}

// The gauge benchmarks mirror the counter pair for the session-churn
// workload: each core raising and lowering its own adjacent gauge, the
// shape of per-worker viewer/cohort levels in the scale harness.

func BenchmarkGaugeParallelUnpadded(b *testing.B) {
	var gs [benchCounters]unpaddedGauge
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		g := &gs[int(next.Add(1)-1)%benchCounters]
		for pb.Next() {
			g.add(1)
			g.add(-1)
		}
	})
}

func BenchmarkGaugeParallelPadded(b *testing.B) {
	var gs [benchCounters]PaddedGauge
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		g := &gs[int(next.Add(1)-1)%benchCounters]
		for pb.Next() {
			g.Inc()
			g.Dec()
		}
	})
}
