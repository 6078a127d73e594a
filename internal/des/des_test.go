package des

import (
	"math"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	var s Sim
	var got []int
	s.At(3, func(float64) { got = append(got, 3) })
	s.At(1, func(float64) { got = append(got, 1) })
	s.At(2, func(float64) { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v, want [1 2 3]", got)
	}
	if s.Now() != 3 {
		t.Errorf("clock at %v, want 3", s.Now())
	}
}

func TestStableTiebreak(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func(float64) { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	var s Sim
	var times []float64
	s.At(1, func(now float64) {
		times = append(times, now)
		s.After(2, func(now float64) {
			times = append(times, now)
		})
	})
	s.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestCancel(t *testing.T) {
	var s Sim
	fired := false
	h := s.At(1, func(float64) { fired = true })
	s.Cancel(h)
	s.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	if !h.Cancelled() {
		t.Error("handle not marked cancelled")
	}
	// Double-cancel is a no-op.
	s.Cancel(h)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var s Sim
	var got []float64
	var handles []Handle
	for i := 1; i <= 20; i++ {
		tm := float64(i)
		handles = append(handles, s.At(tm, func(now float64) { got = append(got, now) }))
	}
	for i := 0; i < 20; i += 2 {
		s.Cancel(handles[i])
	}
	s.RunAll()
	if len(got) != 10 {
		t.Fatalf("%d events fired, want 10", len(got))
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events fired out of order after cancellation: %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	var s Sim
	var got []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		s.At(tm, func(now float64) { got = append(got, now) })
	}
	s.Run(3)
	if len(got) != 3 {
		t.Errorf("%d events before t=3, want 3", len(got))
	}
	if s.Now() != 3 {
		t.Errorf("clock at %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("%d events pending, want 2", s.Pending())
	}
	s.Run(math.Inf(1))
	if len(got) != 5 {
		t.Errorf("%d events total, want 5", len(got))
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Sim
	s.At(5, func(float64) {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(1, func(float64) {})
}

func TestNilEventPanics(t *testing.T) {
	var s Sim
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	s.At(1, nil)
}

func TestStepsCounter(t *testing.T) {
	var s Sim
	for i := 0; i < 7; i++ {
		s.At(float64(i), func(float64) {})
	}
	s.RunAll()
	if s.Steps() != 7 {
		t.Errorf("Steps = %d, want 7", s.Steps())
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Error("different seeds collided on first draw")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a stuck generator")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit %d distinct values in 10k draws, want 10", len(seen))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) did not panic")
			}
		}()
		r.Intn(0)
	}()
}

func TestIntnUnbiased(t *testing.T) {
	// n = 3 does not divide 2^64, so the old modulo construction favored
	// small values by ~1 part in 2^63 per draw; Lemire's rejection makes
	// every value exactly equally likely. Statistically verify the three
	// bins stay within 4 sigma of uniform.
	r := NewRand(99)
	const n = 300000
	counts := [3]int{}
	for i := 0; i < n; i++ {
		counts[r.Intn(3)]++
	}
	want := float64(n) / 3
	sigma := math.Sqrt(float64(n) / 3 * (2.0 / 3))
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 4*sigma {
			t.Errorf("Intn(3) hit %d %d times, want about %.0f (±%.0f)", v, c, want, 4*sigma)
		}
	}
	for i := 0; i < 100; i++ {
		if r.Intn(1) != 0 {
			t.Fatal("Intn(1) != 0")
		}
	}
}

func TestIntnLargeRange(t *testing.T) {
	// Near-2^63 ranges (2^31 where int is 32 bits) exercise the rejection
	// path's threshold math.
	r := NewRand(5)
	const n = 1<<(bits.UintSize-2) + 12345
	for i := 0; i < 1000; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		}
	}
}

func TestSubSeedSubstreams(t *testing.T) {
	// Substream i is a pure function of (seed, i).
	if SubSeed(42, 7) != SubSeed(42, 7) {
		t.Error("SubSeed not deterministic")
	}
	// Distinct indices and distinct roots give distinct streams.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := SubSeed(42, i)
		if seen[s] {
			t.Fatalf("SubSeed(42, %d) collided", i)
		}
		seen[s] = true
	}
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Error("different roots collided on substream 0")
	}
	// First draws of adjacent substreams are decorrelated (not equal and
	// not shifted copies of one another).
	a := NewRand(SubSeed(9, 0)).Uint64()
	b := NewRand(SubSeed(9, 1)).Uint64()
	if a == b {
		t.Error("adjacent substreams emitted identical first draws")
	}
}

func TestSplitDoesNotAdvance(t *testing.T) {
	r := NewRand(17)
	want := NewRand(17)
	sub := r.Split(3)
	if sub == nil || sub == r {
		t.Fatal("Split returned a bad source")
	}
	_ = sub.Uint64()
	if r.Uint64() != want.Uint64() {
		t.Error("Split advanced the parent stream")
	}
	// Split is reproducible from equal state.
	if NewRand(17).Split(3).Uint64() != NewRand(17).Split(3).Uint64() {
		t.Error("equal-state splits diverged")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(11)
	const rate = 2.0 // mean 0.5
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(rate)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exponential mean = %v, want about 0.5", mean)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ExpFloat64(0) did not panic")
			}
		}()
		r.ExpFloat64(0)
	}()
}

func TestEventHeapProperty(t *testing.T) {
	// Random scheduling orders always execute in time order.
	f := func(times []uint16) bool {
		var s Sim
		var got []float64
		for _, tm := range times {
			tm := float64(tm)
			s.At(tm, func(now float64) { got = append(got, now) })
		}
		s.RunAll()
		return sort.Float64sAreSorted(got) && len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
