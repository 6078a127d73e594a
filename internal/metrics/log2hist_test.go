package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestLog2HistogramBucketEdges: bucket 0 holds zero (and anything
// negative), bucket i holds [2^(i-1), 2^i), up to the largest int64.
func TestLog2HistogramBucketEdges(t *testing.T) {
	for _, tc := range []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1<<62 - 1, 62}, {1 << 62, 63}, {math.MaxInt64, 63},
	} {
		var h Log2Histogram
		h.Observe(tc.v)
		for i := range h.buckets {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.buckets[i].Load(); got != want {
				t.Errorf("Observe(%d): bucket %d = %d, want %d", tc.v, i, got, want)
			}
		}
	}
}

// TestLog2HistogramQuantile: quantiles of a known set land in the right
// bucket, at the interpolated place inside it.
func TestLog2HistogramQuantile(t *testing.T) {
	var h Log2Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
	// 90 samples in [64, 128), 9 in [512, 1024), 1 in [4096, 8192).
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 9; i++ {
		h.Observe(600)
	}
	h.Observe(5000)
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	for _, tc := range []struct {
		q      float64
		lo, hi int64 // the bucket the quantile must fall in
	}{
		{0, 64, 64}, // the first sample sits at its bucket's floor
		{0.5, 64, 127},
		{0.89, 64, 127},
		{0.95, 512, 1023},
		{0.99, 512, 1023}, // rank 99 of 100 is the last of the nine
		{1, 4096, 4096},
		{-1, 64, 64},
		{2, 4096, 4096},
	} {
		if got := h.Quantile(tc.q); got < tc.lo || got > tc.hi {
			t.Errorf("Quantile(%v) = %d, want in [%d, %d]", tc.q, got, tc.lo, tc.hi)
		}
	}
	// Interpolation: the median is sample 50 of the 90 in [64, 128), so it
	// reads 64 + 64*49/90.
	if got, want := h.Quantile(0.5), int64(64+64*49/90); got != want {
		t.Errorf("Quantile(0.5) = %d, want %d", got, want)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %d below p50 %d", p99, p50)
	}

	var zeros Log2Histogram
	zeros.Observe(0)
	zeros.Observe(-3)
	if got := zeros.Quantile(1); got != 0 {
		t.Errorf("all-zero Quantile(1) = %d, want 0", got)
	}
}

// TestLog2HistogramMerge: merging adds bucket by bucket and leaves the
// source alone.
func TestLog2HistogramMerge(t *testing.T) {
	var a, b, sum Log2Histogram
	for _, v := range []int64{1, 5, 5, 900} {
		a.Observe(v)
	}
	for _, v := range []int64{0, 5, 70000} {
		b.Observe(v)
	}
	sum.Merge(&a)
	sum.Merge(&b)
	if got := sum.Count(); got != 7 {
		t.Errorf("merged Count = %d, want 7", got)
	}
	for i := range sum.buckets {
		if got, want := sum.buckets[i].Load(), a.buckets[i].Load()+b.buckets[i].Load(); got != want {
			t.Errorf("merged bucket %d = %d, want %d", i, got, want)
		}
	}
	if a.Count() != 4 || b.Count() != 3 {
		t.Errorf("Merge changed its sources: %d, %d", a.Count(), b.Count())
	}
}

// TestLog2HistogramConcurrentObserve: writers and a merging reader share a
// histogram without losing a sample (and, under -race, without a report).
func TestLog2HistogramConcurrentObserve(t *testing.T) {
	const writers, each = 8, 5000
	var h Log2Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64(w*each + i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var snap Log2Histogram
			snap.Merge(&h)
			if p50, p99 := snap.Quantile(0.5), snap.Quantile(0.99); p99 < p50 {
				t.Errorf("mid-flight p99 %d below p50 %d", p99, p50)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()
	if got := h.Count(); got != writers*each {
		t.Errorf("Count = %d, want %d", got, writers*each)
	}
}

// TestLog2HistogramZeroAlloc: neither recording nor reading allocates.
func TestLog2HistogramZeroAlloc(t *testing.T) {
	var h Log2Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		_ = h.Quantile(0.99)
	}); allocs != 0 {
		t.Errorf("%v allocs per Observe+Quantile, want 0", allocs)
	}
}
