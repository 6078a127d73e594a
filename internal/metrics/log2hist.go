package metrics

import (
	"math/bits"
	"sync/atomic"
)

// log2Buckets is one bucket per possible bit length of a non-negative
// int64: bucket 0 holds zero, bucket i holds [2^(i-1), 2^i).
const log2Buckets = 64

// Log2Histogram is a fixed-size histogram of non-negative int64 samples
// in power-of-two buckets: 512 bytes, no allocation ever, one atomic add
// per Observe. It is meant for latencies recorded on a hot path by one
// goroutine (a wheel shard's wake lateness) and read by another
// (/status): writers never block, and a reader merges any number of
// histograms into a local one and asks that for quantiles. The price is
// resolution — a quantile is known to within its bucket, a factor of two
// — which is what telling 80 µs from 800 µs needs and no more.
//
// The zero value is ready to use and must not be copied after first use.
type Log2Histogram struct {
	buckets [log2Buckets]atomic.Int64
}

// Observe records one sample. Negative samples count as zero.
func (h *Log2Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Merge adds other's counts into h. other may be observed concurrently;
// the merge then lands somewhere between two of its states.
func (h *Log2Histogram) Merge(other *Log2Histogram) {
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Count returns how many samples have been observed.
func (h *Log2Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns the q-quantile (q in [0, 1]) of the observed samples,
// interpolated linearly inside the bucket it falls in, or 0 when nothing
// has been observed.
func (h *Log2Histogram) Quantile(q float64) int64 {
	var counts [log2Buckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// rank is the 1-based position of the wanted sample in sorted order.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i, n := range counts {
		if seen+n < rank {
			seen += n
			continue
		}
		if i == 0 {
			return 0
		}
		lo := int64(1) << (i - 1)
		// The bucket's n samples are taken to sit evenly across [lo, 2·lo).
		return lo + int64(float64(lo)*float64(rank-seen-1)/float64(n))
	}
	return 0 // unreachable: rank <= total
}
