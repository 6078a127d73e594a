package harness

import (
	"math"
	"sort"
)

// tailLadder is the percentiles a timing's tail is reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// TailPercentile returns the highest ladder percentile no greater than
// want that still has at least ten of n samples beyond it (the
// choosing-metrics rule); the median when n supports nothing higher.
func TailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		// Samples beyond the nearest-rank position of p (the epsilon keeps
		// 0.9 × 100 from rounding up to rank 91).
		if beyond := n - int(math.Ceil(p*float64(n)-1e-9)); p <= want && beyond >= 10 {
			return p
		}
	}
	return 0.5
}

// Quantile is the nearest-rank q-quantile of an ascending slice.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Sorted returns an ascending copy.
func Sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median of an unsorted slice (NaN when empty).
func Median(v []float64) float64 {
	s := Sorted(v)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Quartiles returns q1 and q3 by the method of Python's
// statistics.quantiles(v, n=4) (exclusive), which is what the driver
// computes spreads with. Fewer than two values give q1 = q3 = the value.
func Quartiles(v []float64) (q1, q3 float64) {
	s := Sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// Spread is (q3 − q1) ÷ |median|: the run-to-run spread as a share of the
// median.
func Spread(v []float64) float64 {
	q1, q3 := Quartiles(v)
	m := Median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
