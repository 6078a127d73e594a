// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5) from this repository's implementations: the
// parameter-determination plots (Figure 5), the three metric comparisons
// (Figures 6-8: client disk bandwidth, access latency, client storage), the
// correctness/storage transition diagrams (Figures 1-4), and the formula
// tables (Tables 1-2). Each generator returns plain data that cmd/skyfigs
// renders and bench_test.go exercises as benchmarks.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"skyscraper/internal/core"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/sim"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
)

// Widths are the skyscraper widths studied in Section 5: "2, 52, 1705, and
// 54612 ... the values of the 2-nd, 10-th, 20-th and 30-th elements of the
// broadcast series", plus 0 for the W = infinity curves.
var Widths = []int64{2, 52, 1705, 54612, 0}

// constructors is the one table of scheme names: the spelling cmd/skysim's
// -scheme flag takes, mapped to the scheme's constructor. Only SB reads
// width.
var constructors = map[string]func(cfg vod.Config, width int64) (vod.Scheme, error){
	"sb":        func(cfg vod.Config, w int64) (vod.Scheme, error) { return scheme(core.New(cfg, w)) },
	"pb:a":      func(cfg vod.Config, _ int64) (vod.Scheme, error) { return scheme(pyramid.New(cfg, pyramid.MethodA)) },
	"pb:b":      func(cfg vod.Config, _ int64) (vod.Scheme, error) { return scheme(pyramid.New(cfg, pyramid.MethodB)) },
	"ppb:a":     func(cfg vod.Config, _ int64) (vod.Scheme, error) { return scheme(ppb.New(cfg, ppb.MethodA)) },
	"ppb:b":     func(cfg vod.Config, _ int64) (vod.Scheme, error) { return scheme(ppb.New(cfg, ppb.MethodB)) },
	"staggered": func(cfg vod.Config, _ int64) (vod.Scheme, error) { return scheme(staggered.New(cfg)) },
}

// scheme forgets a constructor's concrete type; a failed construction
// yields a nil interface, never a typed nil.
func scheme[S vod.Scheme](s S, err error) (vod.Scheme, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewScheme builds the scheme called name ("sb", "pb:a", "pb:b", "ppb:a",
// "ppb:b" or "staggered", in any case) for cfg; width is SB's W, 0 for
// uncapped, and is ignored by the other schemes.
func NewScheme(name string, cfg vod.Config, width int64) (vod.Scheme, error) {
	build, ok := constructors[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
	return build(cfg, width)
}

// Curve is one named line on a figure; Y is NaN where the scheme is
// infeasible (PB/PPB below ~90 Mbit/s).
type Curve struct {
	Name string
	X, Y []float64
}

// Bandwidths returns the network-I/O sweep of Section 5.1: 100 to 600
// Mbit/s ("First, PB and PPB do not work if the server bandwidth is less
// than 90 Mbits/sec. Second, 600 Mbits/sec is large enough to show the
// trends").
func Bandwidths(step float64) []float64 {
	if step <= 0 {
		step = 20
	}
	var out []float64
	for b := 100.0; b <= 600+1e-9; b += step {
		out = append(out, b)
	}
	return out
}

// variants is one bandwidth point's scheme variants in the paper's curve
// order — SB at each of Widths, then PB:a, PB:b, PPB:a and PPB:b — with the
// infeasible ones left out.
type variants []vod.Scheme

func at(bandwidth float64) variants {
	cfg := vod.DefaultConfig(bandwidth)
	var v variants
	add := func(s vod.Scheme, err error) {
		if err == nil {
			v = append(v, s)
		}
	}
	for _, w := range Widths {
		add(NewScheme("sb", cfg, w))
	}
	for _, name := range []string{"pb:a", "pb:b", "ppb:a", "ppb:b"} {
		add(NewScheme(name, cfg, 0))
	}
	return v
}

// named returns the variant whose Name is name, or nil if it is
// infeasible here.
func (v variants) named(name string) vod.Scheme {
	for _, s := range v {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// cacheEntry holds one bandwidth point's materialized variants; the Once
// makes construction happen exactly once even under concurrent misses.
type cacheEntry struct {
	once sync.Once
	v    variants
}

// schemeCache memoizes at() per bandwidth. Every curve of every figure —
// Figures 5-8 sweep the same points for nine variants each — and
// CrossValidate share it, so a full regeneration constructs the variants
// once per bandwidth point instead of once per (curve, point). The
// entries are immutable after construction and safe to share across the
// goroutines evaluating points concurrently.
var schemeCache = struct {
	mu     sync.Mutex
	m      map[float64]*cacheEntry
	builds atomic.Int64
}{m: make(map[float64]*cacheEntry)}

// cachedAt returns the memoized variants for one bandwidth point.
func cachedAt(bandwidth float64) variants {
	schemeCache.mu.Lock()
	e := schemeCache.m[bandwidth]
	if e == nil {
		e = &cacheEntry{}
		schemeCache.m[bandwidth] = e
	}
	schemeCache.mu.Unlock()
	e.once.Do(func() {
		e.v = at(bandwidth)
		schemeCache.builds.Add(1)
	})
	return e.v
}

// ResetCache discards every memoized bandwidth point (benchmarks use it to
// measure cold regeneration).
func ResetCache() {
	schemeCache.mu.Lock()
	schemeCache.m = make(map[float64]*cacheEntry)
	schemeCache.mu.Unlock()
}

// CacheBuilds reports how many times a point's variants have been built
// since process start (ResetCache does not reset it), so callers can
// assert the once-per-point guarantee.
func CacheBuilds() int64 { return schemeCache.builds.Load() }

// metric builds one curve over the bandwidth sweep, with eval returning
// NaN for infeasible points. Points are independent, so they are evaluated
// concurrently, on up to GOMAXPROCS workers; each writes its own slot, so
// the worker count changes only wall-clock. Every point hits the
// sweep-level scheme cache.
func metric(name string, bands []float64, eval func(v variants) float64) Curve {
	c := Curve{Name: name, X: bands, Y: make([]float64, len(bands))}
	workers := min(runtime.GOMAXPROCS(0), len(bands))
	if workers <= 1 {
		for i, b := range bands {
			c.Y[i] = eval(cachedAt(b))
		}
		return c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bands) {
					return
				}
				c.Y[i] = eval(cachedAt(bands[i]))
			}
		}()
	}
	wg.Wait()
	return c
}

// of evaluates f on the variant called name, NaN where it is infeasible.
func of(name string, f func(vod.Scheme) float64) func(variants) float64 {
	return func(v variants) float64 {
		if s := v.named(name); s != nil {
			return f(s)
		}
		return math.NaN()
	}
}

// The design parameters of Figure 5, read from whichever variants have
// them.
func kOf(s vod.Scheme) float64     { return float64(s.(interface{ K() int }).K()) }
func pOf(s vod.Scheme) float64     { return float64(s.(interface{ P() int }).P()) }
func alphaOf(s vod.Scheme) float64 { return s.(interface{ Alpha() float64 }).Alpha() }

// Figure5a reproduces Figure 5(a): the values of K (all schemes) and P
// (PPB) under different network-I/O bandwidths.
func Figure5a(bands []float64) []Curve {
	return []Curve{
		metric("SB (K)", bands, of("SB:W=52", kOf)),
		metric("PB:a (K)", bands, of("PB:a", kOf)),
		metric("PB:b (K)", bands, of("PB:b", kOf)),
		metric("PPB:a (K)", bands, of("PPB:a", kOf)),
		metric("PPB:a (P)", bands, of("PPB:a", pOf)),
		metric("PPB:b (P)", bands, of("PPB:b", pOf)),
	}
}

// Figure5b reproduces Figure 5(b): the value of alpha for the
// pyramid-based schemes.
func Figure5b(bands []float64) []Curve {
	return []Curve{
		metric("PB:a (alpha)", bands, of("PB:a", alphaOf)),
		metric("PB:b (alpha)", bands, of("PB:b", alphaOf)),
		metric("PPB:a (alpha)", bands, of("PPB:a", alphaOf)),
		metric("PPB:b (alpha)", bands, of("PPB:b", alphaOf)),
	}
}

// figureOver builds the Figure 6-8 family: one curve per scheme variant,
// named by the variant and in the paper's order. A variant infeasible at
// every point of bands has no curve.
func figureOver(bands []float64, f func(vod.Scheme) float64) []Curve {
	var names []string
	seen := map[string]bool{}
	for _, b := range bands {
		for _, s := range cachedAt(b) {
			if n := s.Name(); !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	curves := make([]Curve, len(names))
	for i, n := range names {
		curves[i] = metric(n, bands, of(n, f))
	}
	return curves
}

// Figure6 reproduces Figure 6: client disk bandwidth requirement in
// MByte/s versus network-I/O bandwidth.
func Figure6(bands []float64) []Curve {
	return figureOver(bands, func(s vod.Scheme) float64 {
		return vod.MbpsToMBps(s.DiskBandwidthMbps())
	})
}

// Figure7 reproduces Figure 7: access latency in minutes versus
// network-I/O bandwidth.
func Figure7(bands []float64) []Curve {
	return figureOver(bands, func(s vod.Scheme) float64 {
		return s.AccessLatencyMin()
	})
}

// Figure8 reproduces Figure 8: client storage requirement in MBytes versus
// network-I/O bandwidth.
func Figure8(bands []float64) []Curve {
	return figureOver(bands, func(s vod.Scheme) float64 {
		return vod.MbitToMByte(s.BufferMbit())
	})
}

// TransitionProfile is a Figure 1-4 style diagram: the client buffer
// occupancy (in units of 60*b*D1) across a group transition, for one
// playback-start phase.
type TransitionProfile struct {
	Phase  int64
	Points []core.ProfilePoint
	// MaxUnits is the profile's high-water mark.
	MaxUnits int64
}

// Transitions reproduces the storage analysis of Figures 1-4: for the
// given scheme it evaluates every playback-start phase and returns the
// no-buffer phase (Figure 1a), the worst phase (the 60*b*D1*(W-1) case the
// figures derive), and the observed maximum.
func Transitions(sch *core.Scheme, maxPhases int64) (best, worst TransitionProfile, err error) {
	period := sch.PhasePeriod()
	stride := int64(1)
	if maxPhases > 0 && period > maxPhases {
		stride = (period + maxPhases - 1) / maxPhases
	}
	first := true
	for phase := int64(0); phase < period; phase += stride {
		plan, perr := sch.PlanSchedule(phase)
		if perr != nil {
			return best, worst, perr
		}
		bp, perr := sch.Profile(plan)
		if perr != nil {
			return best, worst, perr
		}
		p := TransitionProfile{Phase: phase, Points: bp.Points, MaxUnits: bp.Max()}
		if first || p.MaxUnits < best.MaxUnits {
			best = p
		}
		if first || p.MaxUnits > worst.MaxUnits {
			worst = p
		}
		first = false
	}
	return best, worst, nil
}

// CrossRow is one line of the simulation-versus-analysis validation table
// recorded in EXPERIMENTS.md: the closed forms of Table 1 against what the
// event simulator measures.
type CrossRow struct {
	Scheme            string
	Bandwidth         float64
	AnalyticLatency   float64
	MeasuredLatency   float64
	AnalyticBufferMB  float64
	MeasuredBufferMB  float64
	MeasuredMaxStream int
}

// CrossValidate measures worst-case latency and buffer over sampled
// arrival phases for every feasible scheme at every bandwidth, pairing
// them with the closed forms. Of SB it plays W = 2 and W = 52 only.
func CrossValidate(bands []float64, phases int) ([]CrossRow, error) {
	var rows []CrossRow
	for _, b := range bands {
		for _, s := range cachedAt(b) {
			if w, ok := s.(interface{ Width() int64 }); ok && w.Width() != 2 && w.Width() != 52 {
				continue
			}
			c := sim.New(s)
			row := CrossRow{
				Scheme:           s.Name(),
				Bandwidth:        b,
				AnalyticLatency:  s.AccessLatencyMin(),
				AnalyticBufferMB: vod.MbitToMByte(s.BufferMbit()),
			}
			lat := s.AccessLatencyMin()
			for i := 0; i < phases; i++ {
				// Golden-ratio stride covers arrival phases
				// quasi-uniformly across many latency periods
				// (SB's buffer worst case needs phases spread over
				// its whole broadcast period, not just one D1).
				arrival := float64(i) * lat * 1.61803398875
				res, err := c.Client(arrival, 0)
				if err != nil {
					return nil, fmt.Errorf("bench: %s at B=%v: %w", s.Name(), b, err)
				}
				row.MeasuredLatency = math.Max(row.MeasuredLatency, res.WaitMin)
				row.MeasuredBufferMB = math.Max(row.MeasuredBufferMB, vod.MbitToMByte(res.MaxBufferMbit))
				if res.MaxStreams > row.MeasuredMaxStream {
					row.MeasuredMaxStream = res.MaxStreams
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
