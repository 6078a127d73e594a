// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5). Each benchmark's reported custom metrics ARE the artifact:
// run with
//
//	go test -bench=. -benchmem
//
// and compare the metric lines against the paper (EXPERIMENTS.md records a
// full paper-vs-measured index). The ns/op numbers additionally document
// how cheap the closed forms and the schedule planner are.
package skyscraper_test

import (
	"runtime"
	"testing"
	"time"

	"skyscraper"
	"skyscraper/internal/bench"
	"skyscraper/internal/core"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/series"
	"skyscraper/internal/sim"
	"skyscraper/internal/unicast"
	"skyscraper/internal/vod"
)

// BenchmarkTable1Formulas evaluates Table 1's closed forms for all three
// schemes at B = 320 Mbit/s.
func BenchmarkTable1Formulas(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1(320)
	}
	for _, r := range rows {
		if r.Scheme == "SB" {
			b.ReportMetric(r.LatencyMin, "SB-latency-min")
			b.ReportMetric(vod.MbitToMByte(r.BufferMbit), "SB-buffer-MB")
		}
		if r.Scheme == "PB" {
			b.ReportMetric(vod.MbitToMByte(r.BufferMbit), "PB-buffer-MB")
		}
	}
}

// BenchmarkTable2Parameters determines every scheme's design parameters
// across the whole bandwidth sweep.
func BenchmarkTable2Parameters(b *testing.B) {
	bands := bench.Bandwidths(20)
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		for _, bb := range bands {
			rows = bench.Table2(bb)
		}
	}
	b.ReportMetric(float64(len(rows)), "schemes-at-600")
}

// benchTransition measures a Figure 1-4 transition: worst-phase buffer in
// units, which the paper's figures derive by hand.
func benchTransition(b *testing.B, width int64, wantUnits int64) {
	sch, err := core.New(vod.DefaultConfig(320), width)
	if err != nil {
		b.Fatal(err)
	}
	var worst bench.TransitionProfile
	for i := 0; i < b.N; i++ {
		_, worst, err = bench.Transitions(sch, 600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(worst.MaxUnits), "worst-buffer-units")
	b.ReportMetric(float64(wantUnits), "paper-bound-units")
}

// BenchmarkFigure1Transition1: (1) -> (2,2); worst case buffers one unit
// (Figure 1b), best case none (Figure 1a).
func BenchmarkFigure1Transition1(b *testing.B) { benchTransition(b, 2, 1) }

// BenchmarkFigure2Transition2: (2,2) -> (5,5); the paper's bound is
// 60*b*D1*(W-1) with W = 5: four units.
func BenchmarkFigure2Transition2(b *testing.B) { benchTransition(b, 5, 4) }

// BenchmarkFigure3Transition3 and BenchmarkFigure4Transition3: the odd
// transition (5,5) -> (12,12); bound W-1 = 11 units.
func BenchmarkFigure3Transition3(b *testing.B) { benchTransition(b, 12, 11) }

// BenchmarkFigure4Transition3 covers the same transition family at the
// other playback-start parity (Figure 4); the worst case over phases is
// identical.
func BenchmarkFigure4Transition3(b *testing.B) { benchTransition(b, 12, 11) }

// BenchmarkFigure5aParameters regenerates Figure 5(a)'s K and P curves.
func BenchmarkFigure5aParameters(b *testing.B) {
	bands := bench.Bandwidths(20)
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Figure5a(bands)
	}
	last := func(name string) float64 {
		for _, c := range curves {
			if c.Name == name {
				return c.Y[len(c.Y)-1]
			}
		}
		return -1
	}
	b.ReportMetric(last("SB (K)"), "SB-K-at-600")
	b.ReportMetric(last("PB:b (K)"), "PBb-K-at-600")
	b.ReportMetric(last("PPB:a (K)"), "PPBa-K-at-600")
}

// BenchmarkFigure5bAlpha regenerates Figure 5(b)'s alpha curves.
func BenchmarkFigure5bAlpha(b *testing.B) {
	bands := bench.Bandwidths(20)
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Figure5b(bands)
	}
	for _, c := range curves {
		if c.Name == "PB:b (alpha)" {
			b.ReportMetric(c.Y[len(c.Y)-1], "PBb-alpha-at-600")
		}
	}
}

// figureMetric reports one curve's value at one bandwidth for a Figure 6-8
// benchmark.
func figureMetric(b *testing.B, curves []bench.Curve, name string, x float64, metricName string) {
	b.Helper()
	for _, c := range curves {
		if c.Name != name {
			continue
		}
		for i := range c.X {
			if c.X[i] == x {
				b.ReportMetric(c.Y[i], metricName)
				return
			}
		}
	}
	b.Fatalf("curve %q at %v not found", name, x)
}

// BenchmarkFigure6DiskBandwidth regenerates Figure 6: client disk
// bandwidth (MByte/s). Paper shape: PB near 50x display (~10 MB/s), SB
// capped at 3b, PPB comparable to SB.
func BenchmarkFigure6DiskBandwidth(b *testing.B) {
	bands := bench.Bandwidths(20)
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Figure6(bands)
	}
	figureMetric(b, curves, "PB:b", 600, "PBb-MBps-at-600")
	figureMetric(b, curves, "SB:W=52", 600, "SBw52-MBps-at-600")
	figureMetric(b, curves, "PPB:b", 600, "PPBb-MBps-at-600")
}

// BenchmarkFigure7AccessLatency regenerates Figure 7: access latency
// (minutes). Paper shape: PB excellent; PPB needs B >= 300 for < 0.5 min;
// SB tunable via W.
func BenchmarkFigure7AccessLatency(b *testing.B) {
	bands := bench.Bandwidths(20)
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Figure7(bands)
	}
	figureMetric(b, curves, "SB:W=2", 320, "SBw2-min-at-320")
	figureMetric(b, curves, "SB:W=52", 600, "SBw52-min-at-600")
	figureMetric(b, curves, "PPB:b", 320, "PPBb-min-at-320")
	figureMetric(b, curves, "PB:b", 320, "PBb-min-at-320")
}

// BenchmarkFigure8Storage regenerates Figure 8: client storage (MByte).
// Paper shape: PB > 1 GByte, PPB ~150-250 MB, SB:W=2 ~33 MB at 320.
func BenchmarkFigure8Storage(b *testing.B) {
	bands := bench.Bandwidths(20)
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Figure8(bands)
	}
	figureMetric(b, curves, "SB:W=2", 320, "SBw2-MB-at-320")
	figureMetric(b, curves, "SB:W=52", 600, "SBw52-MB-at-600")
	figureMetric(b, curves, "PPB:b", 320, "PPBb-MB-at-320")
	figureMetric(b, curves, "PB:b", 600, "PBb-MB-at-600")
}

// sweepBenchClients sizes the Sweep benchmarks: big enough to span many
// shards, small enough to iterate.
const sweepBenchClients = 2000

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	sch, err := core.New(vod.DefaultConfig(320), 52)
	if err != nil {
		b.Fatal(err)
	}
	cs := sim.New(sch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Sweep(cs, sweepBenchClients, 1000, 10, 42, sim.Workers(workers)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sweepBenchClients)*float64(b.N)/b.Elapsed().Seconds(), "clients/sec")
}

// BenchmarkSweepSerial is the one-worker baseline of the population sweep.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the sweep on the default worker pool
// (GOMAXPROCS) and reports the measured speedup over a serial run of the
// same population — the determinism contract makes the two sweeps
// bit-identical, so the speedup is free.
func BenchmarkSweepParallel(b *testing.B) {
	sch, err := core.New(vod.DefaultConfig(320), 52)
	if err != nil {
		b.Fatal(err)
	}
	cs := sim.New(sch)
	serialStart := time.Now()
	if _, err := sim.Sweep(cs, sweepBenchClients, 1000, 10, 42, sim.Workers(1)); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(serialStart)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Sweep(cs, sweepBenchClients, 1000, 10, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sweepBenchClients)*float64(b.N)/b.Elapsed().Seconds(), "clients/sec")
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(serial.Seconds()/perOp, "speedup-vs-serial")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// regenerateSweepFigures rebuilds every bandwidth-sweep figure (5a-8).
func regenerateSweepFigures(bands []float64) {
	bench.Figure5a(bands)
	bench.Figure5b(bands)
	bench.Figure6(bands)
	bench.Figure7(bands)
	bench.Figure8(bands)
}

// BenchmarkFiguresCold regenerates Figures 5-8 with a cold scheme cache
// each iteration: every curve's points re-materialize their schemes.
func BenchmarkFiguresCold(b *testing.B) {
	bands := bench.Bandwidths(20)
	before := bench.CacheBuilds()
	for i := 0; i < b.N; i++ {
		bench.ResetCache()
		regenerateSweepFigures(bands)
	}
	b.ReportMetric(float64(bench.CacheBuilds()-before)/float64(b.N), "constructions/op")
}

// BenchmarkFiguresMemoized regenerates Figures 5-8 against a warm
// sweep-level cache: each bandwidth point's schemes were constructed
// exactly once (constructions-per-point = 1), and regeneration itself
// constructs nothing.
func BenchmarkFiguresMemoized(b *testing.B) {
	bands := bench.Bandwidths(20)
	bench.ResetCache()
	warmStart := bench.CacheBuilds()
	regenerateSweepFigures(bands) // warm the cache
	warmed := bench.CacheBuilds() - warmStart
	if warmed != int64(len(bands)) {
		b.Fatalf("warming built %d schemes for %d points, want one each", warmed, len(bands))
	}
	before := bench.CacheBuilds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regenerateSweepFigures(bands)
	}
	b.StopTimer()
	if built := bench.CacheBuilds() - before; built != 0 {
		b.Fatalf("memoized regeneration rebuilt %d schemes", built)
	}
	b.ReportMetric(float64(warmed)/float64(len(bands)), "constructions-per-point")
}

// BenchmarkCrossValidation runs the event simulator against the closed
// forms (the EXPERIMENTS.md validation table).
func BenchmarkCrossValidation(b *testing.B) {
	var rows []bench.CrossRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.CrossValidate([]float64{320}, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheme == "SB:W=52" {
			b.ReportMetric(r.MeasuredBufferMB, "SBw52-sim-bufMB")
			b.ReportMetric(r.AnalyticBufferMB, "SBw52-formula-bufMB")
		}
	}
}

// BenchmarkAblationWidth quantifies the design choice DESIGN.md calls out:
// the width knob trades latency (down) for buffer (up) while disk
// bandwidth stays capped at 3b — something neither pyramid scheme offers.
func BenchmarkAblationWidth(b *testing.B) {
	cfg := skyscraper.DefaultConfig(320)
	var latRatio, bufRatio float64
	for i := 0; i < b.N; i++ {
		narrow, err := skyscraper.New(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		wide, err := skyscraper.New(cfg, 52)
		if err != nil {
			b.Fatal(err)
		}
		latRatio = narrow.AccessLatencyMin() / wide.AccessLatencyMin()
		bufRatio = wide.BufferMbit() / narrow.BufferMbit()
	}
	b.ReportMetric(latRatio, "latency-gain-W2-to-W52")
	b.ReportMetric(bufRatio, "buffer-cost-W2-to-W52")
}

// BenchmarkAblationSeries compares the paper's series against the
// constant (staggered) series under identical machinery: the skyscraper
// fragmentation converts a linear latency/bandwidth curve into a
// near-exponential one.
func BenchmarkAblationSeries(b *testing.B) {
	cfg := skyscraper.DefaultConfig(320)
	var gain float64
	for i := 0; i < b.N; i++ {
		sky, err := core.NewWithSeries(cfg, series.Skyscraper{}, 52)
		if err != nil {
			b.Fatal(err)
		}
		flat, err := core.NewWithSeries(cfg, series.Constant{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		gain = flat.AccessLatencyMin() / sky.AccessLatencyMin()
	}
	b.ReportMetric(gain, "latency-gain-vs-staggered")
}

// BenchmarkSchedulePlanning measures the client admission path: planning
// a full two-loader reception schedule.
func BenchmarkSchedulePlanning(b *testing.B) {
	sch, err := core.New(vod.DefaultConfig(600), 52)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := sch.PlanSchedule(int64(i % 3900))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sch.Profile(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesGeneration measures the broadcast-series recurrence.
func BenchmarkSeriesGeneration(b *testing.B) {
	s := series.Skyscraper{}
	b.ReportAllocs()
	var v int64
	for i := 0; i < b.N; i++ {
		v = s.At(40)
	}
	_ = v
}

// BenchmarkSimSBClient measures one full event-simulated SB reception.
func BenchmarkSimSBClient(b *testing.B) {
	sch, err := core.New(vod.DefaultConfig(320), 52)
	if err != nil {
		b.Fatal(err)
	}
	cs := sim.New(sch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Client(float64(i%1000)*0.37, i%10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPBClient measures one full event-simulated PB reception.
func BenchmarkSimPBClient(b *testing.B) {
	sch, err := pyramid.New(vod.DefaultConfig(320), pyramid.MethodB)
	if err != nil {
		b.Fatal(err)
	}
	cs := sim.New(sch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Client(float64(i%1000)*0.37, i%10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPPBClient measures one full event-simulated PPB reception,
// including the pause/resume burst schedule.
func BenchmarkSimPPBClient(b *testing.B) {
	sch, err := ppb.New(vod.DefaultConfig(320), ppb.MethodB)
	if err != nil {
		b.Fatal(err)
	}
	cs := sim.New(sch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Client(float64(i%1000)*0.37, i%10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTuningPolicy quantifies the lazy-vs-eager design note
// in DESIGN.md: the worst-case buffer under eager tuning versus the lazy
// policy's exactly-tight bound, at B=320, W=52.
func BenchmarkAblationTuningPolicy(b *testing.B) {
	sch, err := core.New(vod.DefaultConfig(320), 52)
	if err != nil {
		b.Fatal(err)
	}
	period := sch.PhasePeriod()
	stride := period/800 + 1
	var lazyWorst, eagerWorst int64
	for i := 0; i < b.N; i++ {
		lazyWorst, eagerWorst = 0, 0
		for phase := int64(0); phase < period; phase += stride {
			lp, err := sch.PlanSchedule(phase)
			if err != nil {
				b.Fatal(err)
			}
			lbp, err := sch.Profile(lp)
			if err != nil {
				b.Fatal(err)
			}
			if m := lbp.Max(); m > lazyWorst {
				lazyWorst = m
			}
			ep, err := sch.PlanScheduleEager(phase)
			if err != nil {
				b.Fatal(err)
			}
			ebp, err := sch.Profile(ep)
			if err != nil {
				b.Fatal(err)
			}
			if m := ebp.Max(); m > eagerWorst {
				eagerWorst = m
			}
		}
	}
	b.ReportMetric(float64(lazyWorst), "lazy-worst-units")
	b.ReportMetric(float64(eagerWorst), "eager-worst-units")
}

// BenchmarkAblationLoaderCount contrasts the tuner requirements of the
// paper's series (2 loaders at any width) against the doubling series,
// which degenerates to receiving from every channel at once.
func BenchmarkAblationLoaderCount(b *testing.B) {
	sky := series.Groups(series.Values(series.Skyscraper{}, 13, 12))
	dbl := series.Groups(series.Values(series.Doubling{}, 6, 0))
	var skyN, dblN int
	for i := 0; i < b.N; i++ {
		skyN = core.MinLoaders(sky, 120, 8)
		dblN = core.MinLoaders(dbl, 64, 8)
	}
	b.ReportMetric(float64(skyN), "skyscraper-loaders")
	b.ReportMetric(float64(dblN), "doubling-loaders")
}

// BenchmarkMotivationUnicastVsBroadcast reproduces the paper's Section 1
// motivation as numbers: at metropolitan demand a stream-per-viewer server
// refuses most of its audience, while the broadcast server's channel usage
// is a constant of the configuration — independent of viewers.
func BenchmarkMotivationUnicastVsBroadcast(b *testing.B) {
	cat, err := skyscraper.NewCatalog(10, skyscraper.ZipfSkew, 120, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := skyscraper.NewGenerator(skyscraper.WorkloadConfig{RatePerMin: 4, Seed: 5}, cat)
	if err != nil {
		b.Fatal(err)
	}
	requests := gen.Take(3000)
	var blocking float64
	for i := 0; i < b.N; i++ {
		st, err := unicast.Run(200, 120, requests) // 300 Mbit/s of unicast channels
		if err != nil {
			b.Fatal(err)
		}
		blocking = st.BlockingProb()
	}
	sb, err := skyscraper.New(skyscraper.DefaultConfig(300), 52)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(blocking, "unicast-blocking-prob")
	b.ReportMetric(float64(sb.ServerChannelsUsed()), "broadcast-channels-any-audience")
}
