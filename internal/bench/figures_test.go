package bench

import (
	"math"
	"runtime"
	"testing"

	"skyscraper/internal/core"
	"skyscraper/internal/vod"
)

func curveByName(t *testing.T, curves []Curve, name string) Curve {
	t.Helper()
	for _, c := range curves {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no curve %q (have %v)", name, func() []string {
		var n []string
		for _, c := range curves {
			n = append(n, c.Name)
		}
		return n
	}())
	return Curve{}
}

func valueAt(t *testing.T, c Curve, x float64) float64 {
	t.Helper()
	for i := range c.X {
		if c.X[i] == x {
			return c.Y[i]
		}
	}
	t.Fatalf("curve %q has no x = %v", c.Name, x)
	return 0
}

// TestNewScheme: every name in the table builds its scheme, in any case;
// an infeasible build is a nil interface with an error, never a typed
// nil; an unknown name is an error.
func TestNewScheme(t *testing.T) {
	cfg := vod.DefaultConfig(320)
	for name, want := range map[string]string{
		"sb": "SB:W=52", "pb:a": "PB:a", "PB:B": "PB:b", "ppb:a": "PPB:a", "ppb:b": "PPB:b", "staggered": "Staggered",
	} {
		s, err := NewScheme(name, cfg, 52)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != want {
			t.Errorf("%s builds %q, want %q", name, s.Name(), want)
		}
	}
	if s, err := NewScheme("ppb:b", vod.DefaultConfig(30), 0); err == nil || s != nil {
		t.Errorf("infeasible PPB:b at 30 Mbit/s = %v, %v; want nil and an error", s, err)
	}
	if _, err := NewScheme("harmonic", cfg, 0); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestBandwidths(t *testing.T) {
	b := Bandwidths(100)
	if len(b) != 6 || b[0] != 100 || b[5] != 600 {
		t.Errorf("Bandwidths(100) = %v", b)
	}
	if got := Bandwidths(0); len(got) < 20 {
		t.Errorf("default step yields %d points", len(got))
	}
}

// TestFigure5Shapes checks the parameter plot: SB's K values are "much
// larger ... under various network-I/O conditions" than the pyramid
// schemes' (Section 5.1), and PPB's K saturates at 7.
func TestFigure5Shapes(t *testing.T) {
	bands := Bandwidths(100)
	f5a := Figure5a(bands)
	sbK := curveByName(t, f5a, "SB (K)")
	pbK := curveByName(t, f5a, "PB:b (K)")
	ppbK := curveByName(t, f5a, "PPB:a (K)")
	for i, b := range bands {
		if sbK.Y[i] <= pbK.Y[i] {
			t.Errorf("B=%v: SB K %v not larger than PB K %v", b, sbK.Y[i], pbK.Y[i])
		}
		if ppbK.Y[i] > 7 {
			t.Errorf("B=%v: PPB K = %v > 7", b, ppbK.Y[i])
		}
	}
	if got := valueAt(t, sbK, 600); got != 40 {
		t.Errorf("SB K at 600 = %v, want 40", got)
	}

	f5b := Figure5b(bands)
	for _, name := range []string{"PB:a (alpha)", "PB:b (alpha)", "PPB:a (alpha)", "PPB:b (alpha)"} {
		c := curveByName(t, f5b, name)
		for i, y := range c.Y {
			if !math.IsNaN(y) && y <= 1 {
				t.Errorf("%s at B=%v: alpha = %v <= 1", name, bands[i], y)
			}
		}
	}
}

// TestFigure6Shapes checks Section 5.2: PB needs about 50x the display
// rate (about 10 MByte/s) while SB needs at most 3b regardless of W, and
// PPB is comparable to SB.
func TestFigure6Shapes(t *testing.T) {
	bands := Bandwidths(100)
	f6 := Figure6(bands)
	bMBps := vod.MbpsToMBps(1.5)
	pb := curveByName(t, f6, "PB:b")
	if got := valueAt(t, pb, 600); got < 8 || got > 13 {
		t.Errorf("PB:b disk bw at 600 = %v MByte/s, want about 10", got)
	}
	for _, name := range []string{"SB:W=2", "SB:W=52", "SB:W=1705", "SB:W=54612", "SB:W=infinite"} {
		c := curveByName(t, f6, name)
		for i, y := range c.Y {
			if y > 3*bMBps+1e-9 {
				t.Errorf("%s at B=%v: disk bw %v exceeds 3b", name, bands[i], y)
			}
		}
	}
	ppb := curveByName(t, f6, "PPB:b")
	for i, y := range ppb.Y {
		if !math.IsNaN(y) && y > 5*bMBps {
			t.Errorf("PPB:b at B=%v: disk bw %v not comparable to SB", bands[i], y)
		}
	}
}

// TestFigure7Shapes checks Section 5.3: PB's latency is excellent, PPB
// needs at least ~300 Mbit/s for sub-half-minute latency, and larger W
// keeps SB's latency low.
func TestFigure7Shapes(t *testing.T) {
	bands := Bandwidths(100)
	f7 := Figure7(bands)
	if got := valueAt(t, curveByName(t, f7, "PB:b"), 300); got > 0.1 {
		t.Errorf("PB:b latency at 300 = %v, want < 0.1", got)
	}
	if got := valueAt(t, curveByName(t, f7, "PPB:a"), 200); got < 0.5 {
		t.Errorf("PPB:a latency at 200 = %v, want > 0.5", got)
	}
	if got := valueAt(t, curveByName(t, f7, "PPB:a"), 300); got > 0.5 {
		t.Errorf("PPB:a latency at 300 = %v, want <= 0.5", got)
	}
	// Larger W means lower (or equal) SB latency at every bandwidth.
	w2 := curveByName(t, f7, "SB:W=2")
	w52 := curveByName(t, f7, "SB:W=52")
	inf := curveByName(t, f7, "SB:W=infinite")
	for i := range bands {
		if w52.Y[i] > w2.Y[i]+1e-12 || inf.Y[i] > w52.Y[i]+1e-12 {
			t.Errorf("B=%v: SB latency not monotone in W: %v %v %v", bands[i], w2.Y[i], w52.Y[i], inf.Y[i])
		}
	}
	// SB:W=52 offers about 0.1 min beyond 200 Mbit/s (Section 5.4).
	if got := valueAt(t, w52, 300); got > 0.2 {
		t.Errorf("SB:W=52 latency at 300 = %v, want about 0.1", got)
	}
}

// TestFigure8Shapes checks Section 5.4: PB needs > 1 GByte, PPB about
// 150-250 MByte, SB:W=2 about 33 MByte at 320 Mbit/s.
func TestFigure8Shapes(t *testing.T) {
	bands := Bandwidths(20)
	f8 := Figure8(bands)
	if got := valueAt(t, curveByName(t, f8, "PB:b"), 600); got < 1000 {
		t.Errorf("PB:b storage at 600 = %v MByte, want > 1000", got)
	}
	if got := valueAt(t, curveByName(t, f8, "PPB:b"), 320); got < 100 || got > 200 {
		t.Errorf("PPB:b storage at 320 = %v MByte, want about 150", got)
	}
	if got := valueAt(t, curveByName(t, f8, "SB:W=2"), 320); math.Abs(got-33) > 1 {
		t.Errorf("SB:W=2 storage at 320 = %v MByte, want about 33", got)
	}
	if got := valueAt(t, curveByName(t, f8, "SB:W=52"), 600); math.Abs(got-40.5) > 2 {
		t.Errorf("SB:W=52 storage at 600 = %v MByte, want about 40", got)
	}
}

// TestCombinedWin checks the paper's summary claim: "While PB and PPB must
// make trade-offs between access latency, storage costs, and disk
// bandwidth requirement, the proposed scheme allows the flexibility to win
// on all three metrics" — at 600 Mbit/s, SB:W=52 beats PPB on all three
// and matches PB's only strength within an uninteresting margin.
func TestCombinedWin(t *testing.T) {
	bands := []float64{600.0}
	f6, f7, f8 := Figure6(bands), Figure7(bands), Figure8(bands)
	get := func(curves []Curve, name string) float64 { return valueAt(t, curveByName(t, curves, name), 600) }
	// Latency: below the threshold Section 5.3 calls practically
	// significant ("improving the latency to well below 0.3 minutes is
	// practically insignificant") — PB's and PPB:a's smaller numbers buy
	// nothing.
	if get(f7, "SB:W=52") > 0.3 {
		t.Errorf("SB:W=52 latency %v above the practically-significant threshold", get(f7, "SB:W=52"))
	}
	for _, rival := range []string{"PPB:a", "PPB:b"} {
		// Disk bandwidth: within the same small-multiple-of-b class as
		// PPB (Section 5.2: "SB and PPB have similar disk bandwidth
		// requirements").
		if sb, rv := get(f6, "SB:W=52"), get(f6, rival); sb > rv*1.1 {
			t.Errorf("SB:W=52 disk bw %v not comparable to %s %v", sb, rival, rv)
		}
		// Storage: several times smaller than PPB's (40 vs 150-250
		// MByte — the "many folds better" combined benefit).
		if sb, rv := get(f8, "SB:W=52"), get(f8, rival); sb > rv/2 {
			t.Errorf("SB:W=52 storage %v not well below %s %v", sb, rival, rv)
		}
	}
}

// TestSchemeCacheBuildsOncePerPoint: regenerating every sweep figure
// constructs each bandwidth point's schemes exactly once, no matter how
// many curves and figures share it or whether points run concurrently
// (the default GOMAXPROCS) or serially (GOMAXPROCS 1).
func TestSchemeCacheBuildsOncePerPoint(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		ResetCache()
		before := CacheBuilds()
		bands := Bandwidths(50)
		Figure5a(bands)
		Figure5b(bands)
		Figure6(bands)
		Figure7(bands)
		Figure8(bands)
		if got := CacheBuilds() - before; got != int64(len(bands)) {
			t.Errorf("GOMAXPROCS=%d: %d constructions for %d bandwidth points, want one each",
				procs, got, len(bands))
		}
		runtime.GOMAXPROCS(prev)
	}
	ResetCache()
}

// TestParallelPointsIdentical: concurrent point evaluation changes only
// wall-clock, never values — GOMAXPROCS 1 evaluates the points serially.
func TestParallelPointsIdentical(t *testing.T) {
	bands := Bandwidths(100)
	figs := []func([]float64) []Curve{Figure5a, Figure5b, Figure6, Figure7, Figure8}
	for fi, fig := range figs {
		prev := runtime.GOMAXPROCS(1)
		serial := fig(bands)
		runtime.GOMAXPROCS(prev)
		parallel := fig(bands)
		if len(serial) != len(parallel) {
			t.Fatalf("figure %d: curve counts differ", fi)
		}
		for ci := range serial {
			if serial[ci].Name != parallel[ci].Name {
				t.Fatalf("figure %d curve %d: names differ", fi, ci)
			}
			for i := range serial[ci].Y {
				sv, pv := serial[ci].Y[i], parallel[ci].Y[i]
				if sv != pv && !(math.IsNaN(sv) && math.IsNaN(pv)) {
					t.Errorf("figure %d %s at B=%v: serial %v != parallel %v",
						fi, serial[ci].Name, bands[i], sv, pv)
				}
			}
		}
	}
}

func TestTransitions(t *testing.T) {
	sch, err := core.New(vod.DefaultConfig(45), 2) // K=3: Figure 1's layout
	if err != nil {
		t.Fatal(err)
	}
	best, worst, err := Transitions(sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.MaxUnits != 0 {
		t.Errorf("Figure 1(a) phase buffers %d units, want 0", best.MaxUnits)
	}
	if worst.MaxUnits != 1 {
		t.Errorf("Figure 1(b) phase buffers %d units, want 1", worst.MaxUnits)
	}
	if len(worst.Points) == 0 {
		t.Error("no profile points")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(320)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Scheme == "" || r.IOFormula == "" || r.LatencyFormula == "" || r.BufferFormula == "" {
			t.Errorf("incomplete row %+v", r)
		}
		if math.IsNaN(r.LatencyMin) {
			t.Errorf("%s infeasible at 320", r.Scheme)
		}
	}
	// Below feasibility, PB and PPB rows must be NaN but present.
	rows = Table1(50)
	if !math.IsNaN(rows[0].LatencyMin) || !math.IsNaN(rows[1].LatencyMin) {
		t.Error("PB/PPB not marked infeasible at 50 Mbit/s")
	}
	if math.IsNaN(rows[2].LatencyMin) {
		t.Error("SB should be feasible at 50 Mbit/s")
	}
}

func TestTable2(t *testing.T) {
	rows := Table2(320)
	if len(rows) != 5 {
		t.Fatalf("%d rows at 320", len(rows))
	}
	for _, r := range rows {
		if r.K <= 0 {
			t.Errorf("%s: K = %d", r.Scheme, r.K)
		}
	}
	// At 30 Mbit/s only SB remains (PB:a's ceiling rule keeps it
	// marginally alive down to ~41 Mbit/s; see DESIGN.md).
	rows = Table2(30)
	if len(rows) != 1 || rows[0].Scheme != "SB" {
		t.Errorf("rows at 30 = %+v", rows)
	}
}

func TestCrossValidate(t *testing.T) {
	rows, err := CrossValidate([]float64{100, 320}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.MeasuredLatency > r.AnalyticLatency*1.0001 {
			t.Errorf("%s B=%v: measured latency %v exceeds analytic %v", r.Scheme, r.Bandwidth, r.MeasuredLatency, r.AnalyticLatency)
		}
		if r.MeasuredBufferMB > r.AnalyticBufferMB*1.0001 {
			t.Errorf("%s B=%v: measured buffer %v exceeds analytic %v", r.Scheme, r.Bandwidth, r.MeasuredBufferMB, r.AnalyticBufferMB)
		}
		if r.MeasuredLatency < r.AnalyticLatency*0.3 {
			t.Errorf("%s B=%v: measured latency %v far below analytic %v; sweep broken?", r.Scheme, r.Bandwidth, r.MeasuredLatency, r.AnalyticLatency)
		}
	}
}
