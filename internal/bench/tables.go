package bench

import (
	"fmt"
	"math"

	"skyscraper/internal/vod"
)

// Table1Row is one row of the paper's Table 1: a scheme's closed-form
// performance expressions, evaluated at a concrete bandwidth.
type Table1Row struct {
	Scheme string
	// The symbolic forms, as printed in the paper (this repository's
	// readings of them; see DESIGN.md for OCR notes).
	IOFormula, LatencyFormula, BufferFormula string
	// The evaluations (NaN when infeasible at this bandwidth).
	IOMbps, LatencyMin, BufferMbit float64
}

// Table1 evaluates the Table 1 formulas at the given bandwidth for the
// paper's default workload.
func Table1(bandwidth float64) []Table1Row {
	v := cachedAt(bandwidth)
	rows := []Table1Row{}
	add := func(name, iof, lf, bf string, p vod.Performer) {
		r := Table1Row{Scheme: name, IOFormula: iof, LatencyFormula: lf, BufferFormula: bf,
			IOMbps: math.NaN(), LatencyMin: math.NaN(), BufferMbit: math.NaN()}
		if p != nil {
			r.IOMbps = p.DiskBandwidthMbps()
			r.LatencyMin = p.AccessLatencyMin()
			r.BufferMbit = p.BufferMbit()
		}
		rows = append(rows, r)
	}
	add("PB", "b + 2B/K", "D1*M*K*b/B = D1/alpha", "60b(D_{K-1} + D_K(1 - bK/B))", v.named("PB:b"))
	add("PPB", "b + B/(KPM)", "D1*M*K*b/B = D1/(P+alpha)", "60b(D_{K-1}+D_K)*MKb/B", v.named("PPB:b"))
	add("SB", "b | 2b | 3b (by W, K)", "D1 = D / sum min(f(i),W)", "60*b*D1*(W-1)", v.named("SB:W=52"))
	return rows
}

// Table2Row is one row of Table 2: how each scheme determines its design
// parameters.
type Table2Row struct {
	Scheme  string
	KRule   string
	PRule   string
	ARule   string
	K       int
	P       int // 0 = not applicable
	Alpha   float64
	Comment string
}

// Table2 evaluates the parameter rules at the given bandwidth.
func Table2(bandwidth float64) []Table2Row {
	v := cachedAt(bandwidth)
	rows := []Table2Row{}
	add := func(name string, r Table2Row) {
		s := v.named(name)
		if s == nil {
			return
		}
		r.Scheme, r.K, r.Alpha = name, int(kOf(s)), alphaOf(s)
		if pp, ok := s.(interface{ P() int }); ok {
			r.P = pp.P()
		}
		rows = append(rows, r)
	}
	add("PB:a", Table2Row{KRule: "ceil(B/(bMe))", PRule: "n/a", ARule: "B/(bMK)", Comment: "alpha <= e"})
	add("PB:b", Table2Row{KRule: "floor(B/(bMe))", PRule: "n/a", ARule: "B/(bMK)", Comment: "alpha >= e"})
	add("PPB:a", Table2Row{KRule: "max K in [2,7] feasible", PRule: "floor(B/(KMb) - 2)", ARule: "B/(KMb) - P"})
	add("PPB:b", Table2Row{KRule: "max K in [2,7] feasible", PRule: "max(2, floor(B/(KMb)) - 2)", ARule: "B/(KMb) - P"})
	if sb := v.named("SB:W=52"); sb != nil {
		rows = append(rows, Table2Row{Scheme: "SB", KRule: "floor(B/(bM))", PRule: "n/a", ARule: "n/a (series + W)",
			K: int(kOf(sb)), Comment: fmt.Sprintf("W tunable; D1 = %.4f min at W=52", sb.AccessLatencyMin())})
	}
	return rows
}
