// Command skyfigs regenerates every table and figure of the paper's
// evaluation section from this repository's implementations.
//
// Usage:
//
//	skyfigs -figure 7            # one figure (1 2 3 4 5a 5b 6 7 8)
//	skyfigs -table 1 -B 320      # one table at a bandwidth
//	skyfigs -all                 # everything
//	skyfigs -figure 8 -csv       # machine-readable output
//	skyfigs -crossvalidate       # simulation vs closed forms
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"skyscraper/internal/bench"
	"skyscraper/internal/core"
	"skyscraper/internal/textplot"
	"skyscraper/internal/vod"
)

func main() {
	var (
		figure    = flag.String("figure", "", "figure to regenerate: 1, 2, 3, 4, 5a, 5b, 6, 7 or 8")
		table     = flag.Int("table", 0, "table to regenerate: 1 or 2")
		all       = flag.Bool("all", false, "regenerate everything")
		bandwidth = flag.Float64("B", 320, "bandwidth (Mbit/s) for tables and transition figures")
		step      = flag.Float64("step", 20, "bandwidth sweep step (Mbit/s) for figures 5-8")
		csv       = flag.Bool("csv", false, "emit CSV instead of ASCII plots")
		crossVal  = flag.Bool("crossvalidate", false, "print simulation-vs-analysis table")
	)
	flag.Parse()
	start := time.Now()
	if err := run(*figure, *table, *all, *bandwidth, *step, *csv, *crossVal); err != nil {
		fmt.Fprintln(os.Stderr, "skyfigs:", err)
		os.Exit(1)
	}
	// Wall-clock goes to stderr so CSV output stays machine-readable; it
	// makes the scheme-cache and parallel-point wins visible from the CLI.
	fmt.Fprintf(os.Stderr, "skyfigs: regenerated in %v (%d scheme constructions)\n",
		time.Since(start).Round(time.Microsecond), bench.CacheBuilds())
}

func run(figure string, table int, all bool, bandwidth, step float64, csv, crossVal bool) error {
	if all {
		for _, f := range []string{"1", "2", "3", "4", "5a", "5b", "6", "7", "8"} {
			if err := emitFigure(f, bandwidth, step, csv); err != nil {
				return err
			}
		}
		for _, t := range []int{1, 2} {
			if err := emitTable(t, bandwidth); err != nil {
				return err
			}
		}
		return nil
	}
	if crossVal {
		return emitCrossValidation(step)
	}
	if figure != "" {
		return emitFigure(figure, bandwidth, step, csv)
	}
	if table != 0 {
		return emitTable(table, bandwidth)
	}
	flag.Usage()
	return fmt.Errorf("nothing to do: pass -figure, -table, -all or -crossvalidate")
}

func emitFigure(fig string, bandwidth, step float64, csv bool) error {
	switch fig {
	case "1", "2", "3", "4":
		return emitTransitionFigure(fig, bandwidth)
	}
	bands := bench.Bandwidths(step)
	var (
		curves []bench.Curve
		title  string
		ylab   string
		logY   bool
	)
	switch fig {
	case "5a":
		curves, title, ylab = bench.Figure5a(bands), "Figure 5(a): values of K and P", "parameter value"
	case "5b":
		curves, title, ylab = bench.Figure5b(bands), "Figure 5(b): value of alpha", "alpha"
	case "6":
		curves, title, ylab, logY = bench.Figure6(bands), "Figure 6: disk bandwidth requirement", "MByte/s", true
	case "7":
		curves, title, ylab, logY = bench.Figure7(bands), "Figure 7: access latency", "minutes", true
	case "8":
		curves, title, ylab, logY = bench.Figure8(bands), "Figure 8: storage requirement", "MByte", true
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	if csv {
		fmt.Printf("# %s\n", title)
		fmt.Print("bandwidthMbps")
		for _, c := range curves {
			fmt.Printf(",%s", c.Name)
		}
		fmt.Println()
		for i, b := range bands {
			fmt.Printf("%g", b)
			for _, c := range curves {
				if math.IsNaN(c.Y[i]) {
					fmt.Print(",")
				} else {
					fmt.Printf(",%g", c.Y[i])
				}
			}
			fmt.Println()
		}
		return nil
	}
	series := make([]textplot.Series, len(curves))
	for i, c := range curves {
		series[i] = textplot.Series{Name: c.Name, X: c.X, Y: c.Y}
	}
	p := textplot.Plot{Title: title, XLabel: "network-I/O bandwidth (Mb/s)", YLabel: ylab, LogY: logY, Series: series, Width: 76, Height: 22}
	fmt.Println(p.Render())
	return nil
}

// emitTransitionFigure renders the Figure 1-4 family: buffer occupancy
// across group transitions at the best and worst arrival phases.
func emitTransitionFigure(fig string, bandwidth float64) error {
	// Pick a width that makes the figure's transition the last one of
	// the fragmentation, as the paper's analysis does.
	widths := map[string]int64{"1": 2, "2": 5, "3": 12, "4": 12}
	titles := map[string]string{
		"1": "Figure 1: transition (1) -> (2,2)",
		"2": "Figure 2: transition (A,A) -> (2A+1,2A+1), A even",
		"3": "Figure 3: transition (A,A) -> (2A+2,2A+2), even start",
		"4": "Figure 4: transition (A,A) -> (2A+2,2A+2), odd start",
	}
	sch, err := core.New(vod.DefaultConfig(bandwidth), widths[fig])
	if err != nil {
		return err
	}
	best, worst, err := bench.Transitions(sch, 4000)
	if err != nil {
		return err
	}
	fmt.Printf("%s  (K=%d, W=%d, D1=%.4f min)\n", titles[fig], sch.K(), widths[fig], sch.UnitMinutes())
	fmt.Printf("  best phase %d: max buffer %d units (%g Mbit)\n",
		best.Phase, best.MaxUnits, float64(best.MaxUnits)*60*sch.Config().RateMbps*sch.UnitMinutes())
	fmt.Printf("  worst phase %d: max buffer %d units (%g Mbit); bound 60*b*D1*(W-1) = %g Mbit\n",
		worst.Phase, worst.MaxUnits,
		float64(worst.MaxUnits)*60*sch.Config().RateMbps*sch.UnitMinutes(), sch.BufferMbit())
	// Render the worst-phase occupancy curve like the paper's hand-drawn
	// "overall effect" plot.
	xs := make([]float64, len(worst.Points))
	ys := make([]float64, len(worst.Points))
	for i, pt := range worst.Points {
		xs[i] = float64(pt.Unit - worst.Phase)
		ys[i] = float64(pt.Occupancy)
	}
	p := textplot.Plot{
		Title:  "  buffer occupancy at the worst phase (units of 60*b*D1)",
		XLabel: "time since playback start (D1 units)",
		YLabel: "buffered units",
		Series: []textplot.Series{{Name: "overall effect", X: xs, Y: ys}},
		Width:  76, Height: 14,
	}
	fmt.Println(p.Render())
	return nil
}

func emitTable(n int, bandwidth float64) error {
	switch n {
	case 1:
		rows := bench.Table1(bandwidth)
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = []string{
				r.Scheme, r.IOFormula, fmtNaN(r.IOMbps), r.LatencyFormula, fmtNaN(r.LatencyMin),
				r.BufferFormula, fmtNaN(r.BufferMbit),
			}
		}
		fmt.Printf("Table 1: performance computation at B = %g Mbit/s (M=10, D=120, b=1.5)\n", bandwidth)
		fmt.Println(textplot.Table(
			[]string{"scheme", "I/O bw formula", "Mb/s", "latency formula", "min", "buffer formula", "Mbit"}, out))
	case 2:
		rows := bench.Table2(bandwidth)
		out := make([][]string, len(rows))
		for i, r := range rows {
			p := "-"
			if r.P > 0 {
				p = strconv.Itoa(r.P)
			}
			a := "-"
			if r.Alpha > 0 {
				a = fmt.Sprintf("%.4f", r.Alpha)
			}
			out[i] = []string{r.Scheme, r.KRule, strconv.Itoa(r.K), r.PRule, p, r.ARule, a, r.Comment}
		}
		fmt.Printf("Table 2: design parameter determination at B = %g Mbit/s\n", bandwidth)
		fmt.Println(textplot.Table(
			[]string{"scheme", "K rule", "K", "P rule", "P", "alpha rule", "alpha", "notes"}, out))
	default:
		return fmt.Errorf("unknown table %d", n)
	}
	return nil
}

func emitCrossValidation(step float64) error {
	if step < 50 {
		step = 100
	}
	rows, err := bench.CrossValidate(bench.Bandwidths(step), 120)
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Scheme, fmt.Sprintf("%g", r.Bandwidth),
			fmt.Sprintf("%.4f", r.AnalyticLatency), fmt.Sprintf("%.4f", r.MeasuredLatency),
			fmt.Sprintf("%.2f", r.AnalyticBufferMB), fmt.Sprintf("%.2f", r.MeasuredBufferMB),
			strconv.Itoa(r.MeasuredMaxStream),
		}
	}
	fmt.Println("Simulation vs closed forms (measured values are worst cases over sampled arrival phases)")
	fmt.Println(textplot.Table(
		[]string{"scheme", "B", "latency(formula)", "latency(sim)", "bufMB(formula)", "bufMB(sim)", "streams"}, out))
	return nil
}

func fmtNaN(v float64) string {
	if math.IsNaN(v) {
		return "infeasible"
	}
	return fmt.Sprintf("%.4g", v)
}
