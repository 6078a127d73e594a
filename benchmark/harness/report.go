package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"skyscraper/internal/mcast"
)

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations a timing statistic rests on;
	// Note names e.g. the percentile actually reported.
	Samples int    `json:"samples,omitempty"`
	Note    string `json:"note,omitempty"`
}

// Check is one correctness assertion on the run's outputs.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Stamp records where and how a report was produced, so numbers from
// different machines, kernels or kill-switch settings are never compared
// silently.
type Stamp struct {
	Commit       string          `json:"commit"`
	NProc        int             `json:"nproc"`
	GOMAXPROCS   map[string]int  `json:"gomaxprocs"` // per role
	Kernel       string          `json:"kernel"`
	Go           string          `json:"go"`
	Caps         map[string]bool `json:"caps"` // vectorized, gso, recvmmsg, gro
	KillSwitches []string        `json:"killSwitches,omitempty"`
	Transport    string          `json:"transport"`
}

// Report is one run of one workload.
type Report struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Traced       bool              `json:"traced"`
	NotForClaims bool              `json:"not_for_claims,omitempty"`
	Stamp        Stamp             `json:"stamp"`
	Inputs       any               `json:"inputs,omitempty"`
	Correct      bool              `json:"correct"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	Checks       []Check           `json:"checks"`
	EndToEnd     map[string]Metric `json:"end_to_end"`
	PerLayer     map[string]Metric `json:"per_layer"`
	LayerBudget  any               `json:"layer_budget,omitempty"`
	Notes        []string          `json:"notes,omitempty"`
}

// ReportFile is what skybench writes: every run it made of a workload.
type ReportFile struct {
	Reports []*Report `json:"reports"`
}

func newReport(workload string, seed uint64, seconds float64, traced bool) *Report {
	return &Report{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: true, EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}}
}

// set records a metric under its table definition; NaN and Inf are never
// written (a ratio with an empty base is left out instead).
func (r *Report) set(name string, value float64, samples int, note string) {
	d, ok := FindMetric(name)
	if !ok {
		panic("harness: metric " + name + " is not in the tables") // a bug in this package
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	m := Metric{Value: value, Unit: d.Unit, Samples: samples, Note: note}
	if strings.Contains(name, ".") {
		r.PerLayer[name] = m
	} else {
		r.EndToEnd[name] = m
	}
}

func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// ActiveKillSwitches lists the SKYSCRAPER_NO_* variables set in the
// environment (mcast.NoSendmmsgEnv and its siblings, and any later one of
// that prefix): each demotes a fast path, so a run with one set measures a
// different system.
func ActiveKillSwitches() []string {
	var on []string
	for _, kv := range os.Environ() {
		name, val, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(name, "SKYSCRAPER_NO_") && val != "" {
			on = append(on, name)
		}
	}
	sort.Strings(on)
	return on
}

// MakeStamp probes the host. root is the repository root (for the commit).
func MakeStamp(root string, roleProcs map[string]int) Stamp {
	st := Stamp{Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: roleProcs, Kernel: "unknown",
		Go: runtime.Version(), Caps: map[string]bool{}, KillSwitches: ActiveKillSwitches(),
		Transport: "host loopback (127.0.0.1), not a real link"}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
			st.Commit += "-dirty"
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	// The same probes the hub and the shared receiver run at creation.
	if h, err := mcast.NewHub(); err == nil {
		st.Caps["vectorized"], st.Caps["gso"] = h.Vectorized(), h.GSO()
		h.Close()
	}
	if rcv, err := mcast.NewSharedReceiver(0, func([]byte) (mcast.Group, bool) { return mcast.Group{}, false }); err == nil {
		st.Caps["recvmmsg"], st.Caps["gro"] = rcv.RecvBatched(), rcv.GRO()
		rcv.Close()
	}
	return st
}

// WriteReports writes a report file, creating its directory.
func WriteReports(path string, reports []*Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(ReportFile{Reports: reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadReports loads a report file.
func ReadReports(path string) ([]*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ReportFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Reports) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return f.Reports, nil
}

// Print writes every metric by name with its unit.
func (r *Report) Print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  window %.1fs  [%s]\n", r.Workload, r.Seed, mode, r.Seconds, r.Stamp.Transport)
	if r.NotForClaims {
		fmt.Fprintln(w, "   NOT FOR CLAIMS: shortened window or truncated geometry")
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	row := func(name string, m Metric) {
		extra := m.Note
		if m.Samples > 0 {
			extra = strings.TrimSpace(fmt.Sprintf("n=%d %s", m.Samples, m.Note))
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", name, m.Value, m.Unit, extra)
	}
	fmt.Fprintln(tw, "  end-to-end\t\t\t")
	for _, d := range EndToEnd {
		if m, ok := r.EndToEnd[d.Name]; ok {
			row(d.Name, m)
		}
	}
	fmt.Fprintln(tw, "  per-layer\t\t\t")
	for _, d := range PerLayer {
		if m, ok := r.PerLayer[d.Name]; ok {
			row(d.Name, m)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "  sessions attempted %d, failed %d; outputs correct: %v\n", r.Attempted, r.Failed, r.Correct)
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// DriverLine is the last line of standard output under the driver's
// contract: the gated end-to-end metrics of an untraced run, the gated
// per-layer metrics of a traced one. The contract wants every listed
// metric on every run, so a per-layer metric that does not apply to the
// workload reads 0 here (and only here — reports leave it out).
func (r *Report) DriverLine() ([]byte, error) {
	metrics := map[string]Metric{}
	if r.Traced {
		for _, d := range GatedPerLayer() {
			m, ok := r.PerLayer[d.Name]
			if !ok {
				m = Metric{Unit: d.Unit}
			}
			metrics[d.Name] = Metric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		// A gated workload prints exactly the gated set; sim_figures, which
		// the driver never runs, prints what it has.
		w, _ := WorkloadByName(r.Workload)
		for _, d := range EndToEnd {
			if w.Live != nil && (d.AbsBound || d.Ungated) {
				continue
			}
			m, ok := r.EndToEnd[d.Name]
			if ok {
				metrics[d.Name] = Metric{Value: m.Value, Unit: m.Unit}
			} else if d.Applies.On(r.Workload) {
				return nil, fmt.Errorf("harness: %s produced no %s", r.Workload, d.Name)
			}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Lint checks reports against a BENCHMARK.json: every metric the
// benchmark names is present with its unit on each workload it applies
// to, nothing is NaN or Inf, and names and counts are within the
// contract's limits. It returns one line per problem.
func Lint(manifest []byte, reports []*Report) []string {
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	var bad []string
	if err := json.Unmarshal(manifest, &doc); err != nil {
		return []string{"BENCHMARK.json: " + err.Error()}
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		bad = append(bad, fmt.Sprintf("BENCHMARK.json: %d workloads, want 2..8", n))
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		bad = append(bad, fmt.Sprintf("BENCHMARK.json: %d end-to-end metrics, want 1..16", n))
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		bad = append(bad, fmt.Sprintf("BENCHMARK.json: %d per-layer metrics, want 1..128", n))
	}
	for _, r := range reports {
		at := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		for kind, got := range map[string]map[string]Metric{"end-to-end": r.EndToEnd, "per-layer": r.PerLayer} {
			for name, m := range got {
				if !nameRE.MatchString(name) {
					bad = append(bad, fmt.Sprintf("%s: %s metric name %q is outside [A-Za-z0-9_.-]", at, kind, name))
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					bad = append(bad, fmt.Sprintf("%s: %s is %v", at, name, m.Value))
				}
			}
		}
		want := func(name, unit string, got map[string]Metric) {
			d, known := FindMetric(name)
			if !known {
				bad = append(bad, fmt.Sprintf("BENCHMARK.json names %s, which the harness does not define", name))
				return
			}
			if !d.Applies.On(r.Workload) || (d.Traced && !r.Traced) {
				return
			}
			m, ok := got[name]
			switch {
			case !ok && d.Optional:
			case !ok:
				bad = append(bad, fmt.Sprintf("%s: %s is missing", at, name))
			case m.Unit != unit:
				bad = append(bad, fmt.Sprintf("%s: %s has unit %q, want %q", at, name, m.Unit, unit))
			}
		}
		for _, e := range doc.EndToEnd {
			want(e.Name, e.Unit, r.EndToEnd)
		}
		for _, l := range doc.PerLayer {
			want(l.Name, l.Unit, r.PerLayer)
		}
	}
	return bad
}

// Verdicts of Compare.
const (
	Agree      = "agree"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// CompareRow is one workload × end-to-end metric.
type CompareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	SpreadA, SpreadB float64 // (q3 − q1) ÷ median; absolute q3 − q1 for AbsBound metrics
	Runs             [2]int
	Bound            float64
	Verdict          string
}

// Compare sets b against baseline a, one row per workload × end-to-end
// metric present on both sides: `worse` when b's median is worse than a's
// by more than the metric's bound, `unresolved` when either side's own
// spread is wider than the bound, `agree` otherwise.
func Compare(a, b []*Report) []CompareRow {
	group := func(rs []*Report) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Traced {
				continue // end-to-end metrics come from untraced runs
			}
			if g[r.Workload] == nil {
				g[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.EndToEnd {
				g[r.Workload][name] = append(g[r.Workload][name], m.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var rows []CompareRow
	for _, w := range Workloads {
		for _, d := range EndToEnd {
			va, vb := ga[w.Name][d.Name], gb[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := CompareRow{Workload: w.Name, Metric: d.Name, A: Median(va), B: Median(vb),
				Runs: [2]int{len(va), len(vb)}, Bound: d.Bound, Verdict: Agree}
			worse := row.B - row.A
			if d.Better == "higher" {
				worse = -worse
			}
			if d.AbsBound {
				q1, q3 := Quartiles(va)
				row.SpreadA = q3 - q1
				q1, q3 = Quartiles(vb)
				row.SpreadB = q3 - q1
			} else {
				row.SpreadA, row.SpreadB = Spread(va), Spread(vb)
				worse /= math.Abs(row.A)
			}
			switch {
			case row.SpreadA > d.Bound || row.SpreadB > d.Bound:
				row.Verdict = Unresolved
			case worse > d.Bound:
				row.Verdict = Worse
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintCompare writes the table and reports whether any row is worse (or
// failed_share rose at all).
func PrintCompare(w io.Writer, rows []CompareRow) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median)\tb (median)\tspread a\tspread b\truns\tbound\tverdict")
	for _, r := range rows {
		verdict := r.Verdict
		if r.Metric == "failed_share" && r.B > r.A && verdict == Agree {
			verdict = Worse + " (failed_share rose)"
		}
		if strings.HasPrefix(verdict, Worse) {
			regressed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%d/%d\t%.3f\t%s\n",
			r.Workload, r.Metric, r.A, r.B, r.SpreadA, r.SpreadB, r.Runs[0], r.Runs[1], r.Bound, verdict)
	}
	tw.Flush()
	return regressed
}

// CheckRepeats holds repeated runs of one workload and seed to what must
// repeat exactly: the fault injector's counts. A mismatch marks every run
// of the set incorrect.
func CheckRepeats(reports []*Report) {
	if len(reports) < 2 {
		return
	}
	for _, name := range []string{"faults.dropped", "faults.burst_dropped", "faults.duplicated", "faults.reordered"} {
		first, ok := reports[0].PerLayer[name]
		if !ok {
			continue
		}
		same := true
		for _, r := range reports[1:] {
			if r.Seed == reports[0].Seed && r.Seconds == reports[0].Seconds && r.PerLayer[name].Value != first.Value {
				same = false
			}
		}
		for _, r := range reports {
			r.check(name+"_repeats", same, "the injector's counts over one window are a function of the seed alone")
		}
	}
}

// PrintGlossary writes the metric tables as markdown (README.md embeds
// the output).
func PrintGlossary(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit | better | bound | applies | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, d := range EndToEnd {
		bound := fmt.Sprintf("%g %%", d.Bound*100)
		if d.AbsBound {
			bound = fmt.Sprintf("+%g absolute", d.Bound)
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, bound, d.Applies, d.Def)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | unit | better | applies | run | should move | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, d := range PerLayer {
		run := "both"
		if d.Traced {
			run = "traced"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Applies, run, d.Moves, d.Def)
	}
}
