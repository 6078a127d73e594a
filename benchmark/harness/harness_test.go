package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"skyscraper/internal/des"
	"skyscraper/internal/mcast"
	"skyscraper/internal/server"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
	}{
		{n: 5, want: 0.99, p: 0.5},     // nothing beyond the median is supported
		{n: 40, want: 0.99, p: 0.75},   // 10 of 40 lie beyond p75
		{n: 100, want: 0.99, p: 0.90},  // 10 of 100 beyond p90
		{n: 199, want: 0.99, p: 0.90},  // 9.95 beyond p95: not enough
		{n: 200, want: 0.99, p: 0.95},  // exactly 10 beyond p95
		{n: 1000, want: 0.99, p: 0.99}, // exactly 10 beyond p99
		{n: 1000, want: 0.95, p: 0.95}, // never above what was asked for
		{n: 20000, want: 0.999, p: 0.999},
	} {
		if got := TailPercentile(c.n, c.want); got != c.p {
			t.Errorf("TailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.p)
		}
	}
	s := Sorted([]float64{5, 1, 4, 2, 3})
	if got := Quantile(s, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := Quantile(s, 0.99); got != 5 {
		t.Errorf("p99 of 1..5 = %v", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the benchmark driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 14, 13, 19, 18, 17, 16}
	q1, q3 := Quartiles(v) // statistics.quantiles(range(10, 20), n=4) == [11.75, 14.5, 17.25]
	if q1 != 11.75 || q3 != 17.25 {
		t.Errorf("Quartiles = %v, %v; Python gives 11.75, 17.25", q1, q3)
	}
	if got, want := Spread(v), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: the union 10..60 is covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	rec := NewRecorder("test")
	root := rec.Start("a", "t", 0)
	rec.End(rec.Start("b", "t", root))
	rec.End(root)
	if got := Rebase(rec.Spans(), 10); got[1].ID != 12 || got[1].Parent != 11 || got[0].Parent != 0 {
		t.Errorf("Rebase = %+v", got)
	}
	var none *Recorder
	none.End(none.Start("x", "t", 0)) // the untraced run: no-ops
	if none.Spans() != nil {
		t.Error("nil recorder recorded spans")
	}
}

// A pause voids the wave it overlaps, however little, and no other.
func TestPauseWatchLongest(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w := &PauseWatch{pauses: []pause{{from: at(1000), d: 300 * time.Millisecond}, {from: at(5000), d: 50 * time.Millisecond}}}
	for _, c := range []struct {
		from, to int
		want     time.Duration
	}{
		{0, 999, 0},
		{0, 1001, 300 * time.Millisecond},    // begins inside the wave
		{1299, 2000, 300 * time.Millisecond}, // ends inside it
		{1300, 4999, 0},
		{0, 6000, 300 * time.Millisecond},
		{4000, 6000, 50 * time.Millisecond},
	} {
		if got := w.Longest(at(c.from), at(c.to)); got != c.want {
			t.Errorf("Longest(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if (*PauseWatch)(nil).Longest(at(0), at(6000)) != 0 {
		t.Error("a nil watch saw a pause")
	}
}

// The plan — generated configs and the probe's schedule — is a pure
// function of (workload, seed, seconds).
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range GatedWorkloads() {
		a, err := PlanLive(*w.Live, 7, RunSeconds)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := PlanLive(*w.Live, 7, RunSeconds)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", w.Name)
		}
		c, _ := PlanLive(*w.Live, 8, RunSeconds)
		if reflect.DeepEqual(a.Sessions, c.Sessions) || reflect.DeepEqual(a.WaveSeeds, c.WaveSeeds) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.Name)
		}
		if a.Truncated || a.Spec.Channels != w.Live.Channels {
			t.Errorf("%s: run_seconds does not hold one full wave (K cut to %d)", w.Name, a.Spec.Channels)
		}
		if secs := a.WindowSeconds(); secs > RunSeconds || secs < 2*RunSeconds/3 {
			t.Errorf("%s: window of %.1fs for a %ds run", w.Name, secs, RunSeconds)
		}
		if (w.Live.Faults != nil) != (a.FaultSeed != 0) || a.FaultSeed == 7 {
			t.Errorf("%s: fault seed %d", w.Name, a.FaultSeed)
		}
		if len(a.Sessions) != a.Waves() || len(a.Hops) != a.Waves() {
			t.Fatalf("%s: %d waves, %d session schedules, %d rover schedules", w.Name, a.Waves(), len(a.Sessions), len(a.Hops))
		}
		for wave, sessions := range a.Sessions {
			for i, s := range sessions {
				if s.DueUnits < float64(a.StartUnit) || s.DueUnits > float64(a.EndUnit-5) || s.Video < 0 || s.Video >= w.Live.Videos {
					t.Fatalf("%s: session %d of wave %d = %+v outside the window", w.Name, i, wave, s)
				}
			}
		}
	}
	short, err := PlanLive(*Workloads[0].Live, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !short.Truncated || short.Spec.Unit != Workloads[0].Live.Unit || short.Spec.BytesPerUnit != Workloads[0].Live.BytesPerUnit {
		t.Errorf("a 3 s window must cut channels and nothing else: %+v", short.Spec)
	}
}

// A fault plan that silences some video's fragment 1 in every repetition
// is passed over (seed 2008's first one does); the others are kept.
func TestFaultSeedLeavesFragment1Audible(t *testing.T) {
	w, _ := WorkloadByName(LossyRepair)
	for _, seed := range []uint64{1, 2, 2008} {
		root := des.SubSeed(seed, seedFaults)
		first, err := audible(*w.Live, root)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := faultSeed(*w.Live, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := audible(*w.Live, fs); !ok {
			t.Errorf("seed %d: the plan chosen silences a fragment 1", seed)
		}
		if first == (seed == 2008) || (fs == root) != first {
			t.Errorf("seed %d: first plan audible = %v, chosen seed %d (first %d)", seed, first, fs, root)
		}
	}
}

// The grid arithmetic is checked against a live server: every datagram a
// 1-video/3-channel broadcast emits for a second must verify and arrive
// at (never before) the instant the Welcome banner implies.
func TestGridInstantAgainstLiveServer(t *testing.T) {
	sch, err := Scheme(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheme: sch, Unit: 40 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := DialControl(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	w, _, err := ctl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGrid(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := grid.Epoch.Sub(srv.Epoch()).Abs(); got > time.Millisecond {
		t.Fatalf("grid epoch is %v off the server's", got)
	}
	if grid.Chunks(3) != 8 || grid.Spacing() != 10*time.Millisecond {
		t.Fatalf("geometry: %d chunks on channel 3, spacing %v", grid.Chunks(3), grid.Spacing())
	}
	rcv, err := mcast.NewReceiverSized(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	for ch := 1; ch <= 3; ch++ {
		if _, err := ctl.Join(0, ch, rcv.Addr().Port); err != nil {
			t.Fatal(err)
		}
	}
	p := NewProbe(srv.Addr(), grid, nil, false)
	buf := make([]byte, maxFrame)
	_ = rcv.Conn.SetReadDeadline(time.Now().Add(time.Second))
	seen := map[int]int{}
	for {
		n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			break // the deadline: one second of broadcast
		}
		d, ok := p.check(buf[:n], time.Now(), 1, "")
		if !ok {
			t.Fatal("a datagram failed CRC or content verification")
		}
		// On the grid: not before its instant, and well inside its own
		// chunk slot unless the test machine stalled.
		if d.late < -time.Millisecond || d.late > 200*time.Millisecond {
			t.Fatalf("channel %d seq %d chunk %d arrived %v from its grid instant", d.channel, d.pos.seq, d.pos.idx, d.late)
		}
		seen[d.channel]++
	}
	for ch := 1; ch <= 3; ch++ {
		if seen[ch] < 50 {
			t.Errorf("channel %d delivered %d datagrams in a second, want ~100", ch, seen[ch])
		}
	}
}

func TestManifestMeetsTheContract(t *testing.T) {
	want, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `skybench -manifest`")
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	use := func(n, u, better string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range doc.Workloads {
		use(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, e := range doc.EndToEnd {
		use(e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, l := range doc.PerLayer {
		use(l.Name, l.Unit, l.Better)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(want) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", doc.RunSeconds, len(want))
	}
}

// fullReport is a dense_tick report carrying every metric that applies.
func fullReport(traced bool) *Report {
	r := newReport(DenseTick, 1, RunSeconds, traced)
	for _, tab := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range tab {
			if d.Applies.On(DenseTick) && (traced || !d.Traced) {
				r.set(d.Name, 1.5, 0, "")
			}
		}
	}
	return r
}

func TestLintRejectsAMissingMetric(t *testing.T) {
	man, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		r := fullReport(traced)
		if bad := Lint(man, []*Report{r}); len(bad) != 0 {
			t.Fatalf("a complete report (traced=%v) does not lint clean: %v", traced, bad)
		}
	}
	r := fullReport(false)
	delete(r.EndToEnd, "deliveries_per_s")
	if bad := Lint(man, []*Report{r}); len(bad) != 1 {
		t.Errorf("missing deliveries_per_s: %v", bad)
	}
	r = fullReport(false)
	r.PerLayer["mcast.ring_drops"] = Metric{Value: 0, Unit: "datagrams"}
	r.PerLayer["server.rss_mib"] = Metric{Value: math.Inf(1), Unit: "MiB"}
	if bad := Lint(man, []*Report{r}); len(bad) != 2 {
		t.Errorf("wrong unit and Inf: %v", bad)
	}
	line, err := fullReport(false).DriverLine()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]Metric
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(GatedEndToEnd()) || out.Attempted < 1 || !out.Correct {
		t.Errorf("driver line: %s", line)
	}
	line, _ = fullReport(true).DriverLine()
	out.Metrics = nil
	if err := json.Unmarshal(line, &out); err != nil || len(out.Metrics) != len(GatedPerLayer()) {
		t.Errorf("traced driver line carries %d metrics, want %d (%v)", len(out.Metrics), len(GatedPerLayer()), err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(cpu, failed float64, jitter float64) []*Report {
		var rs []*Report
		for i := 0; i < 5; i++ {
			r := newReport(DenseTick, 1, RunSeconds, false)
			r.set("server_cpu_ns_per_datagram", cpu*(1+jitter*float64(i-2)), 0, "")
			r.set("deliveries_per_s", 50000, 0, "")
			r.set("failed_share", failed, 0, "")
			rs = append(rs, r)
		}
		return rs
	}
	verdict := func(rows []CompareRow, metric string) string {
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return "absent"
	}
	base := set(10000, 0, 0.005)
	if v := verdict(Compare(base, set(11000, 0, 0.005)), "server_cpu_ns_per_datagram"); v != Agree {
		t.Errorf("+10%% inside a 25%% bound: %s", v)
	}
	if v := verdict(Compare(base, set(13000, 0, 0.005)), "server_cpu_ns_per_datagram"); v != Worse {
		t.Errorf("+30%%: %s", v)
	}
	if v := verdict(Compare(base, set(8000, 0, 0.005)), "server_cpu_ns_per_datagram"); v != Agree {
		t.Errorf("an improvement: %s", v)
	}
	if v := verdict(Compare(base, set(10000, 0, 0.10)), "server_cpu_ns_per_datagram"); v != Unresolved {
		t.Errorf("a spread wider than the bound: %s", v)
	}
	if v := verdict(Compare(base, set(10000, 0.01, 0.005)), "failed_share"); v != Worse {
		t.Errorf("failed_share +0.01 absolute: %s", v)
	}
	var buf bytes.Buffer
	if !PrintCompare(&buf, Compare(base, set(10000, 0.001, 0.005))) {
		t.Errorf("any rise in failed_share must fail the comparison:\n%s", buf.String())
	}
	if PrintCompare(&buf, Compare(base, base)) {
		t.Error("a set does not agree with itself")
	}
}
