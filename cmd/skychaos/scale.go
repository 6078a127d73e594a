package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/des"
	"skyscraper/internal/faults"
	"skyscraper/internal/server"
	"skyscraper/internal/viewer"
	"skyscraper/internal/vod"
)

// scaleRow is one point on the audience-size capacity curve: N virtual
// viewers (split over emulator processes) against one server, with the
// per-viewer outcome sums, the admission-latency quantiles, and the
// server's own cost ledger for the window.
type scaleRow struct {
	Viewers int `json:"viewers"`
	Procs   int `json:"procs"`
	Cohorts int `json:"cohorts"`
	// PeakViewers and PeakCohorts are summed emulator-side concurrency
	// high-water marks (the mux's padded gauges).
	PeakViewers int64   `json:"peak_viewers"`
	PeakCohorts int64   `json:"peak_cohorts"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	// P50WaitUnits / P99WaitUnits are start-latency quantiles in D1
	// units, from the merged per-viewer admission-wait histograms.
	P50WaitUnits float64 `json:"p50_wait_units"`
	P99WaitUnits float64 `json:"p99_wait_units"`
	// Viewer-side outcome sums across all emulators.
	Bytes            int64 `json:"bytes"`
	LostChunks       int64 `json:"lost_chunks"`
	LateChunks       int64 `json:"late_chunks"`
	DegradedSessions int   `json:"degraded_sessions"`
	// The cohort repair plane: NACK control messages sent (one per cohort
	// aggregation window, not per viewer), windows suppressed because the
	// gap healed first, and chunks healed by multicast re-sends (summed
	// over viewers — the audience-side harvest of each re-send).
	NacksSent        int64 `json:"nacks_sent"`
	NacksSuppressed  int64 `json:"nack_suppressed"`
	MulticastRepairs int64 `json:"multicast_repairs"`
	// The proactive rung below the ladder: chunks reconstructed
	// locally from the parity stripe (summed over viewers, zero control
	// round trips each) and cohort-level stripe defeats that escalated.
	FecHeals      int64 `json:"fec_heals"`
	StripeDefeats int64 `json:"stripe_defeats"`
	// Server-side parity overhead over the window: frames and bytes the
	// stripe added to the broadcast (bounded by 1/G of the data frames).
	ServerParityFrames int64 `json:"server_parity_frames"`
	ServerParityBytes  int64 `json:"server_parity_bytes"`
	// Datagrams are the emulators' routed deliveries — one per (datagram,
	// tuned cohort fragment), not per viewer. RecvDropped is always 0: the
	// audience applies every datagram it reads.
	Datagrams   int64 `json:"datagrams"`
	RecvDropped int64 `json:"recv_dropped"`
	// The ingress ladder ledger, summed across emulators: datagrams
	// delivered through the recvmmsg rung, kernel receive invocations
	// (batched_reads/read_syscalls is the achieved ingress batching
	// factor), wire datagrams split out of UDP_GRO super-frames, declined
	// or demoted rungs, and backoff-throttled receive failures.
	BatchedReads int64 `json:"batched_reads"`
	ReadSyscalls int64 `json:"read_syscalls"`
	GroSegments  int64 `json:"gro_segments"`
	GroFallbacks int64 `json:"gro_fallbacks,omitempty"`
	ReadErrors   int64 `json:"read_errors,omitempty"`
	// Server-side deltas over the window: CPU burned by the server
	// process, datagrams put on the wire, chunks re-sent for NACKs, and
	// the control-session high-water mark (audience-independence: one
	// session per emulator process, whatever Viewers is).
	ServerCPUSec        float64 `json:"server_cpu_sec"`
	ServerDatagrams     int64   `json:"server_datagrams"`
	ServerNackResends   int64   `json:"server_nack_resends"`
	ControlSessionsPeak int64   `json:"control_sessions_peak"`
}

// sweepSpec is one capacity sweep: a drop rate and the audience sizes to
// walk through it. The lossless base sweep measures pure fan-out cost;
// a faulted sweep contrasts it with the repair plane under correlated
// loss, where the cohort NACK path must keep repair work O(cohorts).
type sweepSpec struct {
	drop   float64
	counts []int
}

// scaleSweepResult is one sweep's slice of the report.
type scaleSweepResult struct {
	DropRate float64    `json:"drop_rate"`
	Rows     []scaleRow `json:"rows"`
}

// scaleReport is the BENCH_scale.json document.
type scaleReport struct {
	Videos      int     `json:"videos"`
	Channels    int     `json:"channels"`
	Width       int64   `json:"width"`
	UnitNanos   int64   `json:"unit_nanos"`
	Seed        uint64  `json:"seed"`
	SpreadUnits float64 `json:"spread_units"`
	// FecGroup records the parity stripe the server broadcast with (0 when
	// off), and Burst the Gilbert–Elliott loss triple, so rows
	// from different repair configurations are never compared silently.
	FecGroup int                `json:"fec_group"`
	Burst    string             `json:"burst,omitempty"`
	Sweeps   []scaleSweepResult `json:"sweeps"`
}

// emulate is the child-process mode: run one virtual-viewer mux against
// the given server and print the viewer.Result as JSON on stdout. The
// parent merges the documents; a degraded run still reports before the
// non-zero exit.
func emulate(serverAddr string, viewers, videos int, spread float64, seed uint64,
	noRepair, verbose bool) error {
	cfg := viewer.MuxConfig{
		ServerAddr:   serverAddr,
		Viewers:      viewers,
		Videos:       videos,
		SpreadUnits:  spread,
		Seed:         seed,
		JoinLeadFrac: 0.9,
		// Two units of slack (matching the chaos-suite clients): the NACK
		// ladder only engages on chunks with a multicast round's worth of
		// deadline headroom, so the one-unit budget would silently disable
		// the cohort repair plane this harness is meant to measure.
		SlackFrac:     2.0,
		RepairLagFrac: 0.3,
		DisableRepair: noRepair,
	}
	if verbose {
		cfg.Logf = log.Printf
	}
	res, runErr := viewer.Run(cfg)
	if res != nil {
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
	}
	return runErr
}

// parseCounts splits "500,2000,8000" into audience sizes.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad viewer count %q", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("no viewer counts in %q", s)
	}
	return counts, nil
}

// scaleSweep is the parent mode: for each sweep (a drop rate and its
// audience sizes) it starts a fresh in-process server, then for each
// audience size N forks -emulate children (os.Executable re-exec) that
// hold N virtual viewers between them over real loopback sockets, and
// records the viewers-vs-{start latency, degradation, server CPU}
// capacity curve. Faulted sweeps additionally record the cohort repair
// plane's ledger: NACKs, suppressed windows, and multicast re-send heals.
// With assertCohort set, every faulted sweep must come back undegraded
// with sublinear NACK growth — the O(cohorts)-not-O(viewers) property,
// enforced.
func scaleSweep(videos, channels int, width int64, unit time.Duration,
	seed uint64, sweeps []sweepSpec, procs int,
	spread float64, fecGroup int, burst burstSpec,
	noRepair, verbose, assertCohort bool, out string) error {
	if procs <= 0 {
		procs = 1
	}
	cfg := vod.Config{
		ServerMbps: 1.5 * float64(videos*channels),
		Videos:     videos,
		LengthMin:  120,
		RateMbps:   1.5,
	}
	sch, err := core.New(cfg, width)
	if err != nil {
		return err
	}
	report := scaleReport{
		Videos: videos, Channels: channels, Width: width,
		UnitNanos: int64(unit), Seed: seed, SpreadUnits: spread,
		FecGroup: fecGroup,
	}
	if burst.set {
		report.Burst = fmt.Sprintf("%g,%g,%g", burst.enter, burst.exit, burst.drop)
	}
	for _, sw := range sweeps {
		res, err := runScaleSweep(sch, unit, seed, sw, procs, videos, spread, fecGroup, burst, noRepair, verbose)
		if err != nil {
			return err
		}
		report.Sweeps = append(report.Sweeps, *res)
	}
	if assertCohort {
		chunksPerViewer := int(sch.TotalUnits()) * 4096 / 1024
		if err := assertCohortRepair(&report, chunksPerViewer); err != nil {
			return err
		}
		fmt.Println("skychaos: cohort-repair assertion held on every faulted sweep")
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("skychaos: wrote %s\n", out)
	return nil
}

// runScaleSweep runs one sweep against its own server, so each drop rate
// gets a clean fault plan and cost ledger.
func runScaleSweep(sch *core.Scheme, unit time.Duration, seed uint64, sw sweepSpec,
	procs, videos int, spread float64, fecGroup int,
	burst burstSpec, noRepair, verbose bool) (*scaleSweepResult, error) {
	scfg := server.Config{
		Scheme:       sch,
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		FecGroup:     fecGroup,
	}
	if sw.drop > 0 || burst.set {
		plan := &faults.Plan{Seed: seed, Drop: sw.drop}
		burst.applyBurst(plan, 1024)
		scfg.Faults = plan
	}
	if verbose {
		scfg.Logf = log.Printf
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()

	res := &scaleSweepResult{DropRate: sw.drop}
	fmt.Printf("sweep: drop=%v\n", sw.drop)
	fmt.Printf("%-9s %5s %7s %9s %9s %9s %8s %8s %7s %8s %9s %9s %8s %9s\n",
		"viewers", "procs", "cohorts", "p50-wait", "p99-wait", "fec-heals", "defeats", "degraded",
		"nacks", "mc-heals", "datagrams", "srv-cpu-s", "srv-dgs", "sessions")
	for _, n := range sw.counts {
		row, err := scalePoint(srv, n, procs, videos, spread, seed, noRepair, verbose)
		if err != nil {
			return nil, fmt.Errorf("drop %v viewers %d: %w", sw.drop, n, err)
		}
		fmt.Printf("%-9d %5d %7d %9.3f %9.3f %9d %8d %8d %7d %8d %9d %9.2f %8d %9d\n",
			row.Viewers, row.Procs, row.Cohorts, row.P50WaitUnits, row.P99WaitUnits,
			row.FecHeals, row.StripeDefeats, row.DegradedSessions,
			row.NacksSent, row.MulticastRepairs,
			row.Datagrams, row.ServerCPUSec, row.ServerDatagrams, row.ControlSessionsPeak)
		res.Rows = append(res.Rows, *row)
	}
	// The sweep's ingress ledger: how the emulators' shared receivers
	// turned kernel receive invocations back into wire datagrams.
	var br, rs, gs, gf, re int64
	for _, row := range res.Rows {
		br += row.BatchedReads
		rs += row.ReadSyscalls
		gs += row.GroSegments
		gf += row.GroFallbacks
		re += row.ReadErrors
	}
	perRead := 0.0
	if rs > 0 {
		perRead = float64(br) / float64(rs)
	}
	fmt.Printf("       ingress: %d batched reads over %d read syscalls "+
		"(%.1f datagrams/readsyscall), %d gro segments, %d fallbacks, %d read errors\n",
		br, rs, perRead, gs, gf, re)
	return res, nil
}

// assertCohortRepair enforces the repair plane's scaling contract on
// every faulted sweep: no session may degrade, and NACK round trips must
// stay well under the per-viewer recovery baseline of drop x
// chunks/session x viewers — what O(viewers) recovery would spend (~1
// round trip per lost chunk per viewer). Half the baseline is the
// failure line: generous enough that the just-in-time chunks, which NACK
// one by one, and extra rounds on a stalled CI box pass, while a cohort
// that stopped speaking as one voice — every injured viewer NACKing its
// own chunks — lands at ~1x baseline and fails every row.
func assertCohortRepair(report *scaleReport, chunksPerViewer int) error {
	asserted := false
	for _, sw := range report.Sweeps {
		if sw.DropRate == 0 || len(sw.Rows) == 0 {
			continue
		}
		asserted = true
		for _, row := range sw.Rows {
			if row.DegradedSessions > 0 {
				return fmt.Errorf("cohort-repair assertion: drop %v, %d viewers: %d degraded sessions",
					sw.DropRate, row.Viewers, row.DegradedSessions)
			}
			baseline := sw.DropRate * float64(chunksPerViewer) * float64(row.Viewers)
			if float64(row.NacksSent) >= baseline/2 {
				return fmt.Errorf("cohort-repair assertion: drop %v, %d viewers: %d NACKs vs a per-viewer baseline of %.0f — repair work is scaling with viewers, not cohorts",
					sw.DropRate, row.Viewers, row.NacksSent, baseline)
			}
		}
	}
	if !asserted {
		return fmt.Errorf("cohort-repair assertion: no faulted sweep (drop_rate > 0) to assert on")
	}
	return nil
}

// scalePoint runs one audience size: procs emulator processes splitting n
// viewers, measured against the server's CPU and wire ledgers.
func scalePoint(srv *server.Server, n, procs, videos int,
	spread float64, seed uint64, noRepair, verbose bool) (*scaleRow, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if procs > n {
		procs = n
	}
	cpu0 := cpuSeconds()
	s0 := srv.Status()
	start := time.Now()

	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, procs)
	errs := make([]error, procs)
	per := n / procs
	for i := 0; i < procs; i++ {
		nv := per
		if i == procs-1 {
			nv = n - per*(procs-1)
		}
		args := []string{
			"-emulate",
			"-server", srv.Addr(),
			"-viewers", strconv.Itoa(nv),
			"-M", strconv.Itoa(videos),
			"-spread", strconv.FormatFloat(spread, 'g', -1, 64),
			// Each emulator holds a distinct viewer population: a derived
			// seed keeps its arrival and jitter substreams disjoint.
			"-seed", strconv.FormatUint(des.SubSeed(seed, uint64(i+1)), 10),
		}
		if noRepair {
			args = append(args, "-no-repair")
		}
		if verbose {
			args = append(args, "-v")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &outs[i]
		cmd.Stderr = os.Stderr
		wg.Add(1)
		go func(i int, cmd *exec.Cmd) {
			defer wg.Done()
			errs[i] = cmd.Run()
		}(i, cmd)
	}
	wg.Wait()

	elapsed := time.Since(start)
	cpu := cpuSeconds() - cpu0
	row := &scaleRow{Viewers: n, Procs: procs, ElapsedSec: elapsed.Seconds(), ServerCPUSec: cpu}
	var hists [][]viewer.WaitBucket
	for i := 0; i < procs; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("emulator %d: %v (output %q)", i, errs[i], outs[i].String())
		}
		var res viewer.Result
		if err := json.Unmarshal(outs[i].Bytes(), &res); err != nil {
			return nil, fmt.Errorf("emulator %d output: %v", i, err)
		}
		row.Cohorts += res.Cohorts
		row.PeakViewers += res.PeakViewers
		row.PeakCohorts += res.PeakCohorts
		row.Bytes += res.Bytes
		row.LostChunks += res.LostChunks
		row.LateChunks += res.LateChunks
		row.DegradedSessions += res.Degraded
		row.NacksSent += res.NacksSent
		row.NacksSuppressed += res.NacksSuppressed
		row.MulticastRepairs += res.MulticastRepairs
		row.FecHeals += res.FecHeals
		row.StripeDefeats += res.StripeDefeats
		row.Datagrams += res.Datagrams
		row.RecvDropped += res.RecvDropped
		row.BatchedReads += res.BatchedReads
		row.ReadSyscalls += res.ReadSyscalls
		row.GroSegments += res.GroSegments
		row.GroFallbacks += res.GroFallbacks
		row.ReadErrors += res.ReadErrors
		hists = append(hists, res.WaitHist)
	}
	merged := viewer.MergeWaitHists(hists...)
	row.P50WaitUnits = viewer.WaitQuantile(merged, int64(n), 0.50)
	row.P99WaitUnits = viewer.WaitQuantile(merged, int64(n), 0.99)
	s1 := srv.Status()
	row.ServerDatagrams = s1.DatagramsSent - s0.DatagramsSent
	row.ServerNackResends = s1.NackResends - s0.NackResends
	row.ServerParityFrames = s1.ParityFrames - s0.ParityFrames
	row.ServerParityBytes = s1.ParityBytes - s0.ParityBytes
	row.ControlSessionsPeak = s1.ControlSessionsPeak
	return row, nil
}

// cpuSeconds is this process's user+system CPU time — with the server
// in-process and the emulators forked out, it is the server's cost.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
