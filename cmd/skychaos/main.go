// Command skychaos runs an in-process chaos sweep against the live
// broadcast stack: for each configured loss rate it starts a server with a
// deterministic fault plan, watches one full video through the recovering
// client, and tabulates the injected faults against the recovery
// statistics — the jitter-free guarantee, demonstrated under loss.
//
// Usage:
//
//	skychaos -M 1 -K 5 -W 2 -unit 80ms -seed 1 -drops 0.01,0.03,0.05
//	skychaos -no-repair -drops 0.25     # graceful degradation instead
//	skychaos -overload -multipliers 1,2,3 -out BENCH_overload.json
//	skychaos -scale -viewers 1000,10000,100000 -procs 2 -out BENCH_scale.json
//
// The -overload mode sweeps repair demand against a fixed admission
// budget: the server's token bucket is provisioned for one session's
// expected repair bandwidth, then 1x, 2x, 3x... concurrent degradable
// clients offer multiples of it. The resulting delivered/degraded curves
// and the server's NACK ledger (written as JSON) show the overload-safe
// repair plane holding its budget while every session still terminates.
//
// The -scale mode records the audience capacity curve: one in-process
// server, then for each viewer count it re-execs itself as -emulate
// child processes whose virtual-viewer multiplexers (internal/viewer)
// hold the audience between them over real loopback sockets. Each row
// tabulates viewers vs start-latency quantiles, NACK load, degraded
// sessions, and the server's own CPU — the paper's claim that
// server cost is independent of the audience, measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/core"
	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/server"
	"skyscraper/internal/trace"
	"skyscraper/internal/unicast"
	"skyscraper/internal/vod"
)

func main() {
	var (
		videos   = flag.Int("M", 1, "number of videos to broadcast")
		channels = flag.Int("K", 5, "channels per video")
		width    = flag.Int64("W", 2, "skyscraper width")
		unit     = flag.Duration("unit", 80*time.Millisecond, "wall-clock duration of one D1 unit")
		seed     = flag.Uint64("seed", 1, "fault plan seed (same seed, same injured chunks)")
		drops    = flag.String("drops", "0.01,0.03,0.05", "comma-separated chunk drop rates to sweep")
		dup      = flag.Float64("dup", 0.02, "chunk duplication rate")
		reorder  = flag.Float64("reorder", 0.02, "chunk reorder rate")
		delay    = flag.Float64("delay", 0, "chunk delay rate")
		maxDelay = flag.Duration("max-delay", 5*time.Millisecond, "delay upper bound when -delay > 0")
		fecGroup = flag.Int("fec-group", 0,
			"proactive parity stripe group size G: one parity frame per G data chunks (0 = off)")
		faultBurst = flag.String("fault-burst", "",
			"Gilbert–Elliott burst loss as enter,exit,drop (e.g. 0.05,0.35,1); empty disables")
		noRepair = flag.Bool("no-repair", false, "disable the repair path; losses degrade the session instead")
		verbose  = flag.Bool("v", false, "log protocol details")
		overload = flag.Bool("overload", false,
			"run the overload sweep: fixed repair budget vs multiples of expected demand")
		multipliers = flag.String("multipliers", "1,2,3", "demand multipliers (concurrent clients) for -overload")
		out         = flag.String("out", "BENCH_overload.json", "JSON output path for -overload/-scale")
		scale       = flag.Bool("scale", false,
			"run the audience capacity sweep: emulator processes of virtual viewers vs one server")
		emulateMode = flag.Bool("emulate", false,
			"child mode for -scale: run one virtual-viewer mux against -server, print its Result JSON")
		serverAddr = flag.String("server", "", "server control address for -emulate")
		viewers    = flag.String("viewers", "1000,10000,100000",
			"comma-separated audience sizes for -scale (single count for -emulate)")
		procs     = flag.Int("procs", 2, "emulator processes per -scale point")
		spread    = flag.Float64("spread", 4, "admission spread in D1 units for the virtual audience")
		faultDrop = flag.Float64("fault-drop", 0.02,
			"drop rate for the faulted contrast sweep in -scale (0 disables it)")
		faultViewers = flag.String("fault-viewers", "500,2000,8000",
			"comma-separated audience sizes for the faulted -scale sweep")
		assertCohort = flag.Bool("assert-cohort-repair", false,
			"fail -scale unless every faulted sweep ends undegraded with NACKs under half the per-viewer recovery baseline")
		egressCaps = flag.Bool("egress-caps", false,
			"probe this kernel's egress and ingress fast paths (sendmmsg, UDP GSO, recvmmsg, UDP GRO), print one capability line, and exit")
	)
	flag.Parse()
	burst, err := parseBurst(*faultBurst)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skychaos:", err)
		os.Exit(2)
	}
	if *egressCaps {
		if err := printEgressCaps(); err != nil {
			fmt.Fprintln(os.Stderr, "skychaos:", err)
			os.Exit(1)
		}
		return
	}
	if *emulateMode {
		n, err := strconv.Atoi(strings.TrimSpace(*viewers))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "skychaos: -emulate needs a single -viewers count, got %q\n", *viewers)
			os.Exit(2)
		}
		if err := emulate(*serverAddr, n, *videos, *spread, *seed, *noRepair, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "skychaos:", err)
			os.Exit(1)
		}
		return
	}
	if *scale {
		rate := 0.0
		if rs, err := parseRates(*drops); err == nil && len(rs) == 1 {
			rate = rs[0]
		}
		scaleOut := *out
		if scaleOut == "BENCH_overload.json" {
			scaleOut = "BENCH_scale.json"
		}
		counts, err := parseCounts(*viewers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skychaos:", err)
			os.Exit(2)
		}
		// The base sweep measures pure fan-out cost at -drops (lossless by
		// default); the faulted contrast sweep puts the cohort repair
		// plane under correlated loss on its own server.
		sweeps := []sweepSpec{{drop: rate, counts: counts}}
		if *faultDrop > 0 {
			fcounts, err := parseCounts(*faultViewers)
			if err != nil {
				fmt.Fprintln(os.Stderr, "skychaos:", err)
				os.Exit(2)
			}
			sweeps = append(sweeps, sweepSpec{drop: *faultDrop, counts: fcounts})
		}
		if err := scaleSweep(*videos, *channels, *width, *unit, *seed, sweeps,
			*procs, *spread, *fecGroup, burst,
			*noRepair, *verbose, *assertCohort, scaleOut); err != nil {
			fmt.Fprintln(os.Stderr, "skychaos:", err)
			os.Exit(1)
		}
		return
	}
	if *overload {
		rate := 0.05
		if rs, err := parseRates(*drops); err == nil && len(rs) == 1 {
			rate = rs[0]
		}
		if err := overloadSweep(*videos, *channels, *width, *unit, rate, *seed, *multipliers, *out); err != nil {
			fmt.Fprintln(os.Stderr, "skychaos:", err)
			os.Exit(1)
		}
		return
	}
	rates, err := parseRates(*drops)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skychaos:", err)
		os.Exit(2)
	}
	failed := false
	fmt.Printf("%-6s %9s %9s %9s %9s %9s %8s %6s %6s %9s %s\n",
		"drop", "injected", "fec-heals", "nacks", "mc-heals", "dups", "defeats", "lost", "late", "bytes", "verdict")
	for _, rate := range rates {
		if err := sweep(*videos, *channels, *width, *unit, rate, *dup, *reorder, *delay, *maxDelay,
			*seed, *fecGroup, burst, *noRepair, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "skychaos: drop %v: %v\n", rate, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// burstSpec is a parsed -fault-burst triple: the Gilbert–Elliott chain's
// good→bad entry probability, bad→good exit probability, and the drop
// rate while the chain is bad.
type burstSpec struct {
	set               bool
	enter, exit, drop float64
}

// parseBurst parses "enter,exit,drop"; the empty string disables burst
// loss.
func parseBurst(s string) (burstSpec, error) {
	if strings.TrimSpace(s) == "" {
		return burstSpec{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return burstSpec{}, fmt.Errorf("bad -fault-burst %q: want enter,exit,drop", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return burstSpec{}, fmt.Errorf("bad -fault-burst %q: %v", s, err)
		}
		vals[i] = v
	}
	return burstSpec{set: true, enter: vals[0], exit: vals[1], drop: vals[2]}, nil
}

// applyBurst folds a -fault-burst spec into a fault plan. The injector
// maps frame offsets to chunk positions through ChunkBytes, so the plan
// must carry the chunk geometry the server broadcasts with.
func (b burstSpec) applyBurst(p *faults.Plan, chunkBytes int) {
	if !b.set {
		return
	}
	p.BurstEnter, p.BurstExit, p.BurstDrop = b.enter, b.exit, b.drop
	p.ChunkBytes = chunkBytes
}

// parseRates splits "0.01,0.03" into probabilities.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad drop rate %q: %v", f, err)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no drop rates in %q", s)
	}
	return rates, nil
}

// sweep runs one (server, client) pair at one drop rate and prints a table
// row. A failed session dumps the recovery trace before returning the
// error.
func sweep(videos, channels int, width int64, unit time.Duration,
	drop, dup, reorder, delay float64, maxDelay time.Duration,
	seed uint64, fecGroup int, burst burstSpec,
	noRepair, verbose bool) error {
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
	tb := trace.New(1024)
	plan := &faults.Plan{
		Seed: seed, Drop: drop, Duplicate: dup, Reorder: reorder,
		Delay: delay, MaxDelay: maxDelay, Trace: tb,
	}
	burst.applyBurst(plan, 1024)
	srv, err := server.New(server.Config{
		Scheme:       sch,
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		FecGroup:     fecGroup,
		Faults:       plan,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()

	ccfg := client.Config{
		ServerAddr:    srv.Addr(),
		Video:         0,
		JoinLeadFrac:  0.9,
		SlackFrac:     1.0,
		RepairLagFrac: 0.3,
		DisableRepair: noRepair,
		AllowDegraded: noRepair,
		Trace:         tb,
	}
	if verbose {
		ccfg.Logf = log.Printf
	}
	stats, err := client.Watch(ccfg)
	injected := srv.Injector().Counts()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skychaos: recovery trace for drop %v:\n", drop)
		_, _ = tb.WriteTo(os.Stderr)
		return err
	}
	verdict := "recovered"
	if noRepair {
		verdict = "degraded"
	}
	fmt.Printf("%-6v %9d %9d %9d %9d %9d %8d %6d %6d %9d %s\n",
		drop, injected.Dropped+injected.BurstDropped, stats.FecHeals, stats.NacksSent,
		stats.MulticastRepairs, stats.DuplicateChunks, stats.StripeDefeats,
		stats.LostChunks, stats.LateChunks, stats.Bytes, verdict)
	st := srv.Status()
	if fecGroup > 0 {
		fmt.Printf("       parity stripe: G=%d, %d parity frames (%d bytes) broadcast; "+
			"%d heals with zero control round trips, %d stripe defeats escalated\n",
			fecGroup, st.ParityFrames, st.ParityBytes,
			stats.FecHeals, stats.StripeDefeats)
	}

	// The data-path ledger: what the hub actually put on the wire, and how
	// many of the frames materialised for it found their payload CRC
	// cached rather than hashing the payload again.
	cs := st.FrameCache
	hitPct := 0.0
	if built := cs.Hits + cs.Misses; built > 0 {
		hitPct = 100 * float64(cs.Hits) / float64(built)
	}
	fmt.Printf("       data path: %d datagrams (%d bytes) sent, %d send failures; "+
		"%d frames materialised, %d with a cached CRC (%.1f%%), %d bytes of CRC words held\n",
		st.DatagramsSent, st.DatagramBytes, st.SendFailures,
		cs.Hits+cs.Misses, cs.Hits, hitPct, cs.Bytes)

	// The egress ledger: how the wheel turned those datagrams into
	// wakeups and kernel sends, and how many left as kernel-split
	// super-frames.
	perSyscall := 0.0
	if st.EgressSyscalls > 0 {
		perSyscall = float64(st.DatagramsSent) / float64(st.EgressSyscalls)
	}
	fmt.Printf("       egress: %d shards, %d wakeups, %d batches, "+
		"%d syscalls (%.1f datagrams/syscall, vectorized=%v)\n",
		st.EgressShards, st.EgressWakeups,
		st.EgressBatches, st.EgressSyscalls, perSyscall, st.Vectorized)
	fmt.Printf("       superframes: gso=%v, %d superframes carrying %d segments "+
		"(%.1f segments/superframe, %d fallbacks)\n",
		st.GSO, st.Superframes, st.GSOSegments, st.SegmentsPerSuperframe, st.GSOFallbacks)

	// Put the repair traffic in the paper's terms: the unicast burden of
	// recovering this loss rate, versus one dedicated stream per viewer.
	chunksPerVideo := int(sch.TotalUnits()) * 4096 / 1024
	if load, err := unicast.RepairLoad(drop, chunksPerVideo); err == nil {
		fmt.Printf("       repair load: %.1f requests/session expected, "+
			"%.1f%% of a dedicated unicast stream (user-centered baseline: 100%%)\n",
			load.RequestsPerSession, 100*load.StreamFrac)
	}
	return nil
}

// printEgressCaps probes the kernel's egress and ingress fast paths the
// same way the hub and shared receiver do at creation — sendmmsg
// availability, the UDP_SEGMENT setsockopt trial, plus the recvmmsg trial
// and the UDP_GRO setsockopt on the receive side — and prints one
// machine-readable line.
// scripts/benchmeta.sh stamps it into every BENCH_*.json so numbers from
// different kernels are never compared silently.
func printEgressCaps() error {
	h, err := mcast.NewHub()
	if err != nil {
		return err
	}
	defer h.Close()
	recvmmsg, gro := false, false
	if rcv, err := mcast.NewSharedReceiver(0, func([]byte) (mcast.Group, bool) {
		return mcast.Group{}, false
	}); err == nil {
		recvmmsg, gro = rcv.RecvBatched(), rcv.GRO()
		rcv.Close()
	}
	fmt.Printf("vectorized=%v gso=%v recvmmsg=%v gro=%v\n",
		h.Vectorized(), h.GSO(), recvmmsg, gro)
	return nil
}

// overloadRow is one point on the budget-vs-demand curve.
type overloadRow struct {
	Multiplier        int     `json:"multiplier"`
	Clients           int     `json:"clients"`
	BudgetBytesPerSec float64 `json:"budget_bytes_per_sec"`
	ElapsedSec        float64 `json:"elapsed_sec"`
	BytesDelivered    int64   `json:"bytes_delivered"`
	// MulticastRepairs counts the clients' chunks healed by a re-send.
	MulticastRepairs int64 `json:"multicast_repairs"`
	LostChunks       int64 `json:"lost_chunks"`
	DegradedSessions int   `json:"degraded_sessions"`
	// NacksServed, NackResends and NackSuppressed are the server's NACK
	// ledger: gap bitmaps answered, chunks multicast again (each spending
	// the budget), and NACKed chunks absorbed by a re-send already in
	// flight.
	NacksServed    int64 `json:"nacks_served"`
	NackResends    int64 `json:"nack_resends"`
	NackSuppressed int64 `json:"nack_suppressed"`
}

// overloadReport is the BENCH_overload.json document.
type overloadReport struct {
	Videos    int           `json:"videos"`
	Channels  int           `json:"channels"`
	Width     int64         `json:"width"`
	UnitNanos int64         `json:"unit_nanos"`
	DropRate  float64       `json:"drop_rate"`
	Seed      uint64        `json:"seed"`
	Rows      []overloadRow `json:"rows"`
}

// overloadSweep provisions the server's repair token bucket for ONE
// session's expected repair bandwidth (plus 20% slack), then offers it
// multiples of that demand as concurrent degradable clients. Within
// budget every loss is re-sent; beyond it the bucket refuses re-sends,
// the clients re-listen and ask again in a later round, and the surplus
// degrades gracefully instead of extracting unbounded repair bytes.
func overloadSweep(videos, channels int, width int64, unit time.Duration,
	drop float64, seed uint64, multipliers, out string) error {
	var ms []int
	for _, f := range strings.Split(multipliers, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		m, err := strconv.Atoi(f)
		if err != nil || m <= 0 {
			return fmt.Errorf("bad multiplier %q", f)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return fmt.Errorf("no multipliers in %q", multipliers)
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
	// Expected repair demand of one session, in the token bucket's own
	// currency: lost chunks * chunk bytes over the session's wall time.
	chunksPerVideo := int(sch.TotalUnits()) * 4096 / 1024
	playbackSec := float64(sch.TotalUnits()) * unit.Seconds()
	perSession, err := unicast.RepairBandwidthBytes(drop, chunksPerVideo, 1024, playbackSec, 1)
	if err != nil {
		return err
	}
	budget := 1.2 * perSession

	report := overloadReport{
		Videos: videos, Channels: channels, Width: width,
		UnitNanos: int64(unit), DropRate: drop, Seed: seed,
	}
	fmt.Printf("%-6s %8s %12s %10s %9s %6s %9s %6s %8s %9s\n",
		"mult", "clients", "budget(B/s)", "delivered", "mc-heals", "lost", "degraded",
		"nacks", "resends", "absorbed")
	for _, m := range ms {
		row, err := overloadPoint(sch, unit, drop, seed, budget, m)
		if err != nil {
			return fmt.Errorf("multiplier %d: %w", m, err)
		}
		fmt.Printf("%-6d %8d %12.0f %10d %9d %6d %9d %6d %8d %9d\n",
			row.Multiplier, row.Clients, row.BudgetBytesPerSec, row.BytesDelivered,
			row.MulticastRepairs, row.LostChunks, row.DegradedSessions,
			row.NacksServed, row.NackResends, row.NackSuppressed)
		report.Rows = append(report.Rows, *row)
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

// overloadPoint runs one server with the fixed budget against m
// concurrent clients and tallies the curve point. The burst is sized to
// one session's expected total repair bytes: a single in-budget client
// rides the burst through its correlated loss spikes, while surplus
// demand drains the bucket and meets refusals. Client i starts i·W units
// after the first, on its own repetitions: no re-send heals two clients.
func overloadPoint(sch *core.Scheme, unit time.Duration, drop float64,
	seed uint64, budget float64, m int) (*overloadRow, error) {
	chunksPerVideo := int(sch.TotalUnits()) * 4096 / 1024
	burst := int64(drop*float64(chunksPerVideo)*1024) + 1024
	srv, err := server.New(server.Config{
		Scheme:           sch,
		Unit:             unit,
		BytesPerUnit:     4096,
		ChunkBytes:       1024,
		RepairBandwidth:  int64(budget),
		RepairBurstBytes: burst,
		Faults:           &faults.Plan{Seed: seed, Drop: drop},
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()

	row := &overloadRow{Multiplier: m, Clients: m, BudgetBytesPerSec: budget}
	start := time.Now()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(int64(i)*sch.Width()) * unit)
			// One unit of slack leaves no chunk room for an aggregation
			// window, so every loss NACKs on its own at its gap checkpoint
			// and each re-send spends the budget. At two units windows
			// gather the losses, a few re-sends heal them and the budget
			// never binds.
			stats, err := client.Watch(client.Config{
				ServerAddr:    srv.Addr(),
				Video:         0,
				JoinLeadFrac:  0.9,
				SlackFrac:     1.0,
				RepairLagFrac: 0.3,
				AllowDegraded: true,
				Seed:          seed<<8 + uint64(i) + 1,
			})
			errs[i] = err
			if stats == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			row.BytesDelivered += stats.Bytes
			row.MulticastRepairs += stats.MulticastRepairs
			row.LostChunks += stats.LostChunks
			if stats.LostChunks > 0 {
				row.DegradedSessions++
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	row.ElapsedSec = time.Since(start).Seconds()
	st := srv.Status()
	row.NacksServed = st.NacksServed
	row.NackResends = st.NackResends
	row.NackSuppressed = st.NackSuppressed
	return row, nil
}
