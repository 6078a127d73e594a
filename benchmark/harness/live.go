package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// Options are the orchestrator's knobs; none reaches the programs under
// test except through a generated config.
type Options struct {
	Trace  bool
	Root   string // repository root: where BENCHMARK.json lives
	OutDir string // where reports, spans and profiles go
	Procs  *Procs
	Pauses *PauseWatch // nil: no wave is ever voided for a pause of the host
	Logf   func(format string, args ...any)
}

// setupBoots is how many cold server boots one run times; setup_s is
// their median, so one slow exec does not move it.
const setupBoots = 9

// RoleProcs sizes the children for this host. The server gets half the
// cores. The audience gets half too, but never fewer than two: at
// GOMAXPROCS=1 a saturated viewer.Mux notices socket readiness only when
// sysmon polls (every 10 ms), every join is a synchronous round trip
// under one mutex, and a unit boundary's ~90 queued joins then stall the
// cohort loops long enough to overflow their rings — a metastable
// collapse measured on this host in about half the dense_tick runs. The
// orchestrator, which only runs the probe and the sentinel, keeps the
// runtime's default.
func RoleProcs() map[string]int {
	half := max(1, runtime.NumCPU()/2)
	return map[string]int{"orchestrator": runtime.GOMAXPROCS(0), "server": half, "audience": max(2, half)}
}

// booted is a server child that has put a verified datagram on the wire.
type booted struct {
	child   *Child
	ready   ServerReady
	welcome *wire.Welcome
	grid    *Grid
	setup   time.Duration
}

// boot spawns a server child and times spawn → first probe-verified
// on-grid datagram: hello, join fragment 1 of video 0, receive, decode,
// verify.
func boot(opt Options, cfg ServerChildConfig, procs int) (*booted, error) {
	began := time.Now()
	child, err := opt.Procs.Spawn("server", procs, cfg)
	if err != nil {
		return nil, err
	}
	b := &booted{child: child}
	fail := func(err error) (*booted, error) {
		child.Kill()
		return nil, err
	}
	if err := child.Read(&b.ready, 30*time.Second); err != nil {
		return fail(err)
	}
	ctl, err := DialControl(b.ready.Addr)
	if err != nil {
		return fail(err)
	}
	defer ctl.Close()
	if b.welcome, _, err = ctl.Hello(); err != nil {
		return fail(err)
	}
	if b.grid, err = NewGrid(b.welcome); err != nil {
		return fail(err)
	}
	rcv, err := mcast.NewReceiverSized(0)
	if err != nil {
		return fail(err)
	}
	defer rcv.Close()
	if _, err := ctl.Join(0, 1, rcv.Addr().Port); err != nil {
		return fail(err)
	}
	p := NewProbe(b.ready.Addr, b.grid, nil, false)
	buf := make([]byte, maxFrame)
	_ = rcv.Conn.SetReadDeadline(time.Now().Add(3*b.grid.Unit + time.Second))
	for {
		n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return fail(fmt.Errorf("harness: no datagram after boot: %w", err))
		}
		if d, ok := p.check(buf[:n], time.Now(), 1, ""); ok && !d.parity {
			b.setup = time.Since(began)
			return b, nil
		}
	}
}

// stop closes a server child in order and returns its last words and the
// kernel's account of the process.
func (b *booted) stop() (ServerFinal, Rusage, error) {
	var final ServerFinal
	if err := b.child.Send("stop"); err != nil {
		b.child.Kill()
		return final, Rusage{}, err
	}
	if err := b.child.Read(&final, 30*time.Second); err != nil {
		return final, Rusage{}, err
	}
	ru, err := b.child.Wait()
	return final, ru, err
}

// status is the server's /status document, read as loose JSON so a field
// the server stops publishing reads 0 here instead of breaking the build.
type status map[string]any

func fetchStatus(url string) (status, error) {
	resp, err := http.Get(url + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s status
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("harness: /status: %w", err)
	}
	return s, nil
}

func (s status) num(path ...string) float64 {
	var cur any = map[string]any(s)
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	f, _ := cur.(float64)
	return f
}

// snapshot is the server's counters and CPU at one grid instant.
type snapshot struct {
	st status
	ru Rusage
}

// snap waits for at — half a chunk spacing past a tick, when no dispatch
// is in flight — then reads /status and the child's rusage. Where the
// probe compensates for schedule slip the instant moves with the slip, so
// a window always covers the same ticks of the schedule and counters over
// it (the fault injector's, above all) repeat exactly per seed.
func (b *booted) snap(at time.Time, p *Probe) (snapshot, error) {
	for {
		shift := p.shift()
		time.Sleep(time.Until(at.Add(shift)))
		if p.shift() == shift {
			break
		}
	}
	st, err := fetchStatus(b.ready.StatusURL)
	if err != nil {
		return snapshot{}, err
	}
	if err := b.child.Send("rusage"); err != nil {
		return snapshot{}, err
	}
	var ru Rusage
	if err := b.child.Read(&ru, 10*time.Second); err != nil {
		return snapshot{}, err
	}
	return snapshot{st: st, ru: ru}, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// waveRun is one audience wave and everything measured around it: a
// server child of its own, the audience child, the probe, and (on the
// first wave) the sentinel viewer.
type waveRun struct {
	srv      *booted
	s0, s1   snapshot
	seconds  float64
	srvRu    Rusage
	srvSpans []Span
	aud      AudienceFinal
	audRu    Rusage
	probe    *Probe
	roverErr error
	sentinel *client.Stats // nil except on the first wave
	sentErr  error
	profErr  error
	paused   time.Duration // the longest pause of the host during the wave
	notes    []string
}

// errSetupOverran is a wave whose children were not up when its window
// opened: the host paused for most of the settle gap. Nothing of the wave
// has been measured yet, so RunLive runs it again (see pause.go).
var errSetupOverran = errors.New("harness: set-up overran the window start")

// runWave boots a server, runs wave i of the plan against it and stops
// it. The measured window is laid out on that server's grid; both
// snapshots sit half a chunk spacing past a tick.
func runWave(plan *LivePlan, i int, opt Options, procs map[string]int, rec *Recorder, profile string) (*waveRun, error) {
	srv, err := boot(opt, ServerChildConfig{Spec: plan.Spec, FaultSeed: plan.FaultSeed, Trace: opt.Trace}, procs["server"])
	if err != nil {
		return nil, err
	}
	defer srv.child.Kill() // no-op once stop() has reaped it
	grid := srv.grid
	run := &waveRun{srv: srv, probe: NewProbe(srv.ready.Addr, grid, rec, plan.Spec.Faults != nil)}

	slackFrac, repairLagFrac := Patience(plan.Spec)
	acfg := AudienceChildConfig{ServerAddr: srv.ready.Addr, EpochUnixNano: srv.welcome.EpochUnixNano,
		UnitNanos: srv.welcome.UnitNanos, Viewers: plan.Spec.Viewers, Videos: plan.Spec.Videos,
		SpreadUnits: plan.Spec.SpreadUnits, SlackFrac: slackFrac, RepairLagFrac: repairLagFrac,
		Slot: plan.WaveStart, Seed: plan.WaveSeeds[i]}
	if opt.Trace {
		acfg.TraceID = fmt.Sprintf("wave-%d", i)
	}
	aud, err := opt.Procs.Spawn("audience", procs["audience"], acfg)
	if err != nil {
		return nil, err
	}
	defer aud.Kill()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.roverErr = run.probe.RunRover(plan.Hops[i], grid.UnitTime(float64(plan.EndUnit-1)))
	}()
	half := grid.Spacing() / 2
	t0, t1 := grid.UnitTime(float64(plan.StartUnit)).Add(half), grid.UnitTime(float64(plan.EndUnit)).Add(half)
	if time.Now().After(t0) {
		return nil, fmt.Errorf("%w by %v", errSetupOverran, time.Since(t0))
	}
	if run.s0, err = srv.snap(t0, run.probe); err != nil {
		return nil, err
	}

	// The window: probe sessions, the sentinel viewer and (traced) the CPU
	// profile run beside the audience child.
	wg.Add(1)
	go func() { defer wg.Done(); run.probe.RunSessions(plan.Sessions[i], i) }()
	if i == 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(grid.UnitTime(float64(plan.StartUnit + 1))))
			sp := rec.Start("client.Watch", "sentinel", 0)
			run.sentinel, run.sentErr = client.Watch(client.Config{ServerAddr: srv.ready.Addr, Video: plan.SentinelVid,
				JoinLeadFrac: JoinLeadFrac, SlackFrac: slackFrac, RepairLagFrac: repairLagFrac,
				AllowDegraded: true, Seed: plan.SentinelSd})
			rec.End(sp)
		}()
		if opt.Trace {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run.profErr = saveProfile(srv.ready.StatusURL, int(t1.Sub(t0).Seconds())-2, profile)
			}()
		}
	}

	window := t1.Sub(t0) + 90*time.Second
	if err := aud.Read(&run.aud, window); err != nil {
		return nil, err
	}
	if run.audRu, err = aud.Wait(); err != nil {
		return nil, err
	}
	wg.Wait()
	if now := time.Now(); now.After(t1) {
		// The wave overran its slot (repair tails): close the window on the
		// next half-tick instead, and say so.
		ticks := now.Sub(grid.Epoch)/grid.Spacing() + 1
		t1 = grid.Epoch.Add(ticks*grid.Spacing() + half)
		run.notes = append(run.notes, fmt.Sprintf("wave %d: window extended %.2f units past its plan: the audience overran its slot",
			i, float64(t1.Sub(grid.UnitTime(float64(plan.EndUnit))))/float64(grid.Unit)))
	}
	run.seconds = t1.Sub(t0).Seconds()
	if run.s1, err = srv.snap(t1, run.probe); err != nil {
		return nil, err
	}
	if step := grid.WallStep(srv.welcome); step.Abs() > time.Millisecond {
		run.notes = append(run.notes, fmt.Sprintf("wave %d: the wall clock stepped %v against the monotonic clock; the viewers, which keep wall time, saw every chunk that much later", i, step))
	}
	final, ru, err := srv.stop()
	if err != nil {
		return nil, err
	}
	run.srvRu, run.srvSpans = ru, final.Spans
	return run, nil
}

// RunLive runs one live workload once and reports it: every wave of the
// plan against a server child of its own, then enough extra cold boots
// for setup_s to rest on setupBoots samples.
func RunLive(w Workload, seed uint64, seconds float64, opt Options) (*Report, error) {
	plan, err := PlanLive(*w.Live, seed, seconds)
	if err != nil {
		return nil, err
	}
	procs := RoleProcs()
	rep := newReport(w.Name, seed, 0, opt.Trace)
	rep.Stamp = MakeStamp(opt.Root, procs)
	rep.Inputs = plan
	rep.NotForClaims = plan.Truncated || seconds < RunSeconds
	if plan.Truncated {
		rep.Notes = append(rep.Notes, fmt.Sprintf("window too short for K=%d: ran K=%d (%d units)", w.Live.Channels, plan.Spec.Channels, plan.TotalUnits))
	}
	var rec *Recorder
	if opt.Trace {
		rec = NewRecorder("probe")
	}
	profile := filepath.Join(opt.OutDir, "cpu-"+w.Name+".pprof")

	var runs []*waveRun
	var setups, startMs []float64
	reruns := 0
	for i := 0; i < plan.Waves(); i++ {
		opt.Logf("%s: wave %d of %d, window %d..%d units", w.Name, i+1, plan.Waves(), plan.StartUnit, plan.EndUnit)
		began := time.Now()
		run, err := runWave(plan, i, opt, procs, rec, profile)
		void := ""
		if errors.Is(err, errSetupOverran) {
			void = err.Error()
		} else if err != nil {
			return nil, err
		} else if run.paused = opt.Pauses.Longest(began, time.Now()); run.paused >= pauseLimit {
			void = fmt.Sprintf("the host paused the benchmark for %v", run.paused.Round(time.Millisecond))
		}
		if void != "" && reruns < maxReruns {
			reruns++
			rep.Notes = append(rep.Notes, fmt.Sprintf("wave %d run again: %s", i, void))
			i--
			continue
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		setups, startMs = append(setups, run.srv.setup.Seconds()), append(startMs, run.srv.ready.StartMs)
		rep.Notes = append(rep.Notes, run.notes...)
	}
	for len(setups) < setupBoots {
		b, err := boot(opt, ServerChildConfig{Spec: plan.Spec, FaultSeed: plan.FaultSeed}, procs["server"])
		if err != nil {
			return nil, err
		}
		setups, startMs = append(setups, b.setup.Seconds()), append(startMs, b.ready.StartMs)
		if _, _, err := b.stop(); err != nil {
			return nil, err
		}
	}

	// ---- sums over the waves ----
	var (
		window, sent, srvUser, srvSys float64
		viewers, degraded             int64
		deliveries, audUser, audSys   float64
		late, lost, dup, byteErrs     float64
		ringDrops, batched, syscalls  float64
		gro, groFall, readErrs        float64
		fecHeals, defeats, nacks      float64
		nackSupp, mcRepairs, repairs  float64
		repairReqs, busy, reconn      float64
		peakCohorts, peakRSS          float64
		srvRSS, audRSS                float64
		admit, lags                   []float64
		cohortsOK                     = true
		roverErr                      error
		hostPause                     time.Duration
		probe                         ProbeStats
	)
	delta := func(path ...string) (sum float64) {
		for _, r := range runs {
			sum += r.s1.st.num(path...) - r.s0.st.num(path...)
		}
		return sum
	}
	peak := func(path ...string) (hi float64) {
		for _, r := range runs {
			hi = math.Max(hi, r.s1.st.num(path...))
		}
		return hi
	}
	for i, run := range runs {
		window += run.seconds
		sent += run.s1.st.num("datagramsSent") - run.s0.st.num("datagramsSent")
		srvUser += float64(run.s1.ru.UserNs - run.s0.ru.UserNs)
		srvSys += float64(run.s1.ru.SysNs - run.s0.ru.SysNs)
		srvRSS = math.Max(srvRSS, float64(run.srvRu.MaxRSSKiB)/1024)
		audRSS = math.Max(audRSS, float64(run.audRu.MaxRSSKiB)/1024)
		peakRSS = math.Max(peakRSS, float64(run.srvRu.MaxRSSKiB+run.audRu.MaxRSSKiB)/1024)
		probe.merge(run.probe.Stats())
		hostPause = max(hostPause, run.paused)
		if run.roverErr != nil {
			roverErr = run.roverErr
		}
		wv := run.aud.Wave
		viewers += int64(plan.Spec.Viewers)
		admit, lags = append(admit, wv.AdmitMs), append(lags, wv.LagMs)
		if wv.Result == nil || wv.Err != "" {
			degraded += int64(plan.Spec.Viewers)
			rep.Notes = append(rep.Notes, fmt.Sprintf("wave %d: %s", i, wv.Err))
			if wv.Result == nil {
				cohortsOK = false
				continue
			}
		} else {
			degraded += int64(wv.Result.Degraded)
		}
		r := wv.Result
		if r.Cohorts != plan.ExpectedCohorts() {
			cohortsOK = false
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("wave %d: admitted at unit %d (lag %.1f ms), %.2fs, %d cohorts, %d deliveries, %d ring drops, %d degraded, schedule slip %v",
			i, wv.StartUnit, wv.LagMs, r.ElapsedSec, r.Cohorts, r.Datagrams, r.RecvDropped, r.Degraded, run.probe.MaxSlip()))
		deliveries += float64(r.Datagrams)
		audUser += float64(wv.CPU.UserNs)
		audSys += float64(wv.CPU.SysNs)
		late += float64(r.LateChunks)
		lost += float64(r.LostChunks)
		dup += float64(r.DuplicateChunks)
		byteErrs += float64(r.ByteErrors)
		ringDrops += float64(r.RecvDropped)
		batched += float64(r.BatchedReads)
		syscalls += float64(r.ReadSyscalls)
		gro += float64(r.GroSegments)
		groFall += float64(r.GroFallbacks)
		readErrs += float64(r.ReadErrors)
		fecHeals += float64(r.FecHeals)
		defeats += float64(r.StripeDefeats)
		nacks += float64(r.NacksSent)
		nackSupp += float64(r.NacksSuppressed)
		mcRepairs += float64(r.MulticastRepairs)
		repairs += float64(r.RepairedChunks)
		repairReqs += float64(r.RepairRequests)
		busy += float64(r.BusyReplies)
		reconn += float64(r.Reconnects)
		peakCohorts = math.Max(peakCohorts, float64(r.PeakCohorts))
	}
	rep.Seconds = window
	sentinel, sentErr := runs[0].sentinel, runs[0].sentErr

	// ---- metrics ----
	sentinelFailed := sentErr != nil || sentinel == nil || sentinel.LostChunks+sentinel.LateChunks > 0
	rep.Attempted = viewers + int64(probe.Sessions) + 1
	rep.Failed = degraded + int64(len(probe.SessionErrs))
	if sentinelFailed {
		rep.Failed++
		if sentinel != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("sentinel: %d lost and %d late chunks", sentinel.LostChunks, sentinel.LateChunks))
		}
	}
	for _, e := range probe.SessionErrs {
		rep.Notes = append(rep.Notes, "probe "+e)
	}

	lateS, startS := Sorted(probe.LateMs), Sorted(probe.StartUnits)
	rep.set("setup_s", Median(setups), len(setups), "median of cold boots")
	rep.set("delivery_lateness_p50_ms", Quantile(lateS, 0.5), len(lateS), "")
	p := TailPercentile(len(lateS), 0.90)
	rep.set("delivery_lateness_p90_ms", Quantile(lateS, p), len(lateS), fmt.Sprintf("p%g", p*100))
	p = TailPercentile(len(startS), 0.95)
	rep.set("start_latency_p95_units", Quantile(startS, p), len(startS), fmt.Sprintf("p%g", p*100))
	rep.set("failed_share", ratio(float64(rep.Failed), float64(rep.Attempted)), int(rep.Attempted), "")
	chunksPerVideo := float64(plan.TotalUnits) * float64(plan.Spec.BytesPerUnit/plan.Spec.ChunkBytes)
	rep.set("unhealed_chunk_share", ratio(lost+late, float64(viewers)*chunksPerVideo), 0, "")
	rep.set("server_cpu_ns_per_datagram", ratio(srvUser+srvSys, sent), int(sent), "")
	rep.set("audience_cpu_ns_per_delivery", ratio(audUser+audSys, deliveries), int(deliveries), "")
	rep.set("deliveries_per_s", ratio(deliveries, window), int(deliveries), "")
	rep.set("peak_rss_mib", peakRSS, 0, "")
	for _, d := range EndToEnd { // the ones BENCHMARK.json cannot bound ride along per-layer
		if m, ok := rep.EndToEnd[d.Name]; ok && (d.AbsBound || d.Ungated) {
			rep.set("e2e."+d.Name, m.Value, m.Samples, m.Note)
		}
	}

	wakeups, lookups := delta("egressWakeups"), delta("frameCache", "hits")+delta("frameCache", "misses")
	rep.set("server.start_ms", Median(startMs), len(startMs), "")
	rep.set("server.cpu_user_ns_per_datagram", ratio(srvUser, sent), 0, "")
	rep.set("server.cpu_sys_ns_per_datagram", ratio(srvSys, sent), 0, "")
	rep.set("server.wakeups_per_s", ratio(wakeups, window), 0, "")
	rep.set("server.datagrams_per_wakeup", ratio(sent, wakeups), 0, "")
	rep.set("server.framecache_hit_ratio", ratio(delta("frameCache", "hits"), lookups), 0, "")
	rep.set("server.framecache_resident_mib", peak("frameCache", "bytes")/(1<<20), 0, "")
	rep.set("server.drift_events", delta("pacerDriftEvents"), 0, "")
	rep.set("server.pacer_restarts", delta("pacerRestarts"), 0, "")
	helloS, joinS := Sorted(probe.HelloUs), Sorted(probe.JoinUs)
	rep.set("server.hello_rtt_p50_us", Quantile(helloS, 0.5), len(helloS), "")
	rep.set("server.join_rtt_p50_us", Quantile(joinS, 0.5), len(joinS), "")
	p = TailPercentile(len(joinS), 0.99)
	rep.set("server.join_rtt_p99_us", Quantile(joinS, p), len(joinS), fmt.Sprintf("p%g", p*100))
	rep.set("server.control_sessions_peak", peak("controlSessionsPeak"), 0, "")
	rep.set("server.rss_mib", srvRSS, 0, "")

	rep.set("mcast.datagrams_per_send_syscall", ratio(sent, delta("egressSyscalls")), 0, "")
	rep.set("mcast.superframe_datagram_share", ratio(delta("gsoSegments"), sent), 0, "")
	if sf := delta("superframes"); sf > 0 {
		rep.set("mcast.gso_segments_per_superframe", delta("gsoSegments")/sf, 0, "")
	} else {
		rep.set("mcast.gso_segments_per_superframe", 0, 0, "no super-frame left the hub")
	}
	rep.set("mcast.gso_fallbacks", delta("gsoFallbacks"), 0, "")
	rep.set("mcast.send_failures", delta("sendFailures"), 0, "")
	rep.set("mcast.members_evicted", delta("membersEvicted"), 0, "")
	reads := batched
	if reads == 0 {
		reads = syscalls // single-read path: one datagram per syscall
	}
	rep.set("mcast.datagrams_per_read_syscall", ratio(reads, syscalls), 0, "")
	rep.set("mcast.gro_segment_share", ratio(gro, reads), 0, "")
	rep.set("mcast.gro_fallbacks", groFall, 0, "")
	rep.set("mcast.read_errors", readErrs, 0, "")
	rep.set("mcast.ring_drops", ringDrops, 0, "")
	rep.set("mcast.deliveries_per_datagram", ratio(deliveries, reads), 0, "")

	if plan.Spec.Faults != nil {
		repairS, nackS := Sorted(probe.RepairUs), Sorted(probe.NackUs)
		rep.set("server.repair_rtt_p50_us", Quantile(repairS, 0.5), len(repairS), "")
		rep.set("server.nack_rtt_p50_us", Quantile(nackS, 0.5), len(nackS), "")
		rep.set("server.repairs_served", delta("repairsServed"), 0, "")
		rep.set("server.nacks_served", delta("nacksServed"), 0, "")
		rep.set("server.nack_resends", delta("nackResends"), 0, "")
		rep.set("server.storm_resends", delta("stormResends"), 0, "")
		rep.set("server.busy_replies", delta("busyReplies"), 0, "")
		rep.set("server.repair_datagrams", delta("repairDatagrams"), 0, "")
		rep.set("server.parity_frame_share", ratio(delta("parityFrames"), sent), 0, "")
		rep.set("faults.dropped", delta("faultsInjected", "dropped"), 0, "")
		rep.set("faults.burst_dropped", delta("faultsInjected", "burstDropped"), 0, "")
		rep.set("faults.duplicated", delta("faultsInjected", "duplicated"), 0, "")
		rep.set("faults.reordered", delta("faultsInjected", "reordered"), 0, "")
		rep.set("viewer.fec_heals", fecHeals, 0, "")
		rep.set("viewer.stripe_defeats", defeats, 0, "")
		rep.set("viewer.nacks_sent", nacks, 0, "")
		rep.set("viewer.nacks_suppressed", nackSupp, 0, "")
		rep.set("viewer.multicast_repairs", mcRepairs, 0, "")
		rep.set("viewer.unicast_repairs", repairs, 0, "")
		rep.set("viewer.repair_requests", repairReqs, 0, "")
		rep.set("viewer.busy_replies", busy, 0, "")
	}

	rep.set("viewer.admit_ms", Median(admit), len(admit), "")
	rep.set("viewer.cohorts", float64(plan.ExpectedCohorts()), 0, "per wave")
	rep.set("viewer.peak_cohorts", peakCohorts, 0, "")
	rep.set("viewer.cpu_user_ns_per_delivery", ratio(audUser, deliveries), 0, "")
	rep.set("viewer.cpu_sys_ns_per_delivery", ratio(audSys, deliveries), 0, "")
	rep.set("viewer.reconnects", reconn, 0, "")
	rep.set("viewer.late_chunks", late, 0, "")
	rep.set("viewer.lost_chunks", lost, 0, "")
	rep.set("viewer.duplicate_chunks", dup, 0, "")
	rep.set("viewer.byte_errors", byteErrs, 0, "")
	rep.set("viewer.rss_mib", audRSS, 0, "")

	bufferRatio := math.NaN()
	if sentinel != nil {
		// The paper's 60·b·D1·(W−1) in live units, plus the one chunk of
		// arrival granularity client.Config.MaxBufferBytes documents.
		bufferRatio = float64(sentinel.MaxBufferBytes) / float64((plan.Spec.Width-1)*int64(plan.Spec.BytesPerUnit)+int64(plan.Spec.ChunkBytes))
		rep.set("client.wait_units", sentinel.WaitUnits, 1, "")
		rep.set("client.groups", float64(sentinel.Groups), 1, "")
		rep.set("client.max_buffer_ratio", bufferRatio, 1, "")
	}

	lags = append(lags, probe.LagMs...)
	lagS := Sorted(lags)
	p = TailPercentile(len(lateS), 0.99)
	slipNote := "not compensated"
	if plan.Spec.Faults != nil {
		slipNote = "taken out of lateness and start latency"
	}
	rep.set("probe.sessions", float64(probe.Sessions), 0, "")
	rep.set("probe.datagrams", float64(probe.Datagrams), 0, fmt.Sprintf("%d off-schedule (re-sends, duplicates, reorders) left out of lateness", probe.OffSchedule))
	rep.set("probe.lateness_p99_ms", Quantile(lateS, p), len(lateS), fmt.Sprintf("p%g", p*100))
	rep.set("probe.schedule_slip_ms", float64(probe.MaxSlip)/1e6, 0, slipNote)
	rep.set("probe.generator_lag_p99_ms", Quantile(lagS, TailPercentile(len(lagS), 0.99)), len(lagS), "")
	rep.set("probe.decode_errors", float64(probe.DecodeErrors), 0, "")
	rep.set("probe.host_pause_ms", float64(hostPause)/1e6, 0, fmt.Sprintf("%d waves run again", reruns))

	// ---- correctness of the outputs ----
	rep.check("content_verified", byteErrs == 0 && probe.DecodeErrors == 0,
		"%v audience byte errors, %d probe decode/verify errors", byteErrs, probe.DecodeErrors)
	rep.check("cohorts_follow_seed", cohortsOK, "every wave must form %d cohorts", plan.ExpectedCohorts())
	rep.check("sentinel_session", sentErr == nil && sentinel != nil && sentinel.ByteErrors == 0, "client.Watch: %v", sentErr)
	rep.check("buffer_within_paper_bound", !(bufferRatio > 1), "max buffer ÷ ((W−1)·BytesPerUnit + ChunkBytes) = %.4f", bufferRatio)
	rep.check("probe_ran", roverErr == nil && len(lateS) > 0 && len(startS) > 0,
		"rover: %v; %d lateness samples, %d start-latency samples", roverErr, len(lateS), len(startS))
	if bufferRatio > 1 && !sentinelFailed {
		rep.Failed++ // a violated bound counts against the session too
	}

	if opt.Trace {
		if err := runs[0].profErr; err != nil {
			rep.Notes = append(rep.Notes, "cpu profile: "+err.Error())
		} else {
			rep.Notes = append(rep.Notes, "server CPU profile of the first wave: "+profile)
		}
		spans := rec.Spans()
		for _, run := range runs {
			spans = append(spans, Rebase(run.srvSpans, len(spans))...)
			spans = append(spans, Rebase(run.aud.Spans, len(spans))...)
		}
		spanPath := filepath.Join(opt.OutDir, "trace-"+w.Name+".jsonl")
		if err := WriteSpans(spanPath, spans); err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans: %s", len(spans), spanPath))
		rep.set("trace.spans", float64(len(spans)), 0, "")
		probes, err := LayerProbes(plan, ratio(sent, wakeups))
		if err != nil {
			return nil, err
		}
		for name, ns := range probes {
			rep.set(name, ns, 0, "")
		}
		budget := layerBudget(plan, probes, budgetCounts{
			window: window, sent: sent, misses: delta("frameCache", "misses"), deliveries: deliveries,
			reads: reads, srvCPU: srvUser + srvSys, audCPU: audUser + audSys, nacks: delta("nacksServed"),
			parityDeliveries: deliveries * ratio(delta("parityFrames"), sent),
		})
		rep.LayerBudget = budget
		rep.set("trace.unattributed_cpu_share", budget.UnattributedShare, 0, "")
		if base, ok := untracedBaseline(opt.OutDir, w.Name, seed); ok && base > 0 {
			rep.set("trace.overhead_share", (rep.EndToEnd["server_cpu_ns_per_datagram"].Value-base)/base, 0, "")
		} else {
			rep.Notes = append(rep.Notes, "trace.overhead_share left out: no untraced report of this seed in "+opt.OutDir)
		}
	}
	return rep, nil
}

// untracedBaseline finds server_cpu_ns_per_datagram in the untraced
// report of the same workload and seed, when one is on disk.
func untracedBaseline(outDir, workload string, seed uint64) (float64, bool) {
	reports, err := ReadReports(filepath.Join(outDir, workload+".json"))
	if err != nil {
		return 0, false
	}
	var vals []float64
	for _, r := range reports {
		if !r.Traced && r.Seed == seed && r.Workload == workload {
			if m, ok := r.EndToEnd["server_cpu_ns_per_datagram"]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	return Median(vals), len(vals) > 0
}

// saveProfile pulls a CPU profile of the server child over the window.
func saveProfile(statusURL string, seconds int, path string) error {
	if seconds < 1 {
		seconds = 1
	}
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", statusURL, seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof answered %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
