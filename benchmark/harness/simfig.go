package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"skyscraper/internal/bench"
	"skyscraper/internal/catalog"
	"skyscraper/internal/core"
	"skyscraper/internal/des"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/sim"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
	"skyscraper/internal/workload"
)

// sim_figures is a closed loop: nproc sweep workers, each starting its
// next client the moment the previous one returns.

// simSweep names one of the 8 population sweeps.
type simSweep struct {
	Scheme    string
	Bandwidth float64
}

var simSweeps = []simSweep{
	{"sb", 600}, {"pb:a", 600}, {"pb:b", 600}, {"ppb:a", 600}, {"ppb:b", 600}, {"staggered", 600},
	{"sb", 100}, {"sb", 320},
}

const (
	simWidth         = 52     // SB's W in the paper's comparison
	simClients       = 100000 // per sweep, over the rounds of a full-length run
	simWindowMin     = 1000.0 // arrival window, as cmd/skysim
	simRegenerations = 200    // cold figure regenerations over a full-length run
	simRounds        = 8      // rounds a full-length run is cut into; rates are medians over rounds
	crossPhases      = 120    // as cmd/skyfigs -crossvalidate
)

// buildSim materializes one scheme and its closed forms.
func buildSim(name string, cfg vod.Config) (sim.ClientSim, vod.Performer, error) {
	switch name {
	case "sb":
		s, err := core.New(cfg, simWidth)
		if err != nil {
			return nil, nil, err
		}
		return sim.NewSB(s), s, nil
	case "pb:a", "pb:b":
		m := pyramid.MethodA
		if name == "pb:b" {
			m = pyramid.MethodB
		}
		s, err := pyramid.New(cfg, m)
		if err != nil {
			return nil, nil, err
		}
		return sim.NewPB(s), s, nil
	case "ppb:a", "ppb:b":
		m := ppb.MethodA
		if name == "ppb:b" {
			m = ppb.MethodB
		}
		s, err := ppb.New(cfg, m)
		if err != nil {
			return nil, nil, err
		}
		return sim.NewPPB(s), s, nil
	case "staggered":
		s, err := staggered.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return sim.NewStaggered(s), s, nil
	}
	return nil, nil, fmt.Errorf("harness: unknown scheme %q", name)
}

// boundChecked passes every simulated client through to the scheme and
// counts those whose measured wait or buffer exceeds the scheme's closed
// form: the output check of the sweep, made per client, from outside.
type boundChecked struct {
	sim.ClientSim
	perf       vod.Performer
	violations *atomic.Int64
}

const boundSlack = 1e-6 // relative: float noise, not protocol slack

func (b boundChecked) Client(arrivalMin float64, video int) (sim.ClientResult, error) {
	r, err := b.ClientSim.Client(arrivalMin, video)
	if err == nil && (r.WaitMin > b.perf.AccessLatencyMin()*(1+boundSlack) || r.MaxBufferMbit > b.perf.BufferMbit()*(1+boundSlack)) {
		b.violations.Add(1)
	}
	return r, err
}

// regenerate rebuilds Figures 5a–8. (CrossValidate, two hundred times
// dearer, is timed on its own once a round.)
func regenerate(bands []float64) {
	bench.Figure5a(bands)
	bench.Figure5b(bands)
	bench.Figure6(bands)
	bench.Figure7(bands)
	bench.Figure8(bands)
}

// RunSim runs the sim_figures workload: rounds of the 8 sweeps plus cold
// figure regenerations until the window is spent (at least one round).
func RunSim(seed uint64, seconds float64, opt Options) (*Report, error) {
	entered := time.Now()
	rep := newReport(SimFigures, seed, seconds, opt.Trace)
	nproc := runtime.NumCPU()
	rep.Stamp = MakeStamp(opt.Root, map[string]int{"orchestrator": runtime.GOMAXPROCS(0)})
	rep.NotForClaims = seconds < RunSeconds
	var rec *Recorder
	if opt.Trace {
		rec = NewRecorder("sim")
	}

	type built struct {
		simSweep
		cs   sim.ClientSim
		perf vod.Performer
	}
	var (
		sweeps     []built
		violations atomic.Int64
	)
	for _, sw := range simSweeps {
		cs, perf, err := buildSim(sw.Scheme, vod.DefaultConfig(sw.Bandwidth))
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s at B=%g is infeasible and was left out: %v", sw.Scheme, sw.Bandwidth, err))
			continue
		}
		sweeps = append(sweeps, built{sw, boundChecked{cs, perf, &violations}, perf})
	}
	if len(sweeps) == 0 {
		return nil, fmt.Errorf("harness: no feasible scheme")
	}
	if _, err := sweeps[0].cs.Client(1.0, 0); err != nil {
		return nil, err
	}
	rep.set("setup_s", time.Since(entered).Seconds(), 1, "workload start → first client simulated")

	perRound := simClients / simRounds
	regenPerRound := simRegenerations / simRounds
	bands := bench.Bandwidths(20)
	simSeed := des.SubSeed(seed, seedSim)
	var (
		rates, coldMs, memoMs, crossMs []float64
		clients                        int64
		builds                         float64
	)
	began := time.Now()
	for round := 0; ; round++ {
		// Stop once another round of the size measured so far would overrun.
		if el := time.Since(began).Seconds(); round > 0 && el+el/float64(round) > seconds {
			break
		}
		trace := fmt.Sprintf("round-%d", round)
		root := rec.Start("sim.round", trace, 0)
		t0 := time.Now()
		for i, sw := range sweeps {
			sp := rec.Start("sim.Sweep "+sw.Scheme, trace, root)
			res, err := sim.Sweep(sw.cs, perRound, simWindowMin, 10, des.SubSeed(simSeed, uint64(round*len(sweeps)+i)))
			rec.End(sp)
			if err != nil {
				rep.check("sweep_"+sw.Scheme, false, "B=%g: %v", sw.Bandwidth, err)
				violations.Add(1)
				continue
			}
			clients += int64(res.Clients)
		}
		rates = append(rates, float64(perRound*len(sweeps))/time.Since(t0).Seconds())

		for i := 0; i < regenPerRound; i++ {
			bench.ResetCache()
			b0 := bench.CacheBuilds()
			sp := rec.Start("bench.figures_cold", trace, root)
			t := time.Now()
			regenerate(bands)
			coldMs = append(coldMs, float64(time.Since(t))/1e6)
			rec.End(sp)
			builds = float64(bench.CacheBuilds() - b0)
		}
		sp := rec.Start("bench.figures_memo", trace, root)
		t := time.Now()
		regenerate(bands)
		memoMs = append(memoMs, float64(time.Since(t))/1e6)
		rec.End(sp)
		t = time.Now()
		if _, err := bench.CrossValidate(bands, crossPhases); err != nil {
			return nil, err
		}
		crossMs = append(crossMs, float64(time.Since(t))/1e6)
		rec.End(root)
	}
	rep.Seconds = time.Since(began).Seconds()

	// Determinism and speed-up of the parallel sweep: workers=1 and
	// workers=nproc must agree bit for bit.
	sb := sweeps[0]
	t := time.Now()
	one, err := sim.Sweep(sb.cs, perRound, simWindowMin, 10, simSeed, sim.Workers(1))
	serial := time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	many, err := sim.Sweep(sb.cs, perRound, simWindowMin, 10, simSeed, sim.Workers(nproc))
	parallel := time.Since(t)
	if err != nil {
		return nil, err
	}
	same := one.WaitMin.Sum() == many.WaitMin.Sum() && one.BufferMbit.Sum() == many.BufferMbit.Sum() &&
		one.WaitMin.Quantile(0.99) == many.WaitMin.Quantile(0.99) && one.Streams.Max() == many.Streams.Max()
	rep.check("sweep_workers_bit_identical", same, "workers=1 vs workers=%d on %d SB clients", nproc, perRound)

	v := violations.Load()
	rep.Attempted, rep.Failed = clients, v
	rep.check("closed_form_bounds", v == 0, "%d of %d clients exceed their scheme's latency or buffer closed form", v, clients)
	ru := SelfRusage()
	rep.set("failed_share", ratio(float64(v), float64(clients)), int(clients), "")
	rep.set("sim_clients_per_s", Median(rates), len(rates), "median over rounds")
	rep.set("peak_rss_mib", float64(ru.MaxRSSKiB)/1024, 0, "")
	rep.set("sim.parallel_speedup", ratio(serial.Seconds(), parallel.Seconds()), 0, fmt.Sprintf("%d workers", nproc))
	rep.set("sim.bound_violations", float64(v), 0, "")
	rep.set("bench.figures_cold_ms", Median(coldMs), len(coldMs), "")
	rep.set("bench.figures_memo_ms", Median(memoMs), len(memoMs), "")
	rep.set("bench.cache_builds", builds, 0, "")
	rep.set("bench.crossvalidate_ms", Median(crossMs), len(crossMs), "")

	if opt.Trace {
		for name, ns := range simLayerProbes(seed) {
			rep.set(name, ns, 0, "")
		}
		spans := rec.Spans()
		rep.set("trace.spans", float64(len(spans)), 0, "")
		path := fmt.Sprintf("%s/trace-%s.jsonl", opt.OutDir, SimFigures)
		if err := WriteSpans(path, spans); err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans: %s", len(spans), path))
	}
	return rep, nil
}

// simLayerProbes times one client of each simulator, scheme construction,
// schedule planning and request generation.
func simLayerProbes(seed uint64) map[string]float64 {
	out := map[string]float64{}
	cfg := vod.DefaultConfig(600)
	r := des.NewRand(des.SubSeed(seed, seedSim))
	for metric, scheme := range map[string]string{"sim.sb_client_ns": "sb", "sim.pb_client_ns": "pb:a",
		"sim.ppb_client_ns": "ppb:a", "sim.staggered_client_ns": "staggered"} {
		cs, _, err := buildSim(scheme, cfg)
		if err != nil {
			continue // infeasible at this B: reported by the sweeps already
		}
		out[metric] = timeLoop(1, func() {
			res, _ := cs.Client(r.Float64()*simWindowMin, r.Intn(10)) // violations are the sweeps' business
			sink += res.MaxStreams
		})
	}
	out["core.new_ns"] = timeLoop(1, func() {
		s, _ := core.New(cfg, simWidth) // B=600 affords SB
		sink += s.K()
	})
	if sch, err := core.New(cfg, simWidth); err == nil {
		start := int64(0)
		out["core.plan_schedule_ns"] = timeLoop(1, func() {
			start++
			p, _ := sch.PlanSchedule(start) // SB plans never fail (section 4)
			sink += len(p.Downloads)
		})
	}
	if cat, err := catalog.New(10, catalog.DefaultSkew, 120, 1.5); err == nil {
		if gen, err := workload.NewGenerator(workload.Config{RatePerMin: 2, Seed: des.SubSeed(seed, seedSim)}, cat); err == nil {
			out["workload.generate_ns_per_request"] = timeLoop(1, func() { sink += gen.Next().VideoRank })
		}
	}
	return out
}
