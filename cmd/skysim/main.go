// Command skysim runs the event-driven broadcast simulator for one scheme
// and reports measured access latency, client buffer occupancy and stream
// concurrency over a population of clients.
//
// Usage:
//
//	skysim -scheme sb -B 320 -W 52 -clients 2000
//	skysim -scheme ppb:b -B 320
//	skysim -scheme batch -policy mql -channels 10 -rate 5
package main

import (
	"flag"
	"fmt"
	"os"

	"skyscraper/internal/batch"
	"skyscraper/internal/bench"
	"skyscraper/internal/catalog"
	"skyscraper/internal/sim"
	"skyscraper/internal/trace"
	"skyscraper/internal/vod"
	"skyscraper/internal/workload"
)

func main() {
	var (
		scheme    = flag.String("scheme", "sb", "sb, pb:a, pb:b, ppb:a, ppb:b, staggered or batch")
		bandwidth = flag.Float64("B", 320, "server network-I/O bandwidth, Mbit/s")
		width     = flag.Int64("W", 52, "skyscraper width (0 = uncapped)")
		videos    = flag.Int("M", 10, "number of broadcast videos")
		length    = flag.Float64("D", 120, "video length, minutes")
		rate      = flag.Float64("b", 1.5, "display rate, Mbit/s")
		clients   = flag.Int("clients", 1000, "simulated clients")
		window    = flag.Float64("window", 1000, "arrival window, minutes")
		seed      = flag.Uint64("seed", 1, "workload seed")
		workers   = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS); results are identical for any value")
		policy    = flag.String("policy", "mql", "batching policy: fcfs, mql or mfql")
		channels  = flag.Int("channels", 10, "batching channels")
		reqRate   = flag.Float64("rate", 2, "batching arrival rate, requests/minute")
		patience  = flag.Float64("patience", 0, "mean client patience, minutes (0 = infinite)")
		traceN    = flag.Int("trace", 0, "dump the last N batching events (batch scheme only)")
	)
	flag.Parse()
	cfg := vod.Config{ServerMbps: *bandwidth, Videos: *videos, LengthMin: *length, RateMbps: *rate}
	if err := run(*scheme, cfg, *width, *clients, *window, *seed, *workers, *policy, *channels, *reqRate, *patience, *traceN); err != nil {
		fmt.Fprintln(os.Stderr, "skysim:", err)
		os.Exit(1)
	}
}

func run(scheme string, cfg vod.Config, width int64, clients int, window float64, seed uint64,
	workers int, policy string, channels int, reqRate, patience float64, traceN int) error {
	if scheme == "batch" {
		return runBatch(cfg, policy, channels, reqRate, patience, clients, seed, traceN)
	}
	sch, err := bench.NewScheme(scheme, cfg, width)
	if err != nil {
		return err
	}
	res, err := sim.Sweep(sim.New(sch), clients, window, cfg.Videos, seed, sim.Workers(workers))
	if err != nil {
		return err
	}
	fmt.Printf("scheme        %s  (B=%g Mbit/s, M=%d, D=%g min, b=%g Mbit/s)\n",
		res.Scheme, cfg.ServerMbps, cfg.Videos, cfg.LengthMin, cfg.RateMbps)
	fmt.Printf("clients       %d over %g minutes\n", res.Clients, window)
	fmt.Printf("wait (min)    %s   [analytic worst %.4f]\n", res.WaitMin.String(), sch.AccessLatencyMin())
	fmt.Printf("buffer (Mbit) %s   [analytic worst %.4f]\n", res.BufferMbit.String(), sch.BufferMbit())
	fmt.Printf("streams       max %g\n", res.Streams.Max())
	fmt.Printf("disk bw       %.4f Mbit/s (analytic)\n", sch.DiskBandwidthMbps())
	return nil
}

func runBatch(cfg vod.Config, policyName string, channels int, reqRate, patience float64, clients int, seed uint64, traceN int) error {
	pol, err := batch.PolicyByName(policyName)
	if err != nil {
		return err
	}
	cat, err := catalog.New(cfg.Videos, catalog.DefaultSkew, cfg.LengthMin, cfg.RateMbps)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(workload.Config{RatePerMin: reqRate, Seed: seed, MeanPatienceMin: patience}, cat)
	if err != nil {
		return err
	}
	probs := make([]float64, cfg.Videos)
	for i := range probs {
		probs[i] = cat.Prob(i)
	}
	var tr *trace.Buffer
	if traceN > 0 {
		tr = trace.New(traceN)
	}
	st, err := batch.Run(batch.ServerConfig{
		Channels: channels, Videos: cfg.Videos, LengthMin: cfg.LengthMin, Popularity: probs, Trace: tr,
	}, pol, gen.Take(clients))
	if err != nil {
		return err
	}
	fmt.Printf("policy        %s  (%d channels, %g req/min, %d videos)\n", pol.Name(), channels, reqRate, cfg.Videos)
	fmt.Printf("served        %d   reneged %d   pending %d\n", st.Served, st.Reneged, st.Pending)
	fmt.Printf("wait (min)    %s\n", st.WaitMin.String())
	fmt.Printf("batch size    %s\n", st.BatchSize.String())
	fmt.Printf("channel util  %.1f%%\n", 100*st.ChannelBusyFrac)
	if tr != nil {
		fmt.Println("\nevent journal:")
		if _, err := tr.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
