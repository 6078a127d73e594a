// Package hybrid implements the architecture the paper's introduction
// singles out as best (citing Dan et al.): "a fraction of the server
// channels is reserved and preallocated for periodic broadcast of the
// popular videos. The remaining channels are used to serve the rest of the
// videos using some scheduled multicast technique."
//
// Given a server bandwidth and a Zipf catalog, the package partitions
// channels between a Skyscraper Broadcasting hot set and an MQL batching
// tail, evaluates a partition against a concrete request stream, and
// searches the partition space for the one minimizing expected service
// latency.
package hybrid

import (
	"fmt"
	"math"

	"skyscraper/internal/batch"
	"skyscraper/internal/catalog"
	"skyscraper/internal/core"
	"skyscraper/internal/metrics"
	"skyscraper/internal/sim"
	"skyscraper/internal/vod"
	"skyscraper/internal/workload"
)

// Plan is one hot/cold partition of the server's channels.
type Plan struct {
	// HotTitles is the catalog prefix broadcast with SB; 0 means a pure
	// batching system.
	HotTitles int
	// Width is the skyscraper width of the broadcast side.
	Width int64
	// SB is the broadcast scheme (nil when HotTitles is 0).
	SB *core.Scheme
	// BatchChannels is what remains for scheduled multicast.
	BatchChannels int
	// HotDemandFrac is the fraction of demand landing on the hot set.
	HotDemandFrac float64
}

// String summarizes the plan.
func (p *Plan) String() string {
	if p.SB == nil {
		return fmt.Sprintf("hybrid{pure batching, %d channels}", p.BatchChannels)
	}
	return fmt.Sprintf("hybrid{hot=%d W=%d K=%d (%d ch) + batch %d ch, %.0f%% demand broadcast}",
		p.HotTitles, p.Width, p.SB.K(), p.SB.ServerChannelsUsed(), p.BatchChannels, 100*p.HotDemandFrac)
}

// Build constructs the plan that dedicates hotTitles catalog prefixes to
// SB with the given width, handing every remaining channel to batching.
// hotChannels is the channel budget for the broadcast side (it is rounded
// down to a multiple of hotTitles); pass 0 to size it proportionally to
// the hot set's demand share, which balances queueing pressure between the
// two sides. Build fails when the bandwidth cannot support at least one
// channel per hot video plus one batching channel for a non-empty tail.
func Build(serverMbps float64, cat *catalog.Catalog, hotTitles int, width int64, hotChannels int) (*Plan, error) {
	if cat == nil {
		return nil, fmt.Errorf("hybrid: nil catalog")
	}
	if hotTitles < 0 || hotTitles > cat.Len() {
		return nil, fmt.Errorf("hybrid: hot set %d outside catalog 0..%d", hotTitles, cat.Len())
	}
	rate := cat.Video(0).RateMbps
	length := cat.Video(0).LengthMin
	total := int(serverMbps / rate)
	plan := &Plan{HotTitles: hotTitles, Width: width, HotDemandFrac: cat.CumulativeProb(hotTitles)}
	if hotTitles > 0 {
		reserve := 0
		if hotTitles < cat.Len() {
			reserve = 1
		}
		if hotChannels <= 0 {
			hotChannels = int(float64(total) * plan.HotDemandFrac)
		}
		if hotChannels > total-reserve {
			hotChannels = total - reserve
		}
		k := hotChannels / hotTitles
		if k < 1 {
			return nil, fmt.Errorf("hybrid: %d hot channels cannot broadcast %d titles", hotChannels, hotTitles)
		}
		cfg := vod.Config{
			ServerMbps: float64(k*hotTitles) * rate,
			Videos:     hotTitles,
			LengthMin:  length,
			RateMbps:   rate,
		}
		sb, err := core.New(cfg, width)
		if err != nil {
			return nil, fmt.Errorf("hybrid: broadcast side: %w", err)
		}
		plan.SB = sb
	}
	used := 0
	if plan.SB != nil {
		used = plan.SB.ServerChannelsUsed()
	}
	plan.BatchChannels = total - used
	if hotTitles < cat.Len() && plan.BatchChannels < 1 {
		return nil, fmt.Errorf("hybrid: no channels left for the %d-title tail", cat.Len()-hotTitles)
	}
	return plan, nil
}

// Report is a plan's measured performance over a request stream.
type Report struct {
	Plan *Plan
	// Hot and Cold summarize waiting times (minutes) on each side; All
	// combines them (reneged cold requests are excluded from All, and
	// counted in Reneged).
	Hot, Cold, All metrics.Summary
	// Served and Reneged count requests by outcome.
	Served, Reneged int
}

// Evaluate plays a request stream against the plan: hot requests are
// simulated individually under SB (their wait is deterministic given the
// arrival phase), cold requests run through the MQL batching server.
func Evaluate(plan *Plan, cat *catalog.Catalog, reqs []workload.Request) (*Report, error) {
	if plan == nil || cat == nil {
		return nil, fmt.Errorf("hybrid: nil plan or catalog")
	}
	rep := &Report{Plan: plan}
	var sbSim sim.ClientSim
	if plan.SB != nil {
		sbSim = sim.New(plan.SB)
	}
	var coldReqs []workload.Request
	for _, r := range reqs {
		if r.VideoRank < plan.HotTitles {
			res, err := sbSim.Client(r.ArrivalMin, r.VideoRank)
			if err != nil {
				return nil, fmt.Errorf("hybrid: hot request %d: %w", r.ID, err)
			}
			rep.Hot.Observe(res.WaitMin)
			rep.All.Observe(res.WaitMin)
			rep.Served++
			continue
		}
		r.VideoRank -= plan.HotTitles
		coldReqs = append(coldReqs, r)
	}
	if len(coldReqs) > 0 {
		tail := cat.Len() - plan.HotTitles
		probs := make([]float64, tail)
		for i := range probs {
			probs[i] = cat.Prob(plan.HotTitles + i)
		}
		st, err := batch.Run(batch.ServerConfig{
			Channels:   plan.BatchChannels,
			Videos:     tail,
			LengthMin:  cat.Video(0).LengthMin,
			Popularity: probs,
		}, batch.MQL{}, coldReqs)
		if err != nil {
			return nil, fmt.Errorf("hybrid: cold side: %w", err)
		}
		rep.Cold = st.WaitMin
		rep.Served += st.Served
		rep.Reneged += st.Reneged
		rep.All.Merge(&st.WaitMin)
	}
	return rep, nil
}

// Optimize searches hot-set sizes (and the width ladder) for the plan
// minimizing the mean wait over the given request stream. It evaluates
// every candidate by full simulation — the stream should be a
// representative sample, not the production feed.
func Optimize(serverMbps float64, cat *catalog.Catalog, reqs []workload.Request, widths []int64) (*Plan, *Report, error) {
	if len(widths) == 0 {
		widths = []int64{2, 12, 52}
	}
	var bestPlan *Plan
	var bestRep *Report
	best := math.Inf(1)
	total := int(serverMbps / cat.Video(0).RateMbps)
	try := func(hot int, w int64, hotCh int) error {
		plan, err := Build(serverMbps, cat, hot, w, hotCh)
		if err != nil {
			return nil // infeasible partitions are skipped, not fatal
		}
		rep, err := Evaluate(plan, cat, reqs)
		if err != nil {
			return err
		}
		// Penalize reneging: a lost request is a full-length wait.
		score := rep.All.Sum() + float64(rep.Reneged)*cat.Video(0).LengthMin
		score /= float64(rep.Served + rep.Reneged)
		if score < best {
			best, bestPlan, bestRep = score, plan, rep
		}
		return nil
	}
	if err := try(0, 0, 0); err != nil {
		return nil, nil, err
	}
	candidates := []int{}
	for hot := 1; hot < cat.Len(); hot *= 2 {
		candidates = append(candidates, hot)
	}
	candidates = append(candidates, cat.Len()) // whole-library broadcast
	for _, hot := range candidates {
		share := cat.CumulativeProb(hot)
		for _, w := range widths {
			// Sweep the hot side's channel budget around its
			// demand-proportional share.
			for _, boost := range []float64{0.5, 1, 1.5, 2} {
				hotCh := int(float64(total) * share * boost)
				if err := try(hot, w, hotCh); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if bestPlan == nil {
		return nil, nil, fmt.Errorf("hybrid: no feasible plan for %g Mbit/s over %d titles", serverMbps, cat.Len())
	}
	return bestPlan, bestRep, nil
}
