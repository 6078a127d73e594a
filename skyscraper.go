// Package skyscraper is a complete implementation of Skyscraper
// Broadcasting (Hua & Sheu, SIGCOMM 1997), a periodic-broadcast scheme for
// metropolitan video-on-demand, together with the baselines the paper
// compares against (Pyramid Broadcasting and Permutation-Based Pyramid
// Broadcasting), a plain staggered-broadcast baseline, a scheduled-
// multicast batching server for unpopular videos, an event-driven
// simulator that cross-validates every closed form in the paper, and a
// live loopback-UDP broadcast server and client.
//
// The quickest way in:
//
//	cfg := skyscraper.DefaultConfig(320)     // B = 320 Mbit/s, M = 10, D = 120 min, b = 1.5 Mbit/s
//	sb, err := skyscraper.New(cfg, 52)       // width W = 52
//	...
//	fmt.Println(sb.AccessLatencyMin())       // worst wait, minutes
//	fmt.Println(sb.BufferMbit())             // client disk space, Mbit
//	fmt.Println(sb.DiskBandwidthMbps())      // client disk bandwidth, Mbit/s
//
// See the examples directory for runnable programs and cmd/skyfigs for the
// paper's tables and figures.
package skyscraper

import (
	"skyscraper/internal/batch"
	"skyscraper/internal/catalog"
	"skyscraper/internal/client"
	"skyscraper/internal/core"
	"skyscraper/internal/hybrid"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/series"
	"skyscraper/internal/server"
	"skyscraper/internal/sim"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
	"skyscraper/internal/workload"
)

// Config describes a VoD deployment: server bandwidth B (Mbit/s), video
// count M, video length D (minutes) and display rate b (Mbit/s).
type Config = vod.Config

// Performer is the three-metric surface every scheme exposes (the paper's
// Table 1): access latency, client buffer space, client disk bandwidth.
type Performer = vod.Performer

// ErrInfeasible is wrapped by scheme constructors whose continuity
// constraints cannot be met at the given bandwidth.
var ErrInfeasible = vod.ErrInfeasible

// DefaultConfig returns the paper's Section 5 workload (M = 10 videos of
// 120 minutes at 1.5 Mbit/s) with the given server bandwidth.
func DefaultConfig(serverMbps float64) Config { return vod.DefaultConfig(serverMbps) }

// Scheme is an instantiated Skyscraper Broadcasting configuration — the
// paper's primary contribution. It exposes the analytic model
// (AccessLatencyMin, BufferMbit, DiskBandwidthMbps), the fragmentation
// (Sizes, Groups), and the exact client scheduler (PlanSchedule, Profile,
// WorstCaseBuffer).
type Scheme = core.Scheme

// Schedule is a client's deterministic reception plan; Download one
// tuned transmission group within it.
type (
	Schedule = core.Schedule
	Download = core.Download
)

// Series is a broadcast series: the integer sequence of relative fragment
// sizes. SkyscraperSeries is the paper's; a Scheme may be built over any
// series whose transmission groups alternate parity.
type Series = series.Series

// SkyscraperSeries is the paper's broadcast series 1, 2, 2, 5, 5, 12, 12,
// 25, 25, 52, 52, ...
var SkyscraperSeries Series = series.Skyscraper{}

// New builds the SB scheme for cfg with width W (0 = uncapped).
func New(cfg Config, width int64) (*Scheme, error) { return core.New(cfg, width) }

// NewWithSeries builds an SB-style scheme over a custom broadcast series.
func NewWithSeries(cfg Config, s Series, width int64) (*Scheme, error) {
	return core.NewWithSeries(cfg, s, width)
}

// WidthForLatency returns the smallest width achieving the target access
// latency (minutes) with K channels for a D-minute video, or 0 if
// unreachable — the inversion of the paper's Section 3.2 formula.
func WidthForLatency(k int, lengthMin, targetMin float64) int64 {
	return series.WidthForLatency(series.Skyscraper{}, k, lengthMin, targetMin)
}

// Pyramid Broadcasting (PB) baseline, with its two parameter methods.
type (
	// PyramidScheme is the PB baseline.
	PyramidScheme = pyramid.Scheme
	// PyramidMethod selects PB:a or PB:b.
	PyramidMethod = pyramid.Method
)

// PB parameter methods.
const (
	PyramidA = pyramid.MethodA
	PyramidB = pyramid.MethodB
)

// NewPyramid builds the PB baseline.
func NewPyramid(cfg Config, m PyramidMethod) (*PyramidScheme, error) { return pyramid.New(cfg, m) }

// Permutation-Based Pyramid Broadcasting (PPB) baseline.
type (
	// PPBScheme is the PPB baseline.
	PPBScheme = ppb.Scheme
	// PPBMethod selects PPB:a or PPB:b.
	PPBMethod = ppb.Method
)

// PPB parameter methods.
const (
	PPBA = ppb.MethodA
	PPBB = ppb.MethodB
)

// NewPPB builds the PPB baseline.
func NewPPB(cfg Config, m PPBMethod) (*PPBScheme, error) { return ppb.New(cfg, m) }

// StaggeredScheme is the plain periodic-broadcast baseline.
type StaggeredScheme = staggered.Scheme

// NewStaggered builds the staggered baseline.
func NewStaggered(cfg Config) (*StaggeredScheme, error) { return staggered.New(cfg) }

// Simulation: event-driven clients measuring what the closed forms
// predict.
type (
	// ClientSim simulates single-client receptions for one scheme.
	ClientSim = sim.ClientSim
	// ClientResult is one simulated reception's measurements.
	ClientResult = sim.ClientResult
	// SweepResult aggregates a simulated client population.
	SweepResult = sim.SweepResult
)

// SimulateSB, SimulatePyramid, SimulatePPB and SimulateStaggered wrap a
// scheme for event-driven simulation.
func SimulateSB(s *Scheme) ClientSim                 { return sim.New(s) }
func SimulatePyramid(s *PyramidScheme) ClientSim     { return sim.New(s) }
func SimulatePPB(s *PPBScheme) ClientSim             { return sim.New(s) }
func SimulateStaggered(s *StaggeredScheme) ClientSim { return sim.New(s) }

// Sweep simulates n clients with uniform arrivals over windowMin minutes.
func Sweep(cs ClientSim, n int, windowMin float64, videos int, seed uint64) (*SweepResult, error) {
	return sim.Sweep(cs, n, windowMin, videos, seed)
}

// Catalog and workload: Zipf-popular video libraries and Poisson request
// streams.
type (
	// Catalog is a popularity-ranked video library.
	Catalog = catalog.Catalog
	// Video is one catalog title.
	Video = catalog.Video
	// Request is one client demand.
	Request = workload.Request
	// WorkloadConfig parameterizes request generation.
	WorkloadConfig = workload.Config
	// Generator produces request streams.
	Generator = workload.Generator
)

// ZipfSkew is the movie-popularity skew factor the paper cites (0.271).
const ZipfSkew = catalog.DefaultSkew

// NewCatalog builds an n-title catalog with Zipf skew theta.
func NewCatalog(n int, theta, lengthMin, rateMbps float64) (*Catalog, error) {
	return catalog.New(n, theta, lengthMin, rateMbps)
}

// NewGenerator builds a Poisson/Zipf request generator.
func NewGenerator(cfg WorkloadConfig, cat *Catalog) (*Generator, error) {
	return workload.NewGenerator(cfg, cat)
}

// Scheduled multicast (batching) for the unpopular tail.
type (
	// BatchPolicy selects which queue a freed channel serves.
	BatchPolicy = batch.Policy
	// BatchConfig parameterizes the batching server.
	BatchConfig = batch.ServerConfig
	// BatchStats reports a batching run.
	BatchStats = batch.Stats
)

// Batching policies.
var (
	FCFS BatchPolicy = batch.FCFS{}
	MQL  BatchPolicy = batch.MQL{}
	MFQL BatchPolicy = batch.MFQL{}
)

// RunBatch simulates the scheduled-multicast server over a request
// sequence.
func RunBatch(cfg BatchConfig, p BatchPolicy, reqs []Request) (*BatchStats, error) {
	return batch.Run(cfg, p, reqs)
}

// Live demo: a real broadcast server and client over loopback UDP.
type (
	// LiveServerConfig parameterizes the live server.
	LiveServerConfig = server.Config
	// LiveServer broadcasts fragments over UDP.
	LiveServer = server.Server
	// LiveClientConfig parameterizes a viewing session.
	LiveClientConfig = client.Config
	// LiveStats reports a completed session.
	LiveStats = client.Stats
)

// NewLiveServer validates the configuration and prepares a live server;
// call Start on the result.
func NewLiveServer(cfg LiveServerConfig) (*LiveServer, error) { return server.New(cfg) }

// WatchLive runs one full live viewing session against a running server.
func WatchLive(cfg LiveClientConfig) (*LiveStats, error) { return client.Watch(cfg) }

// Hybrid architecture: SB broadcast for the hot set plus scheduled
// multicast for the tail (the combination the paper's introduction reports
// performs best).
type (
	// HybridPlan is one hot/cold channel partition.
	HybridPlan = hybrid.Plan
	// HybridReport is a plan's measured performance over a request
	// stream.
	HybridReport = hybrid.Report
)

// BuildHybrid partitions serverMbps between an SB hot set of hotTitles
// (given hotChannels of budget; 0 sizes it by demand share) and an MQL
// batching tail.
func BuildHybrid(serverMbps float64, cat *Catalog, hotTitles int, width int64, hotChannels int) (*HybridPlan, error) {
	return hybrid.Build(serverMbps, cat, hotTitles, width, hotChannels)
}

// EvaluateHybrid plays a request stream against a plan.
func EvaluateHybrid(plan *HybridPlan, cat *Catalog, reqs []Request) (*HybridReport, error) {
	return hybrid.Evaluate(plan, cat, reqs)
}

// OptimizeHybrid searches hot-set sizes and widths for the plan
// minimizing mean wait (with reneging penalized) over the request stream.
func OptimizeHybrid(serverMbps float64, cat *Catalog, reqs []Request, widths []int64) (*HybridPlan, *HybridReport, error) {
	return hybrid.Optimize(serverMbps, cat, reqs, widths)
}
