// Package harness is the library behind cmd skybench: workload
// definitions, the generated per-run plans, the probe viewer, the child
// roles, the span recorder, the layer probes and the report format. It
// drives the system under test only through its exported API — nothing
// outside benchmark/ is edited to be measured.
package harness

import (
	"fmt"
	"math"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/des"
	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/vod"
	"skyscraper/internal/wire"
)

// Workload names. The three live ones are the gated workloads of
// BENCHMARK.json; sim_figures runs under skybench only (see README.md).
const (
	PacedPaper  = "paced_paper"
	DenseTick   = "dense_tick"
	LossyRepair = "lossy_repair"
	SimFigures  = "sim_figures"
)

// FaultSpec is the faults.Plan a lossy workload runs under, minus the seed
// (derived per run from the workload seed).
type FaultSpec struct {
	Drop       float64 `json:"drop"`
	Duplicate  float64 `json:"duplicate"`
	Reorder    float64 `json:"reorder"`
	BurstEnter float64 `json:"burstEnter"`
	BurstExit  float64 `json:"burstExit"`
	BurstDrop  float64 `json:"burstDrop"`
}

// Plan is the faults.Plan of the spec under seed.
func (f *FaultSpec) Plan(seed uint64, chunkBytes int) faults.Plan {
	return faults.Plan{Seed: seed, Drop: f.Drop, Duplicate: f.Duplicate, Reorder: f.Reorder,
		BurstEnter: f.BurstEnter, BurstExit: f.BurstExit, BurstDrop: f.BurstDrop, ChunkBytes: chunkBytes}
}

// LiveSpec is the fixed geometry and audience of one live workload.
type LiveSpec struct {
	Videos       int           `json:"videos"`
	Channels     int           `json:"channels"`
	Width        int64         `json:"width"`
	Unit         time.Duration `json:"unitNanos"`
	BytesPerUnit int           `json:"bytesPerUnit"`
	ChunkBytes   int           `json:"chunkBytes"`
	FecGroup     int           `json:"fecGroup,omitempty"`
	FecMode      string        `json:"fecMode,omitempty"`
	Faults       *FaultSpec    `json:"faults,omitempty"`
	Viewers      int           `json:"viewers"`
	SpreadUnits  int           `json:"spreadUnits"`
	// RepairLag and Slack are the viewers' patience (see Patience).
	RepairLag time.Duration `json:"repairLagNanos"`
	Slack     time.Duration `json:"slackNanos"`
}

// Workload is one named set of inputs.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why  string
	Live *LiveSpec // nil for sim_figures
}

// Workloads lists every workload skybench runs, in `-workload all` order.
var Workloads = []Workload{
	{
		Name: PacedPaper,
		Why:  "paper section-5 geometry (M=10, K=40, 400 channels) at relaxed spacing: wheel wakeups and the control plane do the work, batching almost none",
		Live: &LiveSpec{Videos: 10, Channels: 40, Width: 12, Unit: 70 * time.Millisecond,
			BytesPerUnit: 4096, ChunkBytes: 1024, Viewers: 2000, SpreadUnits: 8,
			RepairLag: 300 * time.Millisecond, Slack: time.Second},
	},
	{
		Name: DenseTick,
		Why:  "M=10, K=20 at 3.1 ms chunk spacing (~6k wire datagrams/s, ~29k cohort deliveries/s, half the rate the audience collapses at): per-datagram cost in mcast, wire, content, cohort loop dominates",
		// 100 ms units, not the issue's 50: the loader's receive cutoff is 6
		// units past a fragment's end, and that is all the host pause a
		// lossless viewer can sit out (see Patience).
		Live: &LiveSpec{Videos: 10, Channels: 20, Width: 12, Unit: 100 * time.Millisecond,
			BytesPerUnit: 32768, ChunkBytes: 1024, Viewers: 2000, SpreadUnits: 8,
			RepairLag: 450 * time.Millisecond, Slack: 1500 * time.Millisecond},
	},
	{
		Name: LossyRepair,
		Why:  "same layers under 2% drop, bursts, dup and reorder with FEC G=4: sends bypass batching through the fault injector, repair and parity traffic ride beside the schedule",
		// 35 ms chunk spacing, not the finer tick of dense_tick: behind the
		// injector the wheel never catches up a tick it missed, and only a
		// tick longer than this host's pauses keeps the schedule on its grid.
		Live: &LiveSpec{Videos: 10, Channels: 20, Width: 12, Unit: 70 * time.Millisecond,
			BytesPerUnit: 8192, ChunkBytes: 4096, FecGroup: 4, FecMode: "xor", Viewers: 2000, SpreadUnits: 8,
			// The slack covers the stripe's hold (105 ms), the lag, a NACK round
			// and a schedule the host's pauses have pushed a second behind.
			RepairLag: 150 * time.Millisecond, Slack: 1500 * time.Millisecond,
			Faults: &FaultSpec{Drop: 0.02, Duplicate: 0.01, Reorder: 0.01, BurstEnter: 0.01, BurstExit: 0.30, BurstDrop: 1.0}},
	},
	{
		Name: SimFigures,
		Why:  "the analytic/simulator half: sim.Sweep over SB, PB, PPB and staggered plus cold figure regenerations; the live path does none of the work",
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Seed substreams: every generated input derives from the workload seed
// through one of these, so the programs under test never see the seed
// itself and no two inputs share a stream.
const (
	seedFaults = iota + 1
	seedAudience
	seedProbe
	seedSentinel
	seedSim
)

// The audience's arrival phase inside a unit. admit() bins viewers by
// ceil(arrival + JoinLeadFrac); arriving at phase + lead = n + 0.5 puts
// both edge bins half a unit from empty, so the cohort count is
// videos × (spread+1) for every seed and does not move with the few
// hundred microseconds of sleep jitter before Mux.Run.
const (
	JoinLeadFrac = 0.9
	admitPhase   = 0.6 // frac(admitPhase + JoinLeadFrac) = 0.5
)

// Viewer patience is wall time, not units, and sized to the host rather
// than to the broadcast: RepairLag is how long past a chunk's expected
// arrival a viewer waits before calling it a gap, Slack how long past its
// playback time before calling it late. A shared VM pauses whole for
// 10–50 ms a few times a minute and, now and then, for a few hundred. With
// skychaos's 0.3 and 2.0 units every pause reads as a gap and starts repair
// traffic on a lossless workload; and a pause longer than RepairLag flags
// every chunk due meanwhile on every cohort at once, which at dense_tick's
// rate buries the one repair worker, overflows the rings behind it and
// degrades the whole wave (a 200 ms pause did, at a 150 ms lag). So the
// lossless workloads wait out as long a pause as the system lets them:
// the loader's receive cutoff is 6 units past a fragment's end, the lag
// stays about three quarters of that, and the rest is what a real gap near
// a fragment's end has left for its repair. lossy_repair has real gaps to
// repair in time and keeps the short lag: with 300 ms, 60–90 % of its
// sessions lost a late-fragment gap to the cutoff.
//
// Patience converts the spec's wall-time patience to the fractions of a
// unit viewer.MuxConfig and client.Config take.
func Patience(spec LiveSpec) (slackFrac, repairLagFrac float64) {
	return float64(spec.Slack) / float64(spec.Unit), float64(spec.RepairLag) / float64(spec.Unit)
}

// Window layout, in D1 units from the broadcast epoch.
const (
	settle       = 400 * time.Millisecond // epoch → window start: the audience child boots in this gap
	leadUnits    = 2                      // window start → the wave's admission slot
	tailUnits    = 2                      // wave slot end → window end
	waveSlack    = 6                      // wave slot beyond spread + video: join lead, ceil, repair tail
	sessionEvery = 1.5                    // probe session spacing; each holds one membership ≤ 1 unit + RTT
	roverDwell   = 4                      // units the rover stays on one (video, channel)
)

// ProbeSession is one scheduled start-latency measurement: at DueUnits the
// probe asks for Video and waits for the next fragment-1 broadcast.
type ProbeSession struct {
	DueUnits float64 `json:"dueUnits"`
	Video    int     `json:"video"`
}

// RoverHop moves the probe's long-lived lateness tap to (Video, Channel).
type RoverHop struct {
	AtUnits int64 `json:"atUnits"`
	Video   int   `json:"video"`
	Channel int   `json:"channel"`
}

// LivePlan is everything one live run is generated from: the geometry
// actually run (Channels may be cut to fit a short window) and, for each
// audience wave, the window on its server's grid and the probe's
// schedule. Every wave runs against a server child of its own (a fresh
// epoch, so the windows are all laid out alike). The plan is a pure
// function of (workload, seed, seconds).
type LivePlan struct {
	Spec        LiveSpec `json:"spec"`
	Seed        uint64   `json:"seed"`
	Truncated   bool     `json:"truncated"` // Channels cut to fit: not for claims
	TotalUnits  int64    `json:"totalUnits"`
	StartUnit   int64    `json:"startUnit"` // window start, units after the epoch
	WaveStart   int64    `json:"waveStart"` // the audience's admission slot
	EndUnit     int64    `json:"endUnit"`   // window end
	FaultSeed   uint64   `json:"faultSeed,omitempty"`
	WaveSeeds   []uint64 `json:"waveSeeds"` // one wave each
	SentinelVid int      `json:"sentinelVideo"`
	SentinelSd  uint64   `json:"sentinelSeed"`

	Sessions [][]ProbeSession `json:"-"` // per wave
	Hops     [][]RoverHop     `json:"-"`
}

// Waves is how many audience waves the run holds.
func (p *LivePlan) Waves() int { return len(p.WaveSeeds) }

// ExpectedCohorts is the cohort count every wave must produce (see
// admitPhase).
func (p *LivePlan) ExpectedCohorts() int { return p.Spec.Videos * (p.Spec.SpreadUnits + 1) }

// WindowSeconds is the measured time: every wave's window.
func (p *LivePlan) WindowSeconds() float64 {
	return (time.Duration(int64(p.Waves())*(p.EndUnit-p.StartUnit)) * p.Spec.Unit).Seconds()
}

// Scheme builds the SB scheme for m videos of k channels at the paper's
// b = 1.5 Mbit/s, D = 120 min.
func Scheme(m, k int, width int64) (*core.Scheme, error) {
	return core.New(vod.Config{ServerMbps: 1.5 * float64(m*k), Videos: m, LengthMin: 120, RateMbps: 1.5}, width)
}

// faultSeed derives the fault plan's seed from the workload seed. The
// injector's decisions are the same in every repetition of a broadcast, so
// under one plan in fourteen some video's fragment 1 — two chunks and
// their parity frame here — never reaches the wire at all. Viewers of that
// video start from unicast repairs and none fails; the probe's sessions,
// which only listen, would all time out there. Such a plan is passed over
// for the next substream: every plan run leaves each video's fragment 1 a
// data chunk to be heard.
func faultSeed(spec LiveSpec, seed uint64) (uint64, error) {
	root := des.SubSeed(seed, seedFaults)
	for k := uint64(0); k < 64; k++ {
		fs := root
		if k > 0 {
			fs = des.SubSeed(root, k)
		}
		ok, err := audible(spec, fs)
		if err != nil || ok {
			return fs, err
		}
	}
	return 0, fmt.Errorf("harness: no fault plan of seed %d leaves every video's fragment 1 audible", seed)
}

// passed counts the datagrams an injector lets through.
type passed int

func (n *passed) Send(mcast.Group, []byte) (int, error) { *n++; return 1, nil }

// audible sends every video's fragment 1 (one unit of the broadcast)
// through an injector of the plan and reports whether each got a data
// chunk past it.
func audible(spec LiveSpec, seed uint64) (bool, error) {
	payload := make([]byte, spec.ChunkBytes)
	for v := 0; v < spec.Videos; v++ {
		var out passed
		inj, err := faults.New(&out, spec.Faults.Plan(seed, spec.ChunkBytes))
		if err != nil {
			return false, err
		}
		for off := 0; off < spec.BytesPerUnit; off += spec.ChunkBytes {
			c := wire.Chunk{Video: uint16(v), Channel: 1, Offset: uint32(off), Total: uint32(spec.BytesPerUnit), Payload: payload}
			frame, err := c.Encode(nil)
			if err != nil {
				return false, err
			}
			_, _ = inj.Send(mcast.Group{Video: v, Channel: 1}, frame) // passed.Send cannot fail
		}
		inj.Flush() // a chunk held for reordering still goes out
		if out == 0 {
			return false, nil
		}
	}
	return true, nil
}

// PlanLive generates the run plan of a live workload. When one audience
// wave at the workload's geometry does not fit in seconds, channels are
// cut from the top (shorter video, same unit, same density) and the plan
// is marked Truncated — never the rate.
func PlanLive(spec LiveSpec, seed uint64, seconds float64) (*LivePlan, error) {
	budget := int64(seconds / spec.Unit.Seconds())
	p := &LivePlan{Spec: spec, Seed: seed}
	var window int64
	for k := spec.Channels; ; k-- {
		if k < 1 {
			return nil, fmt.Errorf("harness: %.1fs holds no audience wave at unit %v", seconds, spec.Unit)
		}
		sch, err := Scheme(spec.Videos, k, spec.Width)
		if err != nil {
			return nil, err
		}
		p.TotalUnits = sch.TotalUnits()
		window = leadUnits + p.TotalUnits + int64(spec.SpreadUnits) + waveSlack + tailUnits
		if n := budget / window; n >= 1 {
			p.Spec.Channels, p.Truncated = k, k < spec.Channels
			p.WaveSeeds = make([]uint64, n)
			break
		}
	}
	p.StartUnit = int64(math.Ceil(float64(settle) / float64(spec.Unit)))
	p.WaveStart, p.EndUnit = p.StartUnit+leadUnits, p.StartUnit+window
	if spec.Faults != nil {
		var err error
		if p.FaultSeed, err = faultSeed(p.Spec, seed); err != nil {
			return nil, err
		}
	}
	sr := des.NewRand(des.SubSeed(seed, seedSentinel))
	p.SentinelVid, p.SentinelSd = sr.Intn(spec.Videos), sr.Uint64()

	for w := range p.WaveSeeds {
		p.WaveSeeds[w] = des.SubSeed(des.SubSeed(seed, seedAudience), uint64(w))
		// Sessions alternate between the two halves of a unit (1.5-unit
		// stride) and take their half-unit offset from a golden-ratio
		// sequence the seed only rotates: their arrival phases cover the unit
		// evenly for every seed, so start latency's percentiles carry no
		// sampling noise.
		r := des.NewRand(des.SubSeed(des.SubSeed(seed, seedProbe), uint64(w)))
		first, last, rot := float64(p.StartUnit+1), float64(p.EndUnit-5), r.Float64()
		var sessions []ProbeSession
		for k := 0; ; k++ {
			_, frac := math.Modf(rot + float64(k)*math.Phi)
			due := first + sessionEvery*float64(k) + 0.5*frac
			if due > last {
				break
			}
			sessions = append(sessions, ProbeSession{DueUnits: due, Video: r.Intn(spec.Videos)})
		}
		// The rover starts with the server, before the window opens, so the
		// schedule's slip is known when the first snapshot is due.
		var hops []RoverHop
		for at := int64(2); at < p.EndUnit-1; at += roverDwell {
			hops = append(hops, RoverHop{AtUnits: at, Video: r.Intn(spec.Videos), Channel: 1 + r.Intn(p.Spec.Channels)})
		}
		p.Sessions, p.Hops = append(p.Sessions, sessions), append(p.Hops, hops)
	}
	return p, nil
}
