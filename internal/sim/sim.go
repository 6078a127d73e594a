// Package sim is the event-driven simulator that plays every broadcasting
// scheme in this repository. Where the analytic packages (core, pyramid,
// ppb, staggered) evaluate the paper's closed forms, this package actually
// plays each scheme's client protocol — its vod.Scheme.Reception — out on a
// virtual clock: loaders fill a buffer and a player drains it, so access
// latency, buffer high-water marks and stream concurrency are *measured*,
// and jitter-freeness is checked rather than assumed. The tests
// cross-validate the measurements against the closed forms, which is this
// reproduction's substitute for the authors' testbed.
package sim

import (
	"fmt"
	"math"
	"sort"

	"skyscraper/internal/des"
	"skyscraper/internal/metrics"
	"skyscraper/internal/vod"
)

// ClientResult reports one simulated client's reception of one video.
type ClientResult struct {
	// ArrivalMin and PlayStartMin are in virtual minutes; WaitMin is
	// their difference (the service latency actually experienced).
	ArrivalMin, PlayStartMin, WaitMin float64
	// MaxBufferMbit is the client buffer high-water mark.
	MaxBufferMbit float64
	// AvgBufferMbit is the time-weighted mean occupancy between playback
	// start and end.
	AvgBufferMbit float64
	// MaxStreams is the peak number of simultaneously tuned channels.
	MaxStreams int
	// MaxIOMbps is the peak client storage-I/O bandwidth: the display
	// rate while playing plus the rates of all concurrently *buffering*
	// downloads (a download that streams straight through to the player
	// — identical interval and rate — touches no disk). This is the
	// measured counterpart of the paper's Table 1 disk-bandwidth column.
	MaxIOMbps float64
	// DownloadedMbit totals all received data; it must equal the video
	// size exactly (every byte received once).
	DownloadedMbit float64
	// PlaybackEndMin is when the player consumed the final byte.
	PlaybackEndMin float64
}

// ClientSim simulates one client reception under some scheme.
type ClientSim interface {
	// Name identifies the scheme, matching its analytic Performer.
	Name() string
	// Client simulates a client arriving at arrivalMin (virtual minutes)
	// requesting the given video, returning measurements or an error if
	// the protocol missed a deadline (jitter).
	Client(arrivalMin float64, video int) (ClientResult, error)
}

// New returns the simulator of scheme s: each client's arrival and video
// are checked once, then s's Reception is played out by runFlows.
func New(s vod.Scheme) ClientSim { return schemeSim{s} }

// NewSB is New, kept only because benchmark/harness calls it.
func NewSB(s vod.Scheme) ClientSim { return New(s) }

// NewPB is New, kept only because benchmark/harness calls it.
func NewPB(s vod.Scheme) ClientSim { return New(s) }

// NewPPB is New, kept only because benchmark/harness calls it.
func NewPPB(s vod.Scheme) ClientSim { return New(s) }

// NewStaggered is New, kept only because benchmark/harness calls it.
func NewStaggered(s vod.Scheme) ClientSim { return New(s) }

type schemeSim struct{ s vod.Scheme }

// Name implements ClientSim: the scheme's own name.
func (c schemeSim) Name() string { return c.s.Name() }

// Client implements ClientSim.
func (c schemeSim) Client(arrivalMin float64, video int) (ClientResult, error) {
	if n := c.s.Config().Videos; video < 0 || video >= n {
		return ClientResult{}, fmt.Errorf("sim: video %d outside broadcast set 0..%d", video, n-1)
	}
	if !(arrivalMin >= 0) || math.IsInf(arrivalMin, 1) {
		return ClientResult{}, fmt.Errorf("sim: arrival %v is not a finite time >= 0", arrivalMin)
	}
	downloads, playbacks, err := c.s.Reception(arrivalMin, video)
	var res ClientResult
	if err == nil {
		res, err = runFlows(downloads, playbacks, arrivalMin)
	}
	if err != nil {
		return ClientResult{}, fmt.Errorf("sim: %s: %w", c.s.Name(), err)
	}
	return res, nil
}

// cumulative returns the Mbit f has transferred by time t.
func cumulative(f vod.Flow, t float64) float64 {
	if t <= f.StartMin {
		return 0
	}
	if t >= f.EndMin {
		return f.Mbit()
	}
	return (t - f.StartMin) * 60 * f.RateMbps
}

// runFlows executes a client's download and playback flows on a discrete
// event simulation, verifying per-segment causality (no byte is played
// before it arrives) and measuring buffer occupancy and stream concurrency.
// Every played segment must be covered by one or more download bursts (a
// pausing client, like PPB's, receives a segment in several bursts from
// phase-shifted replicas) delivering exactly the played volume.
func runFlows(downloads, playbacks []vod.Flow, arrivalMin float64) (ClientResult, error) {
	if len(playbacks) == 0 {
		return ClientResult{}, fmt.Errorf("sim: no playback flows")
	}
	dl := make(map[int][]vod.Flow, len(playbacks))
	for _, f := range downloads {
		if f.EndMin < f.StartMin || f.RateMbps <= 0 {
			return ClientResult{}, fmt.Errorf("sim: malformed download flow %+v", f)
		}
		dl[f.Segment] = append(dl[f.Segment], f)
	}
	// Tolerance for data-volume comparisons: 1e-4 Mbit is about 12 bytes,
	// far above accumulated float64 noise and far below any real jitter.
	const tol = 1e-4
	playStart, playEnd := playbacks[0].StartMin, playbacks[0].EndMin
	for _, p := range playbacks {
		bursts, ok := dl[p.Segment]
		if !ok {
			return ClientResult{}, fmt.Errorf("sim: segment %d played but never downloaded", p.Segment)
		}
		sort.Slice(bursts, func(i, j int) bool { return bursts[i].StartMin < bursts[j].StartMin })
		var got float64
		breakpoints := []float64{p.StartMin, p.EndMin}
		for i, b := range bursts {
			got += b.Mbit()
			breakpoints = append(breakpoints, b.StartMin, b.EndMin)
			if i > 0 && b.StartMin < bursts[i-1].EndMin-1e-12 {
				return ClientResult{}, fmt.Errorf("sim: segment %d bursts overlap at t=%.6f", p.Segment, b.StartMin)
			}
		}
		if diff := got - p.Mbit(); diff > tol || diff < -tol {
			return ClientResult{}, fmt.Errorf("sim: segment %d downloads %.6f Mbit but plays %.6f",
				p.Segment, got, p.Mbit())
		}
		// Causality is a piecewise-linear comparison; extremes occur at
		// breakpoints of either curve.
		for _, t := range breakpoints {
			var cum float64
			for _, b := range bursts {
				cum += cumulative(b, t)
			}
			if short := cumulative(p, t) - cum; short > tol {
				return ClientResult{}, fmt.Errorf("sim: jitter on segment %d: player is %.6f Mbit ahead at t=%.6f",
					p.Segment, short, t)
			}
		}
		if p.StartMin < playStart {
			playStart = p.StartMin
		}
		if p.EndMin > playEnd {
			playEnd = p.EndMin
		}
	}

	// A download that coincides exactly with its segment's playback
	// streams through to the player and touches no disk; everything else
	// is written to (and later read from) the client buffer.
	passThrough := func(f vod.Flow) bool {
		for _, p := range playbacks {
			if p.Segment == f.Segment {
				return f.StartMin == p.StartMin && f.EndMin == p.EndMin && f.RateMbps == p.RateMbps
			}
		}
		return false
	}

	// Replay the flows on the event kernel to integrate the buffer gauge,
	// stream concurrency and storage-I/O rate.
	var (
		sim        des.Sim
		buf        metrics.Gauge
		streams    int
		maxStreams int
		total      float64
		playing    int     // active playback flows
		writeRate  float64 // Mbit/s being written to the buffer
		maxIO      float64
	)
	type edge struct {
		t      float64
		dRate  float64 // buffer fill-rate delta (downloads add, playback subtracts)
		stream int     // +1 tune, -1 untune, 0 for playback edges
		play   int     // +1 playback start, -1 playback end
		wRate  float64 // disk write-rate delta
	}
	var edges []edge
	for _, f := range downloads {
		e0 := edge{t: f.StartMin, dRate: +f.RateMbps, stream: +1}
		e1 := edge{t: f.EndMin, dRate: -f.RateMbps, stream: -1}
		if !passThrough(f) {
			e0.wRate, e1.wRate = +f.RateMbps, -f.RateMbps
		}
		edges = append(edges, e0, e1)
		total += f.Mbit()
	}
	for _, p := range playbacks {
		edges = append(edges,
			edge{t: p.StartMin, dRate: -p.RateMbps, play: +1},
			edge{t: p.EndMin, dRate: +p.RateMbps, play: -1})
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	playRate := playbacks[0].RateMbps
	var rate float64 // net fill rate Mbit/s
	prev := edges[0].t
	for _, e := range edges {
		e := e
		sim.At(e.t, func(now float64) {
			buf.Add(now, rate*60*(now-prev))
			prev = now
			rate += e.dRate
			streams += e.stream
			if streams > maxStreams {
				maxStreams = streams
			}
			playing += e.play
			writeRate += e.wRate
			io := writeRate
			if playing > 0 {
				io += playRate
			}
			if io > maxIO {
				maxIO = io
			}
		})
	}
	sim.RunAll()
	if lvl := buf.Level(); lvl > tol || lvl < -tol {
		return ClientResult{}, fmt.Errorf("sim: buffer did not drain: %.6f Mbit left", lvl)
	}

	return ClientResult{
		ArrivalMin:     arrivalMin,
		PlayStartMin:   playStart,
		WaitMin:        playStart - arrivalMin,
		MaxBufferMbit:  buf.High(),
		AvgBufferMbit:  buf.TimeAverage(playEnd),
		MaxStreams:     maxStreams,
		MaxIOMbps:      maxIO,
		DownloadedMbit: total,
		PlaybackEndMin: playEnd,
	}, nil
}
