// Package ppb implements Permutation-Based Pyramid Broadcasting (PPB), the
// baseline of Aggarwal, Wolf and Yu that Section 2 of the skyscraper paper
// describes and Section 5 compares against.
//
// PPB keeps PB's geometric fragmentation but further partitions each of the
// K logical channels into P*M subchannels of B/(K*P*M) Mbit/s. Segment i of
// each video is replicated on P subchannels, each broadcasting it
// periodically in its entirety, phase-shifted by 1/P of the broadcast
// period. The far lower per-stream rate shrinks the client disk space and
// disk bandwidth dramatically compared to PB, at the cost of a much larger
// access latency and of mid-broadcast tuning ("this is difficult to
// implement since a client must be able to tune to a channel during,
// instead of at the beginning of, a broadcast").
//
// The paper's text is OCR-damaged around PPB's parameter rules; the
// interpretation used here is documented in DESIGN.md and validated against
// the numbers the paper quotes in prose (PPB:b at B ≈ 320 Mbit/s: latency
// about five minutes, client disk about 150 MByte).
package ppb

import (
	"fmt"
	"math"

	"skyscraper/internal/vod"
)

// Method selects PPB's design-parameter determination rule (Section 2).
type Method int

const (
	// MethodA ("PPB:a") chooses P = floor(B/(K*M*b) - 2), favoring a
	// larger alpha (closer to e) and hence lower latency.
	MethodA Method = iota
	// MethodB ("PPB:b") chooses P = max(2, floor(B/(K*M*b)) - 2),
	// favoring more replicas (alpha just above 1) and hence smaller
	// client buffers, at a significant latency cost.
	MethodB
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == MethodA {
		return "PPB:a"
	}
	return "PPB:b"
}

// MaxK is the upper bound the scheme places on K ("K ... is limited within
// the range 2 <= K <= 7", Section 2). Because of it, PPB's latency and
// storage eventually improve only linearly with B, unlike PB.
const MaxK = 7

// MinK is the corresponding lower bound.
const MinK = 2

// Scheme is an instantiated PPB configuration.
type Scheme struct {
	cfg    vod.Config
	method Method
	k, p   int
	alpha  float64
}

// New determines PPB's design parameters for cfg using the given method.
// K is the largest value within [2, 7] for which the per-channel bandwidth
// multiple B/(K*M*b) is at least P+1 with alpha > 1; P and alpha then
// follow the method's rule with P + alpha = B/(K*M*b). New returns
// vod.ErrInfeasible (wrapped) when no valid (K, P, alpha) exists, which for
// the paper's workload happens below roughly 90 Mbit/s.
func New(cfg vod.Config, method Method) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if method != MethodA && method != MethodB {
		return nil, fmt.Errorf("ppb: unknown method %d", method)
	}
	// Largest K in [MinK, MaxK] for which the method yields a valid
	// P >= 1 with alpha > 1 under the bandwidth identity
	// P + alpha = B/(K*M*b). A larger K always means a lower latency, so
	// greedily prefer it.
	for k := MaxK; k >= MinK; k-- {
		ratio := cfg.ServerMbps / (float64(k*cfg.Videos) * cfg.RateMbps)
		var p int
		switch method {
		case MethodA:
			p = int(math.Floor(ratio - 2))
		case MethodB:
			p = int(math.Floor(ratio)) - 2
			if p < 2 {
				p = 2
			}
		}
		if p < 1 {
			continue
		}
		alpha := ratio - float64(p)
		if alpha <= 1 {
			continue
		}
		return &Scheme{cfg: cfg, method: method, k: k, p: p, alpha: alpha}, nil
	}
	return nil, fmt.Errorf("ppb: %v has no valid (K, P, alpha) for B = %v Mbit/s: %w",
		method, cfg.ServerMbps, vod.ErrInfeasible)
}

// Config returns the system parameters the scheme was built for.
func (s *Scheme) Config() vod.Config { return s.cfg }

// Method returns the parameter-determination method.
func (s *Scheme) Method() Method { return s.method }

// K returns the number of segments per video.
func (s *Scheme) K() int { return s.k }

// P returns the number of phase-shifted replicas per segment.
func (s *Scheme) P() int { return s.p }

// Alpha returns the geometric fragmentation factor.
func (s *Scheme) Alpha() float64 { return s.alpha }

// Name implements vod.Performer.
func (s *Scheme) Name() string { return s.method.String() }

// SubchannelMbps returns the bandwidth of one subchannel, B/(K*P*M). It
// exceeds the display rate by the factor (P+alpha)/P, which approaches 1
// as P grows — the source of PPB's storage savings.
func (s *Scheme) SubchannelMbps() float64 {
	return s.cfg.ServerMbps / float64(s.k*s.p*s.cfg.Videos)
}

// FragmentMinutes returns D_i, the playback length in minutes of segment i
// (1-based), identical to PB's geometric fragmentation.
func (s *Scheme) FragmentMinutes(i int) float64 {
	if i < 1 || i > s.k {
		panic(fmt.Sprintf("ppb: FragmentMinutes(%d): segment out of range 1..%d", i, s.k))
	}
	return s.cfg.LengthMin * math.Pow(s.alpha, float64(i-1)) * (s.alpha - 1) / (math.Pow(s.alpha, float64(s.k)) - 1)
}

// FragmentMbits returns the size of segment i in Mbit.
func (s *Scheme) FragmentMbits(i int) float64 {
	return 60 * s.cfg.RateMbps * s.FragmentMinutes(i)
}

// BroadcastMinutes returns the period of one subchannel's broadcast of
// segment i: its data transmitted at the subchannel rate.
func (s *Scheme) BroadcastMinutes(i int) float64 {
	return s.FragmentMbits(i) / (60 * s.SubchannelMbps())
}

// PhaseOffsetMinutes returns the phase delay between consecutive replicas
// of segment i: BroadcastMinutes(i)/P.
func (s *Scheme) PhaseOffsetMinutes(i int) float64 {
	return s.BroadcastMinutes(i) / float64(s.p)
}

// AccessLatencyMin implements vod.Performer: the worst wait for the next
// replica of the first segment,
//
//	BroadcastMinutes(1)/P = D1 * M*K*b/B = D1/(P+alpha).
func (s *Scheme) AccessLatencyMin() float64 {
	return s.PhaseOffsetMinutes(1)
}

// DiskBandwidthMbps implements vod.Performer: the display rate plus the
// rate of receiving data from one subchannel,
//
//	b + B/(K*P*M).
func (s *Scheme) DiskBandwidthMbps() float64 {
	return s.cfg.RateMbps + s.SubchannelMbps()
}

// BufferMbit implements vod.Performer: the PB-style worst case of holding
// the last two segments, scaled by the ratio of display rate to per-video
// channel bandwidth because the slow subchannels deliver data only
// marginally faster than the player drains it,
//
//	60*b*(D_{K-1} + D_K) * M*K*b/B
//	  = 60*b*D * M*K*b * (alpha^K - alpha^(K-2)) / (B * (alpha^K - 1)).
func (s *Scheme) BufferMbit() float64 {
	scale := float64(s.cfg.Videos*s.k) * s.cfg.RateMbps / s.cfg.ServerMbps // = 1/(P+alpha)
	return 60 * s.cfg.RateMbps * (s.FragmentMinutes(s.k-1) + s.FragmentMinutes(s.k)) * scale
}

// Reception implements vod.Scheme with the paper's full PPB client,
// including the buffer-reduction mechanism SB criticizes for its
// synchronization cost: "PPB occasionally pauses the incoming stream to
// allow the playback to catch up. This is done by allowing a client to
// discontinue the current stream and tune to another subchannel, which
// broadcasts the same fragment, at a later time to collect the remaining
// data." Concretely, each segment is received as a sequence of bursts: the
// client tunes as late as the playback deadline permits, downloads until
// its lead over the player reaches one replica offset worth of data
// (60*b*period/P Mbit — the minimum lead that makes a pause safe), pauses,
// and resumes mid-broadcast on a later replica. This is what makes the
// Table 1 storage bound attainable.
//
// Each segment's P subchannels broadcast it back-to-back, phase-shifted by
// 1/P of the broadcast period, so broadcast starts form a grid of pitch
// period/P and byte x of the segment is in flight at every grid time plus
// x/rate. All videos are symmetric, so the video index plays no part.
func (s *Scheme) Reception(arrivalMin float64, _ int) (downloads, playbacks []vod.Flow, err error) {
	// Playback begins at the earliest replica of the first segment.
	playAt := vod.FirstAtOrAfter(arrivalMin, s.PhaseOffsetMinutes(1), 0)
	for i := 1; i <= s.k; i++ {
		playDur := s.FragmentMinutes(i)
		bursts, err := s.segmentBursts(i, playAt)
		if err != nil {
			return nil, nil, err
		}
		downloads = append(downloads, bursts...)
		playbacks = append(playbacks, vod.Flow{Segment: i, StartMin: playAt, EndMin: playAt + playDur, RateMbps: s.cfg.RateMbps})
		playAt += playDur
	}
	return downloads, playbacks, nil
}

// segmentBursts builds the pause/resume download schedule for segment i
// whose playback starts at playStart minutes.
func (s *Scheme) segmentBursts(i int, playStart float64) ([]vod.Flow, error) {
	var (
		b     = s.cfg.RateMbps
		r     = s.SubchannelMbps()
		step  = s.PhaseOffsetMinutes(i)            // replica phase pitch
		total = s.FragmentMbits(i)                 // segment content
		theta = 60 * b * step                      // minimum lead that makes a pause safe
		x     = 0.0                                // Mbit received so far
		prev  = math.Inf(-1)                       // end of previous burst
		limit = 16 + 4*int(math.Ceil(total/theta)) // iteration guard
	)
	played := func(t float64) float64 {
		v := 60 * b * (t - playStart)
		if v < 0 {
			return 0
		}
		if v > total {
			return total
		}
		return v
	}
	var bursts []vod.Flow
	for n := 0; x < total-1e-9; n++ {
		if n >= limit {
			return nil, fmt.Errorf("ppb: segment %d burst schedule did not converge after %d bursts", i, n)
		}
		// Byte x is in flight at every grid time k*step plus x/(60r);
		// resume as late as the playback deadline of byte x permits.
		deadline := playStart + x/(60*b)
		base := x / (60 * r)
		// The epsilon absorbs float rounding when the deadline falls
		// exactly on the replica grid; overshooting the deadline by
		// step*1e-9 minutes is far below the data tolerance.
		kk := math.Floor((deadline-base)/step + 1e-9)
		start := base + kk*step
		if start < prev-1e-9 {
			return nil, fmt.Errorf("ppb: segment %d: no replica carries byte %.3f Mbit between %.6f and its deadline %.6f",
				i, x, prev, deadline)
		}
		if start < prev {
			start = prev
		}
		// Download until done, or until the lead over the player
		// reaches theta (then a pause of up to one replica offset is
		// safe).
		fullEnd := start + (total-x)/(60*r)
		pauseAt := math.Inf(1)
		if lead := x + 0 - played(start); lead < theta {
			// Before playback starts the lead grows at 60r; after,
			// at 60(r-b).
			if start < playStart {
				t := start + (theta-x)/(60*r)
				if t <= playStart {
					pauseAt = t
				} else {
					leadAtPlay := x + 60*r*(playStart-start)
					pauseAt = playStart + (theta-leadAtPlay)/(60*(r-b))
				}
			} else {
				pauseAt = start + (theta-lead)/(60*(r-b))
			}
		}
		end := math.Min(fullEnd, pauseAt)
		if end <= start+1e-12 {
			// Degenerate alignment: the lead is already theta at the
			// resume point; the next grid slot still meets the
			// deadline, so skip forward one replica.
			prev = start + step
			continue
		}
		bursts = append(bursts, vod.Flow{Segment: i, StartMin: start, EndMin: end, RateMbps: r})
		x += 60 * r * (end - start)
		prev = end
	}
	return bursts, nil
}

// String summarizes the scheme.
func (s *Scheme) String() string {
	return fmt.Sprintf("%s{K=%d P=%d alpha=%.4f}", s.Name(), s.k, s.p, s.alpha)
}
