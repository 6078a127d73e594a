// Package pyramid implements Pyramid Broadcasting (PB), the baseline scheme
// of Viswanathan and Imieliński that Section 2 of the skyscraper paper
// describes and Section 5 compares against.
//
// PB partitions each video into K segments of geometrically increasing
// size (factor alpha) and divides the server bandwidth into K logical
// channels of B/K Mbit/s. Channel i broadcasts the i-th segments of all M
// videos sequentially. Because the channel rate B/K far exceeds the display
// rate, a client downloads each segment much faster than it plays it,
// yielding excellent access latency at the cost of a very large client disk
// (more than 75% of the video) and disk bandwidth around 50x the display
// rate.
package pyramid

import (
	"fmt"
	"math"

	"skyscraper/internal/vod"
)

// E is Euler's constant, the alpha value PB's parameter methods aim for:
// for a fixed bandwidth budget, access latency is minimized near alpha = e.
const E = math.E

// Method selects PB's design-parameter determination rule (Section 2).
type Method int

const (
	// MethodA ("PB:a") chooses K = ceil(B/(b*M*e)), giving alpha <= e.
	MethodA Method = iota
	// MethodB ("PB:b") chooses K = floor(B/(b*M*e)), giving alpha >= e.
	MethodB
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == MethodA {
		return "PB:a"
	}
	return "PB:b"
}

// Scheme is an instantiated Pyramid Broadcasting configuration.
type Scheme struct {
	cfg    vod.Config
	method Method
	k      int
	alpha  float64
}

// New determines PB's design parameters for cfg using the given method. It
// returns vod.ErrInfeasible (wrapped) when the continuity constraint
// alpha > 1 cannot be met — for the paper's workload this happens below
// roughly 90 Mbit/s ("PB and PPB do not work if the server bandwidth is
// less than 90 Mbits/sec", Section 5.1).
func New(cfg vod.Config, method Method) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	raw := cfg.ServerMbps / (cfg.RateMbps * float64(cfg.Videos) * E)
	var k int
	switch method {
	case MethodA:
		k = int(math.Ceil(raw))
	case MethodB:
		k = int(math.Floor(raw))
	default:
		return nil, fmt.Errorf("pyramid: unknown method %d", method)
	}
	if k < 2 {
		return nil, fmt.Errorf("pyramid: %v needs K >= 2, got %d for B = %v Mbit/s: %w",
			method, k, cfg.ServerMbps, vod.ErrInfeasible)
	}
	alpha := cfg.ServerMbps / (cfg.RateMbps * float64(cfg.Videos) * float64(k))
	if alpha <= 1 {
		return nil, fmt.Errorf("pyramid: %v gives alpha = %v <= 1 for B = %v Mbit/s: %w",
			method, alpha, cfg.ServerMbps, vod.ErrInfeasible)
	}
	return &Scheme{cfg: cfg, method: method, k: k, alpha: alpha}, nil
}

// Config returns the system parameters the scheme was built for.
func (s *Scheme) Config() vod.Config { return s.cfg }

// Method returns the parameter-determination method.
func (s *Scheme) Method() Method { return s.method }

// K returns the number of segments per video (= logical channels).
func (s *Scheme) K() int { return s.k }

// Alpha returns the geometric fragmentation factor.
func (s *Scheme) Alpha() float64 { return s.alpha }

// Name implements vod.Performer.
func (s *Scheme) Name() string { return s.method.String() }

// ChannelMbps returns the bandwidth of one logical channel, B/K.
func (s *Scheme) ChannelMbps() float64 { return s.cfg.ServerMbps / float64(s.k) }

// FragmentMinutes returns D_i, the playback length in minutes of segment i
// (1-based):
//
//	D_i = D * alpha^(i-1) * (alpha-1) / (alpha^K - 1)
//
// so that the D_i form a geometric series with factor alpha summing to D.
func (s *Scheme) FragmentMinutes(i int) float64 {
	if i < 1 || i > s.k {
		panic(fmt.Sprintf("pyramid: FragmentMinutes(%d): segment out of range 1..%d", i, s.k))
	}
	return s.cfg.LengthMin * math.Pow(s.alpha, float64(i-1)) * (s.alpha - 1) / (math.Pow(s.alpha, float64(s.k)) - 1)
}

// FragmentMbits returns the size of segment i in Mbit.
func (s *Scheme) FragmentMbits(i int) float64 {
	return 60 * s.cfg.RateMbps * s.FragmentMinutes(i)
}

// BroadcastMinutes returns how long one broadcast of segment i occupies its
// logical channel: the segment's data transmitted at B/K Mbit/s.
func (s *Scheme) BroadcastMinutes(i int) float64 {
	return s.FragmentMbits(i) / (60 * s.ChannelMbps())
}

// AccessLatencyMin implements vod.Performer. The access time of a video is
// the access time of its first segment: channel 1 cycles through the first
// segments of all M videos, so the worst wait is one full cycle,
//
//	M * 60*b*D1 / (B/K) seconds = D1 * M*K*b/B minutes = D1/alpha.
func (s *Scheme) AccessLatencyMin() float64 {
	return s.FragmentMinutes(1) * float64(s.cfg.Videos*s.k) * s.cfg.RateMbps / s.cfg.ServerMbps
}

// DiskBandwidthMbps implements vod.Performer: the client plays back at b
// while downloading from up to two logical channels at B/K each,
//
//	b + 2*B/K    (approaches b*(2*M*e + 1), about 55x b for M = 10)
func (s *Scheme) DiskBandwidthMbps() float64 {
	return s.cfg.RateMbps + 2*s.ChannelMbps()
}

// BufferMbit implements vod.Performer. The maximum occupancy occurs while
// playing back segment K-1 and receiving both S_{K-1} and S_K: all of
// S_{K-1} plus the portion of S_K not yet consumed when its download
// completes,
//
//	60*b*(D_{K-1} + D_K*(1 - b*K/B)) Mbit
//
// which approaches 0.84 * (60*b*D) for M = 10 at large B — more than 80%
// of the video file (Section 2).
func (s *Scheme) BufferMbit() float64 {
	dPrev := s.FragmentMinutes(s.k - 1)
	dLast := s.FragmentMinutes(s.k)
	played := s.cfg.RateMbps * float64(s.k) / s.cfg.ServerMbps // = 1/(M*alpha)
	return 60 * s.cfg.RateMbps * (dPrev + dLast*(1-played))
}

// Reception implements vod.Scheme. Channel i cycles through the i-th
// segments of all M videos sequentially; the client downloads its video's
// first segment at the first occurrence, plays it back concurrently, and
// tunes for each subsequent segment at the earliest broadcast after
// beginning to play back the current one (Section 2).
func (s *Scheme) Reception(arrivalMin float64, video int) (downloads, playbacks []vod.Flow, err error) {
	var playAt, prevPlayStart float64
	for i := 1; i <= s.k; i++ {
		// Channel i broadcasts S_i of video v during
		// [cycle*n + v*T_i, ... + T_i), where T_i is the broadcast
		// duration of one segment at the channel rate.
		dur := s.BroadcastMinutes(i)
		cycle := float64(s.cfg.Videos) * dur
		offset := float64(video) * dur
		// "It downloads the next fragment at the earliest possible time
		// after beginning to play back the current fragment": tune for
		// segment i once segment i-1's playback has begun.
		ready := arrivalMin
		if i > 1 {
			ready = prevPlayStart
		}
		start := vod.FirstAtOrAfter(ready, cycle, offset)
		if i == 1 {
			playAt = start // playback begins with the first download
		}
		playDur := s.FragmentMinutes(i)
		downloads = append(downloads, vod.Flow{Segment: i, StartMin: start, EndMin: start + dur, RateMbps: s.ChannelMbps()})
		playbacks = append(playbacks, vod.Flow{Segment: i, StartMin: playAt, EndMin: playAt + playDur, RateMbps: s.cfg.RateMbps})
		prevPlayStart = playAt
		playAt += playDur
	}
	return downloads, playbacks, nil
}

// String summarizes the scheme.
func (s *Scheme) String() string {
	return fmt.Sprintf("%s{K=%d alpha=%.4f}", s.Name(), s.k, s.alpha)
}
