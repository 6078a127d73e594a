// Package vod holds the shared video-on-demand system model used by every
// broadcasting scheme in this repository: the server/network parameters the
// paper calls B, M, D and b, plus the derived per-video quantities that the
// analytic formulas and the simulator both consume.
//
// Units follow the paper exactly:
//
//   - bandwidth is in Mbit/s,
//   - video length and latency are in minutes,
//   - buffer space is in Mbit (the paper's figures divide by 8 to plot
//     MBytes; helpers for that conversion live here too).
package vod

import (
	"errors"
	"fmt"
	"math"
)

// Config describes one metropolitan VoD deployment: a server with B Mbit/s
// of network-I/O bandwidth periodically broadcasting the M most popular
// videos, each D minutes long and displayed at b Mbit/s.
//
// The zero value is not usable; construct with the fields set and call
// Validate, or use DefaultConfig for the paper's Section 5 workload.
type Config struct {
	// ServerMbps is B, the total server network-I/O bandwidth in Mbit/s.
	ServerMbps float64
	// Videos is M, the number of popular videos being broadcast.
	Videos int
	// LengthMin is D, the length of each video in minutes.
	LengthMin float64
	// RateMbps is b, the display (consumption) rate of each video in
	// Mbit/s.
	RateMbps float64
}

// DefaultConfig returns the workload used throughout the paper's
// performance study (Section 5): M = 10 MPEG-1 videos of 120 minutes at
// 1.5 Mbit/s, with the server bandwidth supplied by the caller.
func DefaultConfig(serverMbps float64) Config {
	return Config{
		ServerMbps: serverMbps,
		Videos:     10,
		LengthMin:  120,
		RateMbps:   1.5,
	}
}

// Validate reports whether the configuration is internally consistent and
// sufficient to broadcast at least one channel per video.
func (c Config) Validate() error {
	switch {
	case !positiveFinite(c.ServerMbps):
		return fmt.Errorf("vod: server bandwidth B = %v Mbit/s must be positive and finite", c.ServerMbps)
	case c.Videos <= 0:
		return fmt.Errorf("vod: video count M = %d must be positive", c.Videos)
	case !positiveFinite(c.LengthMin):
		return fmt.Errorf("vod: video length D = %v min must be positive and finite", c.LengthMin)
	case !positiveFinite(c.RateMbps):
		return fmt.Errorf("vod: display rate b = %v Mbit/s must be positive and finite", c.RateMbps)
	}
	if c.ChannelsPerVideo() < 1 {
		return fmt.Errorf("vod: B = %v Mbit/s cannot afford one %v Mbit/s channel per video for M = %d videos",
			c.ServerMbps, c.RateMbps, c.Videos)
	}
	return nil
}

// positiveFinite is false for zero, negatives, NaN and +Inf alike.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Channels returns floor(B/b), the number of b-Mbit/s logical channels the
// server bandwidth can sustain (Section 3.1).
func (c Config) Channels() int {
	return int(c.ServerMbps / c.RateMbps)
}

// ChannelsPerVideo returns K = floor(B/(b*M)), the number of logical
// channels dedicated to each video under Skyscraper Broadcasting's even
// allocation (Section 3.1).
func (c Config) ChannelsPerVideo() int {
	return int(c.ServerMbps / (c.RateMbps * float64(c.Videos)))
}

// VideoMbits returns the size of one whole video in Mbit: 60*b*D.
func (c Config) VideoMbits() float64 {
	return 60 * c.RateMbps * c.LengthMin
}

// ErrInfeasible is returned by scheme constructors when the configuration
// cannot satisfy a scheme's continuity constraints (for example PB and PPB
// require alpha > 1, which fails below roughly 90 Mbit/s for the paper's
// workload).
var ErrInfeasible = errors.New("vod: configuration infeasible for this scheme")

// MbitToMByte converts a quantity in Mbit to MByte, the unit the paper's
// storage figures are plotted in.
func MbitToMByte(mbit float64) float64 { return mbit / 8 }

// MbpsToMBps converts Mbit/s to MByte/s, the unit of the paper's disk
// bandwidth figure.
func MbpsToMBps(mbps float64) float64 { return mbps / 8 }

// Performer is the metric surface every broadcasting scheme in this
// repository exposes; the paper's Table 1 is exactly one row per Performer
// (Section 5 compares schemes on these three metrics).
type Performer interface {
	// Name identifies the scheme and its parameter method, e.g. "SB:W=52"
	// or "PPB:b".
	Name() string
	// AccessLatencyMin is the worst-case service latency in minutes.
	AccessLatencyMin() float64
	// BufferMbit is the client disk-space requirement in Mbit.
	BufferMbit() float64
	// DiskBandwidthMbps is the client storage-I/O bandwidth requirement
	// in Mbit/s.
	DiskBandwidthMbps() float64
}

// Flow is a constant-rate transfer of one segment's data over an interval
// of virtual time: a download from a broadcast channel, or the player
// consuming the segment.
type Flow struct {
	Segment  int // 1-based segment index
	StartMin float64
	EndMin   float64
	RateMbps float64
}

// Mbit is the data the flow carries.
func (f Flow) Mbit() float64 { return (f.EndMin - f.StartMin) * 60 * f.RateMbps }

// Scheme is a broadcasting scheme as the simulator plays it: its closed
// forms, the deployment it was built for, and the client protocol it
// prescribes. A new scheme implements it in its own package and takes one
// line in the name table of internal/bench.
type Scheme interface {
	Performer
	// Config returns the deployment the scheme was built for.
	Config() Config
	// Reception states the client protocol for a client arriving at
	// arrivalMin (virtual minutes, finite and >= 0) for video (in
	// 0..Videos-1): the download flows it tunes to and the playback flows
	// that consume them. The caller checks the flows for jitter.
	Reception(arrivalMin float64, video int) (downloads, playbacks []Flow, err error)
}

// FirstAtOrAfter returns the earliest element of {offset + n*period : n>=0}
// that is >= t; t at or before offset yields offset itself. It is when a
// client arriving at t first sees a broadcast that repeats every period.
func FirstAtOrAfter(t, period, offset float64) float64 {
	if t <= offset {
		return offset
	}
	n := math.Ceil((t - offset) / period)
	at := offset + n*period
	// Guard against float rounding placing us one period late when t
	// falls exactly on the grid.
	if prev := at - period; prev >= t {
		return prev
	}
	return at
}
