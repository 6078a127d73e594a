// Package core implements Skyscraper Broadcasting (SB), the paper's primary
// contribution (Hua & Sheu, SIGCOMM '97, Sections 3-4).
//
// An SB Scheme divides the server bandwidth into floor(B/b) logical channels
// of one display rate each, dedicates K = floor(B/(b*M)) channels to each of
// the M popular videos, fragments each video according to the skyscraper
// broadcast series capped at a width W, and repeatedly broadcasts fragment i
// on channel i at the display rate. Clients receive the fragments with two
// loaders (odd and even transmission groups) and play back jitter-free after
// a worst-case wait of D1 = D / sum(min(f(i), W)) minutes.
//
// The package provides both the closed-form performance model of Table 1
// (access latency, client buffer space, client disk bandwidth) and an exact
// integer-time reception scheduler used to verify the closed forms and to
// drive the event simulator and the live network client.
package core

import (
	"fmt"

	"skyscraper/internal/series"
	"skyscraper/internal/vod"
)

// Scheme is an instantiated Skyscraper Broadcasting configuration for one
// video: the channel count K, the width W, and the derived fragmentation.
// All methods are safe for concurrent use; a Scheme is immutable after New.
type Scheme struct {
	cfg    vod.Config
	ser    series.Series
	width  int64
	k      int
	sizes  []int64 // capped relative fragment sizes, len k
	groups []series.Group
	total  int64  // sum of sizes: video length in D1 units
	name   string // the paper's curve label, see Name
}

// New builds the SB scheme for cfg with the paper's skyscraper series and
// the given width W. width <= 0 means uncapped (the paper's W = infinity
// curves). New fails if cfg is invalid or cannot afford K >= 1 channels per
// video.
func New(cfg vod.Config, width int64) (*Scheme, error) {
	return NewWithSeries(cfg, series.Skyscraper{}, width)
}

// NewWithSeries builds an SB-style scheme over an arbitrary broadcast
// series (Section 6 notes SB is characterized by a series and a width). The
// series' transmission groups must alternate parity, otherwise the
// two-loader client design is unsound and an error is returned.
func NewWithSeries(cfg vod.Config, s series.Series, width int64) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.ChannelsPerVideo()
	sizes := series.Values(s, k, width)
	groups := series.Groups(sizes)
	if err := series.CheckAlternation(groups); err != nil {
		return nil, err
	}
	sch := &Scheme{
		cfg:    cfg,
		ser:    s,
		width:  width,
		k:      k,
		sizes:  sizes,
		groups: groups,
		total:  series.Sum(s, k, width),
		name:   "SB:W=infinite",
	}
	if width > 0 {
		sch.name = fmt.Sprintf("SB:W=%d", width)
	}
	return sch, nil
}

// Config returns the system parameters the scheme was built for.
func (s *Scheme) Config() vod.Config { return s.cfg }

// K returns the number of logical channels (and fragments) per video.
func (s *Scheme) K() int { return s.k }

// Width returns the configured width W; 0 means uncapped.
func (s *Scheme) Width() int64 { return s.width }

// EffectiveWidth returns the largest fragment size actually used. With a
// small K the cap may never bind, so the effective width — which is what
// the buffer bound depends on — can be smaller than the configured W.
func (s *Scheme) EffectiveWidth() int64 { return s.sizes[s.k-1] }

// Sizes returns the relative fragment sizes in D1 units. The slice is
// shared; callers must not modify it.
func (s *Scheme) Sizes() []int64 { return s.sizes }

// Groups returns the transmission groups. The slice is shared; callers must
// not modify it.
func (s *Scheme) Groups() []series.Group { return s.groups }

// TotalUnits returns the video length measured in D1 units, i.e.
// sum(min(f(i), W)).
func (s *Scheme) TotalUnits() int64 { return s.total }

// UnitMinutes returns D1, the duration of one broadcast unit (= the first
// fragment = the worst access latency) in minutes:
//
//	D1 = D / sum_{i=1..K} min(f(i), W)     (Section 3.2)
func (s *Scheme) UnitMinutes() float64 {
	return s.cfg.LengthMin / float64(s.total)
}

// FragmentMinutes returns the playback duration of fragment i (1-based) in
// minutes.
func (s *Scheme) FragmentMinutes(i int) float64 {
	if i < 1 || i > s.k {
		panic(fmt.Sprintf("core: FragmentMinutes(%d): fragment out of range 1..%d", i, s.k))
	}
	return float64(s.sizes[i-1]) * s.UnitMinutes()
}

// FragmentMbits returns the size of fragment i in Mbit.
func (s *Scheme) FragmentMbits(i int) float64 {
	return 60 * s.cfg.RateMbps * s.FragmentMinutes(i)
}

// AccessLatencyMin returns the worst-case service latency in minutes, which
// equals D1: a new broadcast of the first fragment starts every D1 minutes
// on channel 1.
func (s *Scheme) AccessLatencyMin() float64 { return s.UnitMinutes() }

// BufferMbit returns the client buffer-space requirement in Mbit:
//
//	60 * b * D1 * (W - 1)     (Section 4)
//
// using the effective width, since the bound derives from the last group
// transition actually present in the fragmentation.
func (s *Scheme) BufferMbit() float64 {
	return 60 * s.cfg.RateMbps * s.UnitMinutes() * float64(s.EffectiveWidth()-1)
}

// DiskBandwidthMbps returns the client storage-I/O bandwidth requirement in
// Mbit/s (Section 5):
//
//	b        if W = 1 or K = 1  (a single just-in-time stream)
//	2b       if W = 2 or K in {2, 3}
//	3b       otherwise          (two loaders writing + the player reading)
func (s *Scheme) DiskBandwidthMbps() float64 {
	b := s.cfg.RateMbps
	w := s.EffectiveWidth()
	switch {
	case w == 1 || s.k == 1:
		return b
	case w == 2 || s.k == 2 || s.k == 3:
		return 2 * b
	default:
		return 3 * b
	}
}

// ChannelPeriodUnits returns the broadcast period, in D1 units, of the
// channel carrying fragment i: every channel rebroadcasts its fragment
// back-to-back, so the period equals the fragment's own size, and every
// broadcast starts at an absolute time that is a multiple of that size.
func (s *Scheme) ChannelPeriodUnits(i int) int64 {
	if i < 1 || i > s.k {
		panic(fmt.Sprintf("core: ChannelPeriodUnits(%d): fragment out of range 1..%d", i, s.k))
	}
	return s.sizes[i-1]
}

// ServerChannelsUsed returns the number of b-Mbit/s channels the scheme
// consumes across all M videos (K per video).
func (s *Scheme) ServerChannelsUsed() int { return s.k * s.cfg.Videos }

// Name implements the repository-wide performer convention, matching the
// paper's curve labels ("SB:W=52"; width 0 renders as "SB:W=infinite").
func (s *Scheme) Name() string { return s.name }

// String summarizes the scheme.
func (s *Scheme) String() string {
	return fmt.Sprintf("SB{K=%d W=%d series=%s D1=%.4fmin groups=%d}",
		s.k, s.width, s.ser.Name(), s.UnitMinutes(), len(s.groups))
}
