// Package staggered implements the earliest periodic broadcast scheme the
// paper discusses (Section 1, citing Dan, Sitaram and Shahabuddin): each
// video is broadcast in its entirety on N = floor(B/(b*M)) channels whose
// start times are staggered by D/N minutes. Service latency improves only
// linearly with server bandwidth — the weakness that motivated the pyramid
// family and Skyscraper Broadcasting — but clients need no extra disk at
// all: they tune to one stream and play it straight through.
package staggered

import (
	"fmt"

	"skyscraper/internal/vod"
)

// Scheme is an instantiated staggered ("plain periodic") broadcast
// configuration.
type Scheme struct {
	cfg vod.Config
	n   int
}

// New builds the staggered scheme for cfg: N = floor(B/(b*M)) phase-shifted
// full-file streams per video.
func New(cfg vod.Config) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheme{cfg: cfg, n: cfg.ChannelsPerVideo()}, nil
}

// Config returns the system parameters the scheme was built for.
func (s *Scheme) Config() vod.Config { return s.cfg }

// Streams returns N, the number of staggered streams per video.
func (s *Scheme) Streams() int { return s.n }

// BatchingIntervalMin returns the stagger between consecutive streams of
// one video, D/N minutes — the paper's batching interval "B minutes".
func (s *Scheme) BatchingIntervalMin() float64 {
	return s.cfg.LengthMin / float64(s.n)
}

// Name implements vod.Performer.
func (s *Scheme) Name() string { return "Staggered" }

// AccessLatencyMin implements vod.Performer: the worst wait is one full
// batching interval.
func (s *Scheme) AccessLatencyMin() float64 { return s.BatchingIntervalMin() }

// BufferMbit implements vod.Performer: a staggered client consumes its
// stream directly and buffers nothing.
func (s *Scheme) BufferMbit() float64 { return 0 }

// DiskBandwidthMbps implements vod.Performer: one stream at the display
// rate passes through the client.
func (s *Scheme) DiskBandwidthMbps() float64 { return s.cfg.RateMbps }

// Reception implements vod.Scheme: the client waits for the next of the N
// phase-shifted full-file streams of its video and plays it straight
// through, so its one download is its playback.
func (s *Scheme) Reception(arrivalMin float64, _ int) (downloads, playbacks []vod.Flow, err error) {
	start := vod.FirstAtOrAfter(arrivalMin, s.BatchingIntervalMin(), 0)
	f := []vod.Flow{{Segment: 1, StartMin: start, EndMin: start + s.cfg.LengthMin, RateMbps: s.cfg.RateMbps}}
	return f, f, nil
}

// String summarizes the scheme.
func (s *Scheme) String() string {
	return fmt.Sprintf("Staggered{N=%d interval=%.2fmin}", s.n, s.BatchingIntervalMin())
}
