package core

import (
	"fmt"
	"math"

	"skyscraper/internal/series"
	"skyscraper/internal/vod"
)

// LoaderID identifies one of the client's two download routines
// (Section 3.3). The Odd Loader fetches the odd transmission groups, the
// Even Loader the even ones.
type LoaderID int

// The two loaders.
const (
	OddLoader LoaderID = iota
	EvenLoader
)

// String implements fmt.Stringer.
func (l LoaderID) String() string {
	if l == OddLoader {
		return "odd"
	}
	return "even"
}

// LoaderFor returns which loader downloads group g.
func LoaderFor(g series.Group) LoaderID {
	if g.Odd() {
		return OddLoader
	}
	return EvenLoader
}

// Download is one scheduled group reception: the loader tunes to the
// group's channels in sequence, downloading each fragment in its entirety
// back-to-back. Times are absolute, in D1 units; the broadcast of a
// fragment of size A always begins at a multiple of A, so StartUnit is a
// multiple of the group's size.
type Download struct {
	Group  series.Group
	Loader LoaderID
	// StartUnit is when the loader begins receiving the group's first
	// fragment.
	StartUnit int64
}

// EndUnit returns when the loader finishes the group's last fragment.
func (d Download) EndUnit() int64 {
	return d.StartUnit + int64(d.Group.Count)*d.Group.Size
}

// FragmentStart returns when fragment j of the group (0-based within the
// group) begins downloading. Fragments of a group download back-to-back;
// this is sound because all channels of a group share the same period and
// the same absolute alignment.
func (d Download) FragmentStart(j int) int64 {
	return d.StartUnit + int64(j)*d.Group.Size
}

// Schedule is a client's complete, deterministic reception plan for one
// playback, computed at admission time. SB clients always tune to the
// beginning of a broadcast, so the whole plan follows from the playback
// start time alone.
type Schedule struct {
	// PlayStartUnit is when playback of the video begins (a multiple of
	// 1 D1 unit: the start of a fragment-1 broadcast).
	PlayStartUnit int64
	// Downloads lists one entry per transmission group, in video order.
	Downloads []Download
}

// ErrSchedule reports a violated reception deadline; under the paper's
// correctness theorem it never occurs for schemes built by New, and its
// presence in a simulation indicates a protocol bug.
type ErrSchedule struct {
	Group    series.Group
	Earliest int64
	Deadline int64
}

// Error implements error.
func (e *ErrSchedule) Error() string {
	return fmt.Sprintf("core: group %d %v cannot be received in time: earliest tune %d > deadline %d (D1 units)",
		e.Group.Index, e.Group, e.Earliest, e.Deadline)
}

// PlanSchedule computes the reception plan for a client whose playback
// starts at playStart (in absolute D1 units; playback always starts at an
// integer unit, the next fragment-1 broadcast after arrival).
//
// Each loader processes its groups in video order ("downloads its groups
// one at a time in its entirety, and in the order they occur in the video
// file", Section 3.3). A group of size A can only be tuned at a multiple of
// A, and data arrives exactly at the display rate, so the group must be
// tuned no later than its playback deadline. The loader tunes at the
// *latest* broadcast meeting the deadline — the policy behind the paper's
// Figure 2-4 analysis, whose "possible broadcast times" for a group of size
// A span at most A distinct phases ending at the deadline. Lazy tuning is
// what makes the client buffer bound 60*b*D1*(W-1) tight; an eager client
// would prefetch capped tail groups far too early.
//
// The plan fails — returning *ErrSchedule — if the latest feasible
// broadcast of a group would begin before the loader finished its previous
// group; Section 4 proves this never happens for skyscraper fragmentations
// (the parity interleaving of odd and even groups prevents it).
func (s *Scheme) PlanSchedule(playStart int64) (*Schedule, error) {
	return PlanForGroups(s.groups, playStart)
}

// Reception implements vod.Scheme: the server's K channels per video each
// rebroadcast their fragment back-to-back at the display rate (all aligned
// at virtual time 0), and the client executes the two-loader reception
// plan, tuning only at broadcast beginnings. All videos are symmetric, so
// the video index plays no part.
func (s *Scheme) Reception(arrivalMin float64, _ int) (downloads, playbacks []vod.Flow, err error) {
	d1 := s.UnitMinutes()
	// Playback starts at the next fragment-1 broadcast: channel 1 has
	// period D1 aligned to time 0.
	playUnit := int64(math.Ceil(arrivalMin / d1))
	plan, err := s.PlanSchedule(playUnit)
	if err != nil {
		return nil, nil, err
	}
	b := s.cfg.RateMbps
	for _, dl := range plan.Downloads {
		g := dl.Group
		for j := 0; j < g.Count; j++ {
			seg := g.First + j
			// Compute every boundary as unit*d1 so that identical
			// instants are bitwise-equal floats; back-to-back
			// fragment downloads must not appear to overlap.
			dU := dl.FragmentStart(j)
			pU := playUnit + g.StartUnit + int64(j)*g.Size
			downloads = append(downloads, vod.Flow{
				Segment: seg, StartMin: float64(dU) * d1, EndMin: float64(dU+g.Size) * d1, RateMbps: b})
			playbacks = append(playbacks, vod.Flow{
				Segment: seg, StartMin: float64(pU) * d1, EndMin: float64(pU+g.Size) * d1, RateMbps: b})
		}
	}
	return downloads, playbacks, nil
}

// PlanForGroups is PlanSchedule for a bare transmission-group list, used by
// network clients that learn the fragmentation from the server's handshake
// rather than holding a full Scheme.
func PlanForGroups(groups []series.Group, playStart int64) (*Schedule, error) {
	if playStart < 0 {
		return nil, fmt.Errorf("core: PlanForGroups(%d): playback start must be >= 0", playStart)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: PlanForGroups: no transmission groups")
	}
	free := map[LoaderID]int64{OddLoader: playStart, EvenLoader: playStart}
	plan := &Schedule{PlayStartUnit: playStart, Downloads: make([]Download, 0, len(groups))}
	for _, g := range groups {
		ld := LoaderFor(g)
		deadline := playStart + g.StartUnit
		tune := lastMultiple(deadline, g.Size)
		if tune < free[ld] {
			return nil, &ErrSchedule{Group: g, Earliest: free[ld], Deadline: deadline}
		}
		d := Download{Group: g, Loader: ld, StartUnit: tune}
		plan.Downloads = append(plan.Downloads, d)
		free[ld] = d.EndUnit()
	}
	return plan, nil
}

// lastMultiple returns the largest multiple of period that is <= t, for
// t >= 0.
func lastMultiple(t, period int64) int64 {
	if period <= 0 {
		panic(fmt.Sprintf("core: lastMultiple: period %d must be positive", period))
	}
	return t - t%period
}

// EndUnit returns when the last group finishes downloading.
func (p *Schedule) EndUnit() int64 {
	if len(p.Downloads) == 0 {
		return p.PlayStartUnit
	}
	end := p.PlayStartUnit
	for _, d := range p.Downloads {
		if e := d.EndUnit(); e > end {
			end = e
		}
	}
	return end
}

// MaxConcurrentDownloads returns the peak number of simultaneously active
// group downloads in the plan. By construction it is at most 2 (one per
// loader); the tests assert this invariant across arrival phases.
func (p *Schedule) MaxConcurrentDownloads() int {
	type edge struct {
		t     int64
		delta int
	}
	edges := make([]edge, 0, 2*len(p.Downloads))
	for _, d := range p.Downloads {
		edges = append(edges, edge{d.StartUnit, +1}, edge{d.EndUnit(), -1})
	}
	// Insertion sort by time with -1 before +1 at equal times (a download
	// ending exactly when another starts does not overlap it).
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && less(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

func less(a, b struct {
	t     int64
	delta int
}) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.delta < b.delta
}
