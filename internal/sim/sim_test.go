package sim

import (
	"math"
	"testing"
	"testing/quick"

	"skyscraper/internal/core"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
)

func sbSim(t *testing.T, serverMbps float64, width int64) (*core.Scheme, ClientSim) {
	t.Helper()
	sch, err := core.New(vod.DefaultConfig(serverMbps), width)
	if err != nil {
		t.Fatal(err)
	}
	return sch, New(sch)
}

func TestSBClientBasics(t *testing.T) {
	sch, s := sbSim(t, 320, 2)
	res, err := s.Client(10.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WaitMin < 0 || res.WaitMin > sch.AccessLatencyMin()+1e-9 {
		t.Errorf("wait = %v, want within [0, %v]", res.WaitMin, sch.AccessLatencyMin())
	}
	if math.Abs(res.DownloadedMbit-10800) > 1e-6 {
		t.Errorf("downloaded %v Mbit, want 10800 (whole video, each byte once)", res.DownloadedMbit)
	}
	if res.MaxStreams > 2 {
		t.Errorf("max streams = %d, want <= 2", res.MaxStreams)
	}
	wantEnd := res.PlayStartMin + 120
	if math.Abs(res.PlaybackEndMin-wantEnd) > 1e-9 {
		t.Errorf("playback end %v, want %v", res.PlaybackEndMin, wantEnd)
	}
}

// TestSBMeasuredMatchesAnalytic sweeps arrival phases and checks that the
// measured worst-case latency and buffer equal the closed forms of
// Sections 3-4 — the central cross-validation of this reproduction.
func TestSBMeasuredMatchesAnalytic(t *testing.T) {
	for _, tc := range []struct {
		serverMbps float64
		width      int64
	}{
		{320, 2}, {320, 12}, {320, 52}, {600, 52}, {150, 5},
	} {
		sch, s := sbSim(t, tc.serverMbps, tc.width)
		d1 := sch.UnitMinutes()
		period := sch.PhasePeriod()
		samples := int64(600)
		stride := period / samples
		if stride < 1 {
			stride = 1
		}
		var worstWait, worstBuf float64
		for u := int64(0); u < period; u += stride {
			// Arrive just after a unit boundary: worst-case wait.
			arrival := (float64(u) + 1e-9) * d1
			res, err := s.Client(arrival, 0)
			if err != nil {
				t.Fatalf("B=%v W=%d phase %d: %v", tc.serverMbps, tc.width, u, err)
			}
			if res.WaitMin > worstWait {
				worstWait = res.WaitMin
			}
			if res.MaxBufferMbit > worstBuf {
				worstBuf = res.MaxBufferMbit
			}
		}
		if lat := sch.AccessLatencyMin(); math.Abs(worstWait-lat) > 1e-6 {
			t.Errorf("B=%v W=%d: worst measured wait %v, analytic %v", tc.serverMbps, tc.width, worstWait, lat)
		}
		// Enumerated phases must reach the analytic buffer bound
		// exactly when all phases are covered, and never exceed it.
		bound := sch.BufferMbit()
		if worstBuf > bound+1e-6 {
			t.Errorf("B=%v W=%d: measured buffer %v exceeds bound %v", tc.serverMbps, tc.width, worstBuf, bound)
		}
		if stride == 1 && math.Abs(worstBuf-bound) > 1e-6 {
			t.Errorf("B=%v W=%d: measured worst buffer %v, want exactly %v", tc.serverMbps, tc.width, worstBuf, bound)
		}
	}
}

// TestNewRejectsBadInput: the one simulator checks every scheme's input
// once — a negative, NaN or infinite arrival and an out-of-range video are
// refused — and names the simulation after the scheme.
func TestNewRejectsBadInput(t *testing.T) {
	cfg := vod.DefaultConfig(320)
	sb, err := core.New(cfg, 52)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pyramid.New(cfg, pyramid.MethodB)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := ppb.New(cfg, ppb.MethodB)
	if err != nil {
		t.Fatal(err)
	}
	st, err := staggered.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := core.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []vod.Scheme{sb, uncapped, pb, pp, st} {
		s := New(sch)
		if s.Name() != sch.Name() {
			t.Errorf("simulator named %q, scheme %q", s.Name(), sch.Name())
		}
		for _, bad := range []struct {
			arrival float64
			video   int
		}{
			{-1, 0}, {math.NaN(), 0}, {math.Inf(1), 0}, {math.Inf(-1), 0}, {1, 99}, {1, -1}, {1, cfg.Videos},
		} {
			if _, err := s.Client(bad.arrival, bad.video); err == nil {
				t.Errorf("%s: arrival %v video %d accepted", sch.Name(), bad.arrival, bad.video)
			}
		}
		if _, err := s.Client(1, cfg.Videos-1); err != nil {
			t.Errorf("%s: last video refused: %v", sch.Name(), err)
		}
	}
}

func pbSim(t *testing.T, serverMbps float64, m pyramid.Method) (*pyramid.Scheme, ClientSim) {
	t.Helper()
	sch, err := pyramid.New(vod.DefaultConfig(serverMbps), m)
	if err != nil {
		t.Fatal(err)
	}
	return sch, New(sch)
}

func TestPBClientJitterFreeAndBounded(t *testing.T) {
	for _, m := range []pyramid.Method{pyramid.MethodA, pyramid.MethodB} {
		for _, b := range []float64{100, 320, 600} {
			sch, s := pbSim(t, b, m)
			lat := sch.AccessLatencyMin()
			bound := sch.BufferMbit()
			var worstWait, worstBuf float64
			for i := 0; i < 400; i++ {
				arrival := float64(i) * lat / 37.7 // irrational-ish phase coverage
				for v := 0; v < 3; v++ {
					res, err := s.Client(arrival, v)
					if err != nil {
						t.Fatalf("%v B=%v arrival %v video %d: %v", m, b, arrival, v, err)
					}
					if res.WaitMin > worstWait {
						worstWait = res.WaitMin
					}
					if res.MaxBufferMbit > worstBuf {
						worstBuf = res.MaxBufferMbit
					}
					if res.MaxStreams > 2 {
						t.Fatalf("%v B=%v: %d concurrent downloads, PB uses at most 2", m, b, res.MaxStreams)
					}
					if math.Abs(res.DownloadedMbit-10800) > 1e-4 {
						t.Fatalf("%v B=%v: downloaded %v", m, b, res.DownloadedMbit)
					}
				}
			}
			if worstWait > lat+1e-9 {
				t.Errorf("%v B=%v: measured wait %v exceeds analytic %v", m, b, worstWait, lat)
			}
			if worstWait < 0.5*lat {
				t.Errorf("%v B=%v: worst measured wait %v far below analytic %v; phase sweep broken?", m, b, worstWait, lat)
			}
			if worstBuf > bound*1.0001 {
				t.Errorf("%v B=%v: measured buffer %v exceeds analytic %v", m, b, worstBuf, bound)
			}
			if worstBuf < 0.8*bound {
				t.Errorf("%v B=%v: measured buffer %v far below analytic %v", m, b, worstBuf, bound)
			}
		}
	}
}

func ppbSim(t *testing.T, serverMbps float64, m ppb.Method) (*ppb.Scheme, ClientSim) {
	t.Helper()
	sch, err := ppb.New(vod.DefaultConfig(serverMbps), m)
	if err != nil {
		t.Fatal(err)
	}
	return sch, New(sch)
}

func TestPPBClientJitterFreeAndBounded(t *testing.T) {
	for _, m := range []ppb.Method{ppb.MethodA, ppb.MethodB} {
		for _, b := range []float64{100, 320, 600} {
			sch, s := ppbSim(t, b, m)
			lat := sch.AccessLatencyMin()
			bound := sch.BufferMbit()
			var worstWait, worstBuf float64
			for i := 0; i < 400; i++ {
				arrival := float64(i) * lat / 23.3
				res, err := s.Client(arrival, 0)
				if err != nil {
					t.Fatalf("%v B=%v arrival %v: %v", m, b, arrival, err)
				}
				if res.WaitMin > worstWait {
					worstWait = res.WaitMin
				}
				if res.MaxBufferMbit > worstBuf {
					worstBuf = res.MaxBufferMbit
				}
				if math.Abs(res.DownloadedMbit-10800) > 1e-4 {
					t.Fatalf("%v B=%v: downloaded %v", m, b, res.DownloadedMbit)
				}
			}
			if worstWait > lat+1e-9 {
				t.Errorf("%v B=%v: measured wait %v exceeds analytic %v", m, b, worstWait, lat)
			}
			if worstWait < 0.5*lat {
				t.Errorf("%v B=%v: worst wait %v far below analytic %v", m, b, worstWait, lat)
			}
			// The eager client (no mid-broadcast pausing) must stay at
			// or below the paper's buffer bound.
			if worstBuf > bound*1.0001 {
				t.Errorf("%v B=%v: measured buffer %v exceeds analytic bound %v", m, b, worstBuf, bound)
			}
		}
	}
}

func TestStaggeredClient(t *testing.T) {
	sch, err := staggered.New(vod.DefaultConfig(300)) // N = 20, interval 6 min
	if err != nil {
		t.Fatal(err)
	}
	s := New(sch)
	res, err := s.Client(7.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PlayStartMin-12) > 1e-9 {
		t.Errorf("play start %v, want 12 (next 6-minute slot)", res.PlayStartMin)
	}
	if res.MaxBufferMbit > 1e-9 {
		t.Errorf("staggered client buffered %v Mbit, want 0", res.MaxBufferMbit)
	}
	if res.MaxStreams != 1 {
		t.Errorf("streams = %d, want 1", res.MaxStreams)
	}
	if res.WaitMin > sch.AccessLatencyMin() {
		t.Errorf("wait %v exceeds %v", res.WaitMin, sch.AccessLatencyMin())
	}
	if _, err := s.Client(-1, 0); err == nil {
		t.Error("negative arrival accepted")
	}
	if _, err := s.Client(0, 99); err == nil {
		t.Error("bad video accepted")
	}
}

func TestSweep(t *testing.T) {
	sch, s := sbSim(t, 320, 52)
	res, err := Sweep(s, 200, 500, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 200 || res.WaitMin.Count() != 200 {
		t.Errorf("sweep counted %d/%d", res.Clients, res.WaitMin.Count())
	}
	if res.WaitMin.Max() > sch.AccessLatencyMin()+1e-9 {
		t.Errorf("sweep max wait %v exceeds bound %v", res.WaitMin.Max(), sch.AccessLatencyMin())
	}
	if res.BufferMbit.Max() > sch.BufferMbit()+1e-6 {
		t.Errorf("sweep max buffer %v exceeds bound %v", res.BufferMbit.Max(), sch.BufferMbit())
	}
	if res.Streams.Max() > 2 {
		t.Errorf("sweep saw %v streams", res.Streams.Max())
	}
	if _, err := Sweep(s, 0, 1, 1, 1); err == nil {
		t.Error("Sweep accepted n=0")
	}
}

// TestSweepRejectsNonFiniteWindow: arrivals are drawn over [0, window),
// so a NaN or infinite window would hand every client a non-finite
// arrival — which a staggered client, whose flows are all arithmetic on
// it, would otherwise play without complaint.
func TestSweepRejectsNonFiniteWindow(t *testing.T) {
	_, sb := sbSim(t, 320, 52)
	st, err := staggered.New(vod.DefaultConfig(320))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ClientSim{sb, New(st)} {
		for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			if _, err := Sweep(s, 10, w, 10, 1); err == nil {
				t.Errorf("%s: Sweep accepted window %v", s.Name(), w)
			}
		}
	}
}

// TestSweepDeterministic checks that equal seeds reproduce results exactly.
func TestSweepDeterministic(t *testing.T) {
	_, s := sbSim(t, 320, 12)
	a, err := Sweep(s, 50, 100, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(s, 50, 100, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.WaitMin.Mean() != b.WaitMin.Mean() || a.BufferMbit.Max() != b.BufferMbit.Max() {
		t.Error("same-seed sweeps diverged")
	}
}

func TestRunFlowsRejectsViolations(t *testing.T) {
	// Playback before download: jitter.
	d := []vod.Flow{{Segment: 1, StartMin: 5, EndMin: 6, RateMbps: 1.5}}
	p := []vod.Flow{{Segment: 1, StartMin: 4, EndMin: 5, RateMbps: 1.5}}
	if _, err := runFlows(d, p, 0); err == nil {
		t.Error("causality violation accepted")
	}
	// Mismatched totals.
	p2 := []vod.Flow{{Segment: 1, StartMin: 6, EndMin: 8, RateMbps: 1.5}}
	if _, err := runFlows(d, p2, 0); err == nil {
		t.Error("size mismatch accepted")
	}
	// Played but never downloaded.
	p3 := []vod.Flow{{Segment: 2, StartMin: 6, EndMin: 7, RateMbps: 1.5}}
	if _, err := runFlows(d, p3, 0); err == nil {
		t.Error("undownloaded segment accepted")
	}
	// Duplicate downloads.
	d2 := append(d, d[0])
	if _, err := runFlows(d2, append(p, p[0]), 0); err == nil {
		t.Error("duplicate download accepted")
	}
	// Count mismatch.
	if _, err := runFlows(d, nil, 0); err == nil {
		t.Error("count mismatch accepted")
	}
}

// TestSBDiskIOTiers validates Section 5's client I/O bandwidth formula
// empirically: the measured peak storage-I/O over all phases equals b for
// W=1, 2b for W=2 (or K<=3), and 3b otherwise.
func TestSBDiskIOTiers(t *testing.T) {
	cases := []struct {
		serverMbps float64
		width      int64
	}{
		{600, 1}, {600, 2}, {45, 52}, {320, 5}, {320, 12}, {320, 52}, {600, 52},
	}
	for _, tc := range cases {
		sch, s := sbSim(t, tc.serverMbps, tc.width)
		want := sch.DiskBandwidthMbps()
		var worst float64
		period := sch.PhasePeriod()
		stride := period / 500
		if stride < 1 {
			stride = 1
		}
		d1 := sch.UnitMinutes()
		for u := int64(0); u < period; u += stride {
			res, err := s.Client(float64(u)*d1, 0)
			if err != nil {
				t.Fatalf("B=%v W=%d: %v", tc.serverMbps, tc.width, err)
			}
			if res.MaxIOMbps > worst {
				worst = res.MaxIOMbps
			}
		}
		if worst > want+1e-9 {
			t.Errorf("B=%v W=%d: measured peak I/O %v exceeds formula %v", tc.serverMbps, tc.width, worst, want)
		}
		if worst < want-1e-9 {
			t.Errorf("B=%v W=%d: measured peak I/O %v never reaches formula %v (tier too conservative?)",
				tc.serverMbps, tc.width, worst, want)
		}
	}
}

// TestPBDiskIOMatchesFormula checks the measured PB peak I/O against
// b + 2B/K.
func TestPBDiskIOMatchesFormula(t *testing.T) {
	sch, s := pbSim(t, 320, pyramid.MethodB)
	want := sch.DiskBandwidthMbps()
	var worst float64
	for i := 0; i < 300; i++ {
		res, err := s.Client(float64(i)*0.173, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxIOMbps > worst {
			worst = res.MaxIOMbps
		}
	}
	if worst > want+1e-9 {
		t.Errorf("measured peak I/O %v exceeds formula %v", worst, want)
	}
	if worst < 0.75*want {
		t.Errorf("measured peak I/O %v far below formula %v", worst, want)
	}
}

// TestPPBDiskIONearFormula checks PPB's measured peak I/O against b + r;
// the pause/resume client may transiently overlap two segments' bursts,
// so up to b + 2r is tolerated (Table 1 reports the steady rate).
func TestPPBDiskIONearFormula(t *testing.T) {
	sch, s := ppbSim(t, 320, ppb.MethodB)
	b := sch.Config().RateMbps
	r := sch.SubchannelMbps()
	var worst float64
	for i := 0; i < 200; i++ {
		res, err := s.Client(float64(i)*0.37, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxIOMbps > worst {
			worst = res.MaxIOMbps
		}
	}
	if worst > b+2*r+1e-9 {
		t.Errorf("measured peak I/O %v exceeds b+2r = %v", worst, b+2*r)
	}
	if worst < b+r-1e-9 {
		t.Errorf("measured peak I/O %v below the steady rate b+r = %v", worst, b+r)
	}
}

// TestStaggeredDiskIOIsDisplayRate: a pass-through client needs only b.
func TestStaggeredDiskIOIsDisplayRate(t *testing.T) {
	sch, err := staggered.New(vod.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	s := New(sch)
	res, err := s.Client(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxIOMbps != 1.5 {
		t.Errorf("staggered peak I/O %v, want b", res.MaxIOMbps)
	}
}

// TestPPBProperty drives the pause/resume client with random bandwidths,
// methods and arrivals: always jitter-free, always within the Table 1
// buffer bound, every byte delivered exactly once.
func TestPPBProperty(t *testing.T) {
	f := func(bSel uint16, mSel bool, aSel uint16) bool {
		b := 95 + float64(bSel%5050)/10
		method := ppb.MethodA
		if mSel {
			method = ppb.MethodB
		}
		sch, err := ppb.New(vod.DefaultConfig(b), method)
		if err != nil {
			return true
		}
		s := New(sch)
		arrival := float64(aSel) * sch.AccessLatencyMin() / 997
		res, err := s.Client(arrival, 0)
		if err != nil {
			return false
		}
		return res.MaxBufferMbit <= sch.BufferMbit()*1.0001 &&
			math.Abs(res.DownloadedMbit-10800) < 1e-3 &&
			res.WaitMin <= sch.AccessLatencyMin()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSBPropertyAgainstAnalytic is the sim-level counterpart of the core
// package's property test, exercising the full flow engine.
func TestSBPropertyAgainstAnalytic(t *testing.T) {
	widths := []int64{2, 5, 12, 25, 52}
	f := func(bSel uint8, wSel uint8, aSel uint16) bool {
		b := 90 + float64(bSel%52)*10
		sch, err := core.New(vod.DefaultConfig(b), widths[int(wSel)%len(widths)])
		if err != nil {
			return false
		}
		s := New(sch)
		arrival := float64(aSel) * sch.UnitMinutes() / 7.3
		res, err := s.Client(arrival, 0)
		if err != nil {
			return false
		}
		return res.MaxBufferMbit <= sch.BufferMbit()+1e-6 &&
			res.MaxStreams <= 2 &&
			res.MaxIOMbps <= sch.DiskBandwidthMbps()+1e-9 &&
			res.WaitMin <= sch.AccessLatencyMin()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
