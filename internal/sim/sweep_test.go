package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"skyscraper/internal/core"
	"skyscraper/internal/des"
	"skyscraper/internal/metrics"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
)

// sweepWorkerCounts are the pool sizes the determinism contract is checked
// against: serial, even, odd/prime, and whatever this machine defaults to.
func sweepWorkerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// summaryStats flattens a Summary into the statistics the contract
// guarantees bit-identical.
func summaryStats(s *metrics.Summary) [8]float64 {
	return [8]float64{
		float64(s.Count()), s.Sum(), s.Mean(), s.Min(), s.Max(),
		s.Quantile(0.5), s.Quantile(0.99), s.StdDev(),
	}
}

func sweepStats(r *SweepResult) [3][8]float64 {
	return [3][8]float64{
		summaryStats(&r.WaitMin),
		summaryStats(&r.BufferMbit),
		summaryStats(&r.Streams),
	}
}

// TestSweepWorkersIdentical is the engine's core property: for every
// scheme family, Sweep with 1, 2, 7 and GOMAXPROCS workers produces
// bit-identical statistics (count, sum, mean, min, max, quantiles,
// stddev) for the same seed. The population spans several shards so the
// merge path is genuinely exercised.
func TestSweepWorkersIdentical(t *testing.T) {
	cfg := vod.DefaultConfig(320)
	sbSch, err := core.New(cfg, 52)
	if err != nil {
		t.Fatal(err)
	}
	pbSch, err := pyramid.New(cfg, pyramid.MethodB)
	if err != nil {
		t.Fatal(err)
	}
	ppbSch, err := ppb.New(cfg, ppb.MethodB)
	if err != nil {
		t.Fatal(err)
	}
	stSch, err := staggered.New(vod.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	sims := []ClientSim{New(sbSch), New(pbSch), New(ppbSch), New(stSch)}
	const n, window, videos = 700, 500.0, 10
	for _, cs := range sims {
		want, err := Sweep(cs, n, window, videos, 42, Workers(1))
		if err != nil {
			t.Fatalf("%s serial: %v", cs.Name(), err)
		}
		wantStats := sweepStats(want)
		for _, w := range sweepWorkerCounts()[1:] {
			got, err := Sweep(cs, n, window, videos, 42, Workers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", cs.Name(), w, err)
			}
			if sweepStats(got) != wantStats {
				t.Errorf("%s: workers=%d stats diverged from serial:\n got %v\nwant %v",
					cs.Name(), w, sweepStats(got), wantStats)
			}
		}
	}
}

// TestSweepWorkersProperty drives the same contract over random seeds.
func TestSweepWorkersProperty(t *testing.T) {
	sch, err := core.New(vod.DefaultConfig(320), 12)
	if err != nil {
		t.Fatal(err)
	}
	cs := New(sch)
	f := func(seed uint64) bool {
		a, err := Sweep(cs, 600, 300, 10, seed, Workers(1))
		if err != nil {
			return false
		}
		b, err := Sweep(cs, 600, 300, 10, seed, Workers(7))
		if err != nil {
			return false
		}
		return sweepStats(a) == sweepStats(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// failAfterSim violates the protocol for every client arriving at or past
// a threshold, for exercising the deterministic-failure path.
type failAfterSim struct{ threshold float64 }

func (f failAfterSim) Name() string { return "fail-after" }

func (f failAfterSim) Client(arrivalMin float64, video int) (ClientResult, error) {
	if arrivalMin >= f.threshold {
		return ClientResult{}, fmt.Errorf("violation at %.4f", arrivalMin)
	}
	return ClientResult{ArrivalMin: arrivalMin}, nil
}

// TestSweepErrorDeterministic checks that the reported violation is the
// one with the lowest client index, for every worker count.
func TestSweepErrorDeterministic(t *testing.T) {
	const n, window, videos, seed = 900, 100.0, 10, 5
	cs := failAfterSim{threshold: 40} // ~60% of clients violate
	// Recompute the expected winner from the substream derivation.
	wantIdx := -1
	for i := 0; i < n; i++ {
		r := des.NewRand(des.SubSeed(seed, uint64(i)))
		if r.Float64()*window >= cs.threshold {
			wantIdx = i
			break
		}
	}
	if wantIdx < 0 {
		t.Fatal("test setup: no client violates")
	}
	var want string
	for _, w := range sweepWorkerCounts() {
		_, err := Sweep(cs, n, window, videos, seed, Workers(w))
		if err == nil {
			t.Fatalf("workers=%d: violation not reported", w)
		}
		if want == "" {
			want = err.Error()
			wantPrefix := fmt.Sprintf("sim: client %d ", wantIdx)
			if len(want) < len(wantPrefix) || want[:len(wantPrefix)] != wantPrefix {
				t.Fatalf("error %q does not report lowest client %d", want, wantIdx)
			}
		} else if err.Error() != want {
			t.Errorf("workers=%d error %q differs from %q", w, err.Error(), want)
		}
	}
}

// TestSweepWorkersOptionDefaults: non-positive worker counts mean "use
// GOMAXPROCS", and pool size never exceeds the shard count.
func TestSweepWorkersOptionDefaults(t *testing.T) {
	sch, err := core.New(vod.DefaultConfig(320), 2)
	if err != nil {
		t.Fatal(err)
	}
	cs := New(sch)
	for _, w := range []int{-3, 0, 1000} {
		res, err := Sweep(cs, 50, 100, 10, 1, Workers(w))
		if err != nil {
			t.Fatalf("Workers(%d): %v", w, err)
		}
		if res.Clients != 50 || res.WaitMin.Count() != 50 {
			t.Errorf("Workers(%d): counted %d/%d", w, res.Clients, res.WaitMin.Count())
		}
	}
}
