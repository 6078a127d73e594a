package server_test

import (
	"fmt"
	"testing"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/core"
	"skyscraper/internal/faults"
	"skyscraper/internal/server"
	"skyscraper/internal/trace"
)

// startChaosServer is startServer with a fault plan and hardened-control
// knobs.
func startChaosServer(t *testing.T, sch *core.Scheme, unit time.Duration, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Scheme = sch
	cfg.Unit = unit
	cfg.BytesPerUnit = 4096
	cfg.ChunkBytes = 1024
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// chaosClient is robustClient plus an earlier repair trigger and two
// units of slack, so a recovery round trip fits inside the tightest
// (channel-1) playback window even when a loaded test machine stalls the
// schedule for ~100ms. The strict one-unit jitter proof stays with the
// lossless live tests.
func chaosClient(addr string, video int, tb *trace.Buffer) client.Config {
	cfg := robustClient(addr, video)
	cfg.SlackFrac = 2.0
	cfg.RepairLagFrac = 0.3
	cfg.Trace = tb
	// These suites prove the unicast repair plane specifically; the
	// NACK ladder has its own coverage (nack_test.go, live_test.go).
	cfg.DisableNack = true
	return cfg
}

// dumpTrace prints the recovery journal when a chaos assertion fails.
func dumpTrace(t *testing.T, tb *trace.Buffer) {
	t.Helper()
	for _, e := range tb.Events() {
		t.Logf("trace: %v", e)
	}
}

// TestChaosSweepRecovers is the acceptance sweep: under seeded chunk loss
// up to 5% plus duplication and reordering, a session must complete with
// every byte verified, zero jitter and zero unrepaired losses — the
// paper's guarantee, restored by the repair path.
func TestChaosSweepRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	var totalRepaired int64
	for _, drop := range []float64{0.01, 0.03, 0.05} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			sch := liveScheme(t, 1, 5, 2) // fragments 1,2,2,2,2 - 36 chunk positions
			srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
				Faults: &faults.Plan{Seed: 1, Drop: drop, Duplicate: 0.02, Reorder: 0.02},
			})
			tb := trace.New(256)
			stats, err := client.Watch(chaosClient(srv.Addr(), 0, tb))
			if err != nil {
				dumpTrace(t, tb)
				t.Fatalf("watch under %v drop: %v (stats %+v)", drop, err, stats)
			}
			if stats.ByteErrors != 0 || stats.LateChunks != 0 || stats.LostChunks != 0 {
				dumpTrace(t, tb)
				t.Fatalf("degraded under %v drop: %+v", drop, stats)
			}
			if want := int64(sch.TotalUnits()) * 4096; stats.Bytes != want {
				t.Errorf("received %d bytes, want %d", stats.Bytes, want)
			}
			totalRepaired += stats.RepairedChunks
			if c := srv.Injector().Counts(); c.Dropped == 0 {
				t.Errorf("injector dropped nothing at rate %v (counts %+v)", drop, c)
			}
		})
	}
	if totalRepaired == 0 {
		t.Error("no chunk was repaired across the whole sweep; the loss path went unexercised")
	}
}

// TestChaosDeterministicStats: two sessions against the same faulty
// broadcast — tuning at different wall times, hence different repetitions
// — must report identical recovery statistics, because fault decisions
// are keyed on chunk position, never on repetition or time. The plan uses
// drop and duplication only: a reordered chunk is released one pacing slot
// late, which races the repair trigger — whichever wins is correct but
// shifts a chunk between RepairedChunks and DuplicateChunks, so reorder
// determinism is asserted at the injector layer (internal/faults) instead.
func TestChaosDeterministicStats(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		Faults: &faults.Plan{Seed: 1, Drop: 0.05, Duplicate: 0.05},
	})
	type signature struct {
		bytes, byteErrors, lost, repaired, dups int64
		groups                                  int
	}
	session := func(run int) signature {
		tb := trace.New(256)
		cfg := chaosClient(srv.Addr(), 0, tb)
		// A full unit of repair lag: only chunks that are *truly* gone
		// trigger repair, so a merely-slow broadcast chunk on a loaded
		// machine cannot shift a chunk between the repaired and
		// duplicate columns and break run-to-run equality.
		cfg.RepairLagFrac = 1.0
		stats, err := client.Watch(cfg)
		if err != nil {
			dumpTrace(t, tb)
			t.Fatalf("run %d: %v (stats %+v)", run, err, stats)
		}
		return signature{
			bytes: stats.Bytes, byteErrors: stats.ByteErrors, lost: stats.LostChunks,
			repaired: stats.RepairedChunks, dups: stats.DuplicateChunks, groups: stats.Groups,
		}
	}
	// The repair trigger races the wall clock: a scheduler stall longer
	// than the repair lag fires a repair for a chunk still in flight and
	// shifts the signature by one (the same race the comment above
	// concedes for reorder). A seed-keyed nondeterminism would reproduce
	// in every pair of sessions, a stall artifact will not — so compare
	// up to three pairs and fail only if none of them match.
	var sigs [2]signature
	for attempt := 0; attempt < 3; attempt++ {
		sigs[0] = session(2 * attempt)
		sigs[1] = session(2*attempt + 1)
		if sigs[0] == sigs[1] {
			break
		}
		t.Logf("attempt %d: diverging stats %+v vs %+v (retrying: busy-host stall or real nondeterminism?)",
			attempt, sigs[0], sigs[1])
	}
	if sigs[0] != sigs[1] {
		t.Errorf("identical seed, diverging stats in three consecutive session pairs: %+v vs %+v", sigs[0], sigs[1])
	}
	if sigs[0].repaired == 0 {
		t.Error("seed 1 at 5% drop repaired nothing; determinism claim untested")
	}
	if srv.Status().RepairsServed == 0 {
		t.Error("server served no repairs")
	}
}

// TestChaosDegradedWithoutRepair: with repair off and heavy loss, the
// session must end gracefully — losses counted, bytes short by exactly
// the lost chunks, no hang, no panic.
func TestChaosDegradedWithoutRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		Faults: &faults.Plan{Seed: 1, Drop: 0.25},
	})
	cfg := chaosClient(srv.Addr(), 0, nil)
	cfg.DisableRepair = true
	cfg.AllowDegraded = true
	stats, err := client.Watch(cfg)
	if err != nil {
		t.Fatalf("degraded session failed outright: %v (stats %+v)", err, stats)
	}
	if stats.LostChunks == 0 {
		t.Fatal("a 25% drop plan lost nothing")
	}
	if stats.RepairRequests != 0 {
		t.Errorf("repairs issued despite DisableRepair: %+v", stats)
	}
	if want := int64(sch.TotalUnits())*4096 - stats.LostChunks*1024; stats.Bytes != want {
		t.Errorf("bytes = %d, want %d (total minus %d lost chunks)", stats.Bytes, want, stats.LostChunks)
	}
	if srv.Status().RepairsServed != 0 {
		t.Errorf("server served %d repairs to a repair-disabled client", srv.Status().RepairsServed)
	}
}
