package server_test

import (
	"testing"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/faults"
	"skyscraper/internal/server"
	"skyscraper/internal/trace"
	"skyscraper/internal/wire"
)

// fecClient is chaosClient with the NACK ladder left on: the FEC suite
// proves escalation ordering (stripe first, then NACK, then unicast), so
// every rung stays armed.
func fecClient(addr string, video int, tb *trace.Buffer) client.Config {
	cfg := robustClient(addr, video)
	cfg.SlackFrac = 3.0
	cfg.RepairLagFrac = 1.125
	cfg.Trace = tb
	return cfg
}

// TestFecStripeHealsIidLoss: under scattered single-datagram loss the
// parity stripe reconstructs gaps locally with zero control round trips.
// Drops on chunks whose loss deadline precedes their group's parity
// frame (the just-in-time channels' first chunks) still escalate to the
// reactive ladder — that ordering is the point — so the assertion is
// that the stripe carries real heals, not that the ladder never fires.
func TestFecStripeHealsIidLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2) // 36 chunk positions per playback
	srv := startChaosServer(t, sch, 200*time.Millisecond, server.Config{
		FecGroup: 4,
		Faults:   &faults.Plan{Seed: 3, Drop: 0.08},
	})
	tb := trace.New(256)
	stats, err := client.Watch(fecClient(srv.Addr(), 0, tb))
	if err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch under fec: %v (stats %+v)", err, stats)
	}
	if stats.ByteErrors != 0 || stats.LateChunks != 0 || stats.LostChunks != 0 {
		dumpTrace(t, tb)
		t.Fatalf("degraded under fec: %+v", stats)
	}
	if stats.FecHeals == 0 {
		dumpTrace(t, tb)
		t.Fatalf("stripe healed nothing under 8%% iid drop: %+v", stats)
	}
	st := srv.Status()
	if st.ParityFrames == 0 {
		t.Fatal("server sent no parity frames with FecGroup=4")
	}
	// Overhead bound: the schedule emits exactly one parity frame per G
	// data chunks (enforced structurally by Server.emit), so the stripe's
	// byte overhead is 1/G times the per-frame ratio — which must stay
	// within the bitmap-and-count header's few extra bytes of a data
	// frame, or the ≤1/G overhead claim in the ledgers would be off.
	dataFrame := int64(wire.EncodedSize(1024))
	if perFrame := st.ParityBytes / st.ParityFrames; perFrame > dataFrame+dataFrame/8 {
		t.Errorf("parity frame averages %d bytes vs %d-byte data frames; overhead claim broken", perFrame, dataFrame)
	}
}

// TestFecRSHealsDoubleErasure: in Reed-Solomon mode the P+Q stripe
// recovers two losses per group, so a loss rate that defeats the XOR
// stripe still finishes without escalation.
func TestFecRSHealsDoubleErasure(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		FecGroup: 8,
		FecMode:  wire.FecModeRS,
		Faults:   &faults.Plan{Seed: 9, Drop: 0.12},
	})
	tb := trace.New(256)
	stats, err := client.Watch(fecClient(srv.Addr(), 0, tb))
	if err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch under rs fec: %v (stats %+v)", err, stats)
	}
	if stats.ByteErrors != 0 || stats.LateChunks != 0 || stats.LostChunks != 0 {
		dumpTrace(t, tb)
		t.Fatalf("degraded under rs fec: %+v", stats)
	}
	if stats.FecHeals == 0 {
		t.Fatalf("rs stripe healed nothing under 12%% drop: %+v", stats)
	}
}

// TestFecBurstDefeatsStripeLadderEngages: a Gilbert–Elliott burst takes
// out more chunks per group than the stripe covers; the hold expires,
// the defeat is counted, and the NACK/unicast ladder — anchored at
// stripe-defeat time — still restores the session.
func TestFecBurstDefeatsStripeLadderEngages(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		FecGroup: 8,
		Faults: &faults.Plan{
			Seed: 5, ChunkBytes: 1024,
			BurstEnter: 0.06, BurstExit: 0.35, BurstDrop: 1,
		},
	})
	tb := trace.New(512)
	stats, err := client.Watch(fecClient(srv.Addr(), 0, tb))
	if err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch under burst: %v (stats %+v)", err, stats)
	}
	if stats.ByteErrors != 0 || stats.LateChunks != 0 || stats.LostChunks != 0 {
		dumpTrace(t, tb)
		t.Fatalf("degraded under burst: %+v", stats)
	}
	if stats.StripeDefeats == 0 {
		t.Fatalf("burst plan never defeated the stripe: %+v (injector %+v)", stats, srv.Injector().Counts())
	}
	if stats.NacksSent+stats.RepairedChunks == 0 {
		t.Errorf("stripe defeated but the reactive ladder never engaged: %+v", stats)
	}
}

// TestFecOffNoParityOnWire is the FEC-off golden gate's wire half: with
// FecGroup unset the server emits no parity frames and the client books
// no stripe activity — the legacy broadcast is bit-identical (the
// recovery-path golden gates live in the existing chaos and viewer
// equivalence suites, which run with FEC off).
func TestFecOffNoParityOnWire(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		Faults: &faults.Plan{Seed: 1, Drop: 0.05},
	})
	tb := trace.New(256)
	stats, err := client.Watch(fecClient(srv.Addr(), 0, tb))
	if err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch: %v (stats %+v)", err, stats)
	}
	if st := srv.Status(); st.ParityFrames != 0 || st.ParityBytes != 0 {
		t.Errorf("FEC-off server sent %d parity frames (%d bytes)",
			st.ParityFrames, st.ParityBytes)
	}
	if stats.FecHeals != 0 || stats.StripeDefeats != 0 {
		t.Errorf("FEC-off client booked stripe activity: %+v", stats)
	}
	if stats.NacksSent+stats.RepairedChunks+stats.MulticastRepairs == 0 {
		t.Error("no reactive recovery at 5% drop; the FEC-off gate is vacuous")
	}
}
