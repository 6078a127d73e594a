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

// fecClient is chaosClient with room for aggregation windows: the FEC
// suite proves escalation ordering (stripe first, then NACK).
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
// NACK ladder — that ordering is the point — so the assertion is
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
	// Overhead: the schedule emits exactly one parity frame per G data
	// chunks (enforced structurally by Server.emit), each exactly a data
	// frame's size, so the stripe's byte overhead is exactly 1/G.
	if dataFrame := int64(wire.EncodedSize(1024)); st.ParityBytes != st.ParityFrames*dataFrame {
		t.Errorf("%d parity frames in %d bytes, want each a %d-byte data frame's size", st.ParityFrames, st.ParityBytes, dataFrame)
	}
}

// TestFecMaxPayloadChunksHeal: a parity frame is a data frame's size, so
// the largest chunk the wire carries leaves room for the stripe. FecGroup
// 4 with ChunkBytes == wire.MaxPayload is a valid configuration, and its
// stripe heals live; FecMode accepts "" and "xor" and nothing else.
func TestFecMaxPayloadChunksHeal(t *testing.T) {
	sch := liveScheme(t, 1, 5, 2)
	cfg := server.Config{
		Scheme:       sch,
		Unit:         200 * time.Millisecond,
		BytesPerUnit: 4 * wire.MaxPayload,
		ChunkBytes:   wire.MaxPayload,
		FecGroup:     4,
		Faults:       &faults.Plan{Seed: 3, Drop: 0.08},
		Logf:         t.Logf,
	}
	for _, mode := range []string{"rs", "XOR", "none"} {
		bad := cfg
		bad.FecMode = mode
		if _, err := server.New(bad); err == nil {
			t.Errorf("FecMode %q accepted", mode)
		}
	}
	cfg.FecMode = "xor"
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("FecGroup 4 with %d-byte chunks: %v", wire.MaxPayload, err)
	}
	if testing.Short() {
		t.Skip("live network test")
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	tb := trace.New(256)
	stats, err := client.Watch(fecClient(srv.Addr(), 0, tb))
	if err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch: %v (stats %+v)", err, stats)
	}
	if stats.ByteErrors != 0 || stats.LateChunks != 0 || stats.LostChunks != 0 {
		dumpTrace(t, tb)
		t.Fatalf("degraded: %+v", stats)
	}
	if stats.FecHeals == 0 {
		dumpTrace(t, tb)
		t.Fatalf("stripe healed nothing under 8%% iid drop: %+v", stats)
	}
	if st := srv.Status(); st.ParityBytes != st.ParityFrames*int64(wire.EncodedSize(wire.MaxPayload)) {
		t.Errorf("%d parity frames in %d bytes, want each %d", st.ParityFrames, st.ParityBytes, wire.EncodedSize(wire.MaxPayload))
	}
}

// TestFecBurstDefeatsStripeLadderEngages: a Gilbert–Elliott burst takes
// out more chunks per group than the stripe covers; the hold expires,
// the defeat is counted, and the NACK ladder — anchored at stripe-defeat
// time — still restores the session.
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
	if stats.NacksSent == 0 {
		t.Errorf("stripe defeated but the NACK ladder never engaged: %+v", stats)
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
	if stats.NacksSent+stats.MulticastRepairs == 0 {
		t.Error("no reactive recovery at 5% drop; the FEC-off gate is vacuous")
	}
}
