package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/faults"
	"skyscraper/internal/server"
	"skyscraper/internal/trace"
	"skyscraper/internal/wire"
)

// dialRaw opens one raw control connection for protocol-level tests.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// TestOverloadRepairBudget hammers the repair plane at several times its
// byte budget from concurrent connections: the acceptance property is
// that the server holds the line — unicast repair bytes served stay
// within 10% above rate*elapsed + burst, the over-budget remainder is
// refused with Busy replies carrying positive retry-after hints, and no
// request hangs.
func TestOverloadRepairBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	const (
		rate  = 64 << 10 // 64 KiB/s repair budget
		burst = 16 << 10
	)
	sch := liveScheme(t, 1, 3, 2) // fragments 1,2,2
	srv := startChaosServer(t, sch, 50*time.Millisecond, server.Config{
		RepairBandwidth:  rate,
		RepairBurstBytes: burst,
	})

	// 3 connections pulling 1 KiB chunks flat out: locally a round trip is
	// well under a millisecond, so raw demand is far above 3x the budget.
	const (
		hammers = 3
		dur     = 700 * time.Millisecond
	)
	var busies, hung atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for h := 0; h < hammers; h++ {
		conn, r := dialRaw(t, srv.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &wire.Repair{Video: 0, Channel: 2, Seq: 1, Offset: 0, Length: 1024}
			for time.Since(start) < dur {
				_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
				if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindRepair, Repair: req}); err != nil {
					hung.Add(1)
					return
				}
				m, err := wire.ReadControl(r)
				if err != nil {
					hung.Add(1)
					return
				}
				switch m.Kind {
				case wire.KindRepairOK:
				case wire.KindBusy:
					busies.Add(1)
					if m.RetryAfterNanos <= 0 {
						t.Errorf("budget Busy with non-positive retry hint %d", m.RetryAfterNanos)
						return
					}
					// An obedient client would sleep the hint; the hammer
					// deliberately does not, to prove the bucket alone
					// bounds the served bytes.
				default:
					t.Errorf("unexpected reply %q", m.Kind)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	if hung.Load() != 0 {
		t.Fatalf("%d hammer connections timed out or died", hung.Load())
	}
	served := srv.Status().RepairBytes
	ceiling := 1.1 * (rate*elapsed + burst)
	if float64(served) > ceiling {
		t.Errorf("served %d repair bytes in %.3fs, budget ceiling %.0f", served, elapsed, ceiling)
	}
	// The budget must also actually be spent: demand was far above it.
	if floor := 0.5 * rate * elapsed; float64(served) < floor {
		t.Errorf("served only %d repair bytes, expected at least %.0f under saturation", served, floor)
	}
	if busies.Load() == 0 {
		t.Error("demand at several times the budget produced no Busy replies")
	}
	if srv.Status().BusyReplies != busies.Load() {
		t.Errorf("server counted %d Busy replies, clients saw %d", srv.Status().BusyReplies, busies.Load())
	}
	if tokens := srv.Status().RepairTokens; tokens < 0 || tokens > burst {
		t.Errorf("RepairTokens = %d outside [0, %d]", tokens, burst)
	}
}

// TestOverloadClientsTerminate runs real client sessions against a
// starved repair budget under injected loss: every session must
// terminate — degraded, with losses counted — rather than hang retrying.
func TestOverloadClientsTerminate(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 4, 2) // fragments 1,2,2,2
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		Faults: &faults.Plan{Seed: 3, Drop: 0.08},
		// A budget of one chunk per second with a one-chunk burst: far
		// below the repair demand of 8% loss, so most repairs are refused.
		RepairBandwidth:  1024,
		RepairBurstBytes: 1024,
	})

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	stats := make([]*client.Stats, n)
	tbs := make([]*trace.Buffer, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		tbs[i] = trace.New(256)
		cfg := chaosClient(srv.Addr(), 0, tbs[i])
		cfg.AllowDegraded = true
		cfg.Seed = uint64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = client.Watch(cfg)
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("a client hung under repair-budget starvation")
	}
	var sawBusy int64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			dumpTrace(t, tbs[i])
			t.Fatalf("client %d failed instead of degrading: %v (stats %+v)", i, errs[i], stats[i])
		}
		if stats[i].ByteErrors != 0 {
			t.Errorf("client %d: %d byte errors", i, stats[i].ByteErrors)
		}
		sawBusy += stats[i].BusyReplies
	}
	if sawBusy == 0 {
		t.Error("no client saw a Busy reply despite the starved budget")
	}
	if srv.Status().BusyReplies == 0 {
		t.Error("server issued no Busy replies despite the starved budget")
	}
}

// TestShardPanicRecoveredSession is the supervisor's session half (its
// schedule half is TestWheelShardPanicRecovered): a panic in an egress shard
// mid-broadcast is absorbed and the shard restarted on its absolute
// schedule, so a concurrent viewing session still completes with verified
// bytes and the server keeps answering control traffic.
func TestShardPanicRecoveredSession(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 4, 2)
	var fired atomic.Bool
	srv := startChaosServer(t, sch, 80*time.Millisecond, server.Config{
		PacerHook: func(video, channel int, rep uint32, chunk int) {
			// One panic, in the steady state of the widest channel.
			if video == 0 && channel == 4 && rep >= 1 && !fired.Swap(true) {
				panic("injected shard fault")
			}
		},
	})

	tb := trace.New(256)
	cfg := chaosClient(srv.Addr(), 0, tb)
	cfg.AllowDegraded = true // the panic window may cost chunks; never a hang
	stats, err := client.Watch(cfg)
	if err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch across shard panic: %v (stats %+v)", err, stats)
	}
	if stats.ByteErrors != 0 {
		t.Errorf("byte errors across restart: %d", stats.ByteErrors)
	}
	if !fired.Load() {
		t.Fatal("panic hook never fired; the supervisor went untested")
	}
	if srv.Status().PacerRestarts < 1 {
		t.Errorf("PacerRestarts = %d, want >= 1", srv.Status().PacerRestarts)
	}
	// The server is alive: a fresh control round trip still works.
	conn, r := dialRaw(t, srv.Addr())
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindStats}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadControl(r)
	if err != nil || m.Kind != wire.KindStatsOK {
		t.Fatalf("stats after restart: %+v %v", m, err)
	}
	var st server.StatusSnapshot
	if err := json.Unmarshal(m.Stats, &st); err != nil || st.PacerRestarts < 1 {
		t.Errorf("stats report %d pacer restarts (%v), want >= 1", st.PacerRestarts, err)
	}
}

// TestDrainGraceful: Drain stops accepting, notifies control clients with
// a server-initiated bye, reports itself draining, and returns once
// handlers finish — well before the context deadline.
func TestDrainGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	srv := startChaosServer(t, sch, 50*time.Millisecond, server.Config{})
	base, err := srv.ServeStatus()
	if err != nil {
		t.Fatal(err)
	}

	conn, r := dialRaw(t, srv.Addr())
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: 23457}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadControl(r); err != nil || m.Kind != wire.KindJoined {
		t.Fatalf("join: %v %v", m, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// The client hears the server-initiated bye before the connection
	// dies.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadControl(r)
	if err != nil || m.Kind != wire.KindBye {
		t.Fatalf("expected server bye, got %+v %v", m, err)
	}
	if !srv.Status().Draining {
		t.Error("bye received but server does not report draining")
	}
	// Health flips out of rotation: 503 while draining, or the endpoint
	// already torn down by the completed drain — never a healthy 200.
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("healthz still 200 during drain")
		}
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Drain did not return")
	}
	// Fully closed: no new control connections.
	if c, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		c.Close()
		t.Error("control port still accepting after drain")
	}
}
