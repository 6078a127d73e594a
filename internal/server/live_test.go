package server_test

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/server"
	"skyscraper/internal/vod"
	"skyscraper/internal/wire"
)

// liveScheme builds a small broadcast: M videos, K channels each, W = 2.
// With B = 1.5*M*K the config yields exactly K channels per video.
func liveScheme(t *testing.T, m, k int, w int64) *core.Scheme {
	t.Helper()
	cfg := vod.Config{ServerMbps: 1.5 * float64(m*k), Videos: m, LengthMin: 120, RateMbps: 1.5}
	sch, err := core.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if sch.K() != k {
		t.Fatalf("K = %d, want %d", sch.K(), k)
	}
	return sch
}

// robustClient returns client settings tolerant of shared-machine
// scheduling noise: a scheduling *bug* misplaces data by at least one
// whole unit, so one unit of slack keeps jitter detection meaningful.
func robustClient(addr string, video int) client.Config {
	return client.Config{ServerAddr: addr, Video: video, JoinLeadFrac: 0.9, SlackFrac: 1.0}
}

func startServer(t *testing.T, sch *core.Scheme, unit time.Duration) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Scheme:       sch,
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestLiveEndToEnd plays one full "two-hour video" (compressed to tens of
// milliseconds per unit) through the real server over real UDP sockets,
// verifying every byte, jitter-freeness and the latency bound.
func TestLiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 2, 5, 2) // fragments 1,2,2,2,2 - 9 units per playback
	srv := startServer(t, sch, 60*time.Millisecond)

	cfg := robustClient(srv.Addr(), 1)
	cfg.Logf = t.Logf
	stats, err := client.Watch(cfg)
	if err != nil {
		t.Fatalf("watch failed: %v (stats %+v)", err, stats)
	}
	wantBytes := int64(sch.TotalUnits()) * 4096
	if stats.Bytes != wantBytes {
		t.Errorf("received %d bytes, want %d", stats.Bytes, wantBytes)
	}
	if stats.ByteErrors != 0 || stats.LateChunks != 0 {
		t.Errorf("byte errors %d, late chunks %d", stats.ByteErrors, stats.LateChunks)
	}
	if stats.WaitUnits > 1.95 { // 1 unit + join lead (0.9)
		t.Errorf("wait = %v units, want <= 1.95", stats.WaitUnits)
	}
	// Buffer bound: (W-1) units of data plus one chunk of arrival
	// granularity.
	bound := (sch.EffectiveWidth()-1)*4096 + 1024
	if stats.MaxBufferBytes > bound {
		t.Errorf("max buffer %d bytes exceeds bound %d", stats.MaxBufferBytes, bound)
	}
}

// TestLiveConcurrentClients runs several staggered clients on different
// videos against one server — the whole point of broadcast is that server
// load is independent of the audience.
func TestLiveConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 2, 4, 2) // fragments 1,2,2,2 - 7 units
	srv := startServer(t, sch, 100*time.Millisecond)

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	stats := make([]*client.Stats, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 25 * time.Millisecond)
			stats[i], errs[i] = client.Watch(robustClient(srv.Addr(), i%2))
		}()
	}
	wg.Wait()
	want := int64(sch.TotalUnits()) * 4096
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Errorf("client %d: %v", i, errs[i])
			continue
		}
		if stats[i].Bytes != want {
			t.Errorf("client %d received %d bytes, want %d", i, stats[i].Bytes, want)
		}
	}
}

// TestLiveWiderSkyscraper exercises a multi-group schedule (W = 5) with a
// capped tail, the shape that stresses loader hand-off between channels.
func TestLiveWiderSkyscraper(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 6, 5) // fragments 1,2,2,5,5,5 - 20 units
	srv := startServer(t, sch, 80*time.Millisecond)

	stats, err := client.Watch(robustClient(srv.Addr(), 0))
	if err != nil {
		t.Fatalf("watch failed: %v (stats %+v)", err, stats)
	}
	if want := int64(sch.TotalUnits()) * 4096; stats.Bytes != want {
		t.Errorf("received %d bytes, want %d", stats.Bytes, want)
	}
	if stats.Groups != 3 {
		t.Errorf("groups = %d, want 3", stats.Groups)
	}
}

func TestServerConfigValidation(t *testing.T) {
	sch := liveScheme(t, 1, 3, 2)
	bad := []server.Config{
		{Scheme: nil, Unit: time.Second, BytesPerUnit: 4096, ChunkBytes: 1024},
		{Scheme: sch, Unit: 0, BytesPerUnit: 4096, ChunkBytes: 1024},
		{Scheme: sch, Unit: time.Second, BytesPerUnit: 0, ChunkBytes: 1024},
		{Scheme: sch, Unit: time.Second, BytesPerUnit: 4096, ChunkBytes: 0},
		{Scheme: sch, Unit: time.Second, BytesPerUnit: 4096, ChunkBytes: 1000}, // does not divide
		{Scheme: sch, Unit: time.Second, BytesPerUnit: 4096, ChunkBytes: wire.MaxPayload * 2},
	}
	for i, cfg := range bad {
		if _, err := server.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestDisconnectCleansMemberships: every membership a control session
// added is dropped by its Leave or, when the connection goes, by the
// server — two receiver ports joined to one group included.
func TestDisconnectCleansMemberships(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	srv := startServer(t, sch, 50*time.Millisecond)
	g := mcast.Group{Video: 0, Channel: 1}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(m *wire.Control, want string) {
		t.Helper()
		if err := wire.WriteControl(conn, m); err != nil {
			t.Fatal(err)
		}
		if got, err := wire.ReadControl(r); err != nil || got.Kind != want {
			t.Fatalf("%s: %v %v, want %s", m.Kind, got, err, want)
		}
	}
	join := func() {
		t.Helper()
		for _, port := range []int{23456, 23457} {
			send(&wire.Control{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: port}, wire.KindJoined)
		}
		if n := srv.Hub().Members(g); n != 2 {
			t.Fatalf("%d members after joins on two ports, want 2", n)
		}
	}
	join()
	// Leave has no reply; the hello behind it orders the check after it.
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindLeave, Video: 0, Channel: 1}); err != nil {
		t.Fatal(err)
	}
	send(&wire.Control{Kind: wire.KindHello}, wire.KindWelcome)
	if n := srv.Hub().Members(g); n != 0 {
		t.Fatalf("%d members survived leave", n)
	}
	join()
	conn.Close()
	// The server drops the memberships when the control loop notices.
	deadline := time.Now().Add(3 * time.Second)
	for srv.Hub().Members(g) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d members survived disconnect", srv.Hub().Members(g))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDrainRace races Drain against concurrent Close calls while
// control handlers are mid-request and the wheel is broadcasting. Under
// -race this is the shutdown plane's memory-safety proof; functionally,
// every shutdown path must return and every handler must terminate.
func TestCloseDrainRace(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	for round := 0; round < 3; round++ {
		sch := liveScheme(t, 1, 3, 2)
		srv := startServer(t, sch, 20*time.Millisecond)

		// Keep several control sessions busy with round trips so the
		// shutdown hits handlers at every phase: reading, serving,
		// writing.
		var cwg sync.WaitGroup
		for i := 0; i < 4; i++ {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
					if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindStats}); err != nil {
						return
					}
					if _, err := wire.ReadControl(r); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(30 * time.Millisecond) // let traffic and pacing start

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var swg sync.WaitGroup
		swg.Add(3)
		go func() { defer swg.Done(); _ = srv.Drain(ctx) }()
		go func() { defer swg.Done(); srv.Close() }()
		go func() { defer swg.Done(); srv.Close() }()

		shutdownDone := make(chan struct{})
		go func() { swg.Wait(); cwg.Wait(); close(shutdownDone) }()
		select {
		case <-shutdownDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: shutdown deadlocked", round)
		}
		cancel()
	}
}
