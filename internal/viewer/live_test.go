package viewer_test

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/core"
	"skyscraper/internal/faults"
	"skyscraper/internal/server"
	"skyscraper/internal/viewer"
	"skyscraper/internal/vod"
)

// checkPaperBufferBound holds every cohort of a run to the paper's disk
// bound, 60·b·D1·(W−1): in the live demo's units (W−1)·BytesPerUnit, plus
// one chunk of arrival granularity (startServer's 4096 and 1024).
func checkPaperBufferBound(t *testing.T, res *viewer.Result, sch *core.Scheme) {
	t.Helper()
	bound := (sch.Width()-1)*4096 + 1024
	if res.MaxBufferBytes <= 0 || res.MaxBufferBytes > bound {
		t.Errorf("buffer high-water %d bytes, want in (0, %d] = (W-1)*BytesPerUnit + ChunkBytes", res.MaxBufferBytes, bound)
	}
}

// liveScheme builds a small broadcast: m videos, k channels each, width w.
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

func startServer(t *testing.T, sch *core.Scheme, unit time.Duration, plan *faults.Plan) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Scheme:       sch,
		Unit:         unit,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		Faults:       plan,
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

// TestWatchNackLadderLive is the live pin of the NACK ladder end to end:
// one client.Watch session against a server injecting a deterministic
// 25 % drop plan must send gap-bitmap NACKs, recover chunks off multicast
// re-sends, and finish with nothing lost, late or corrupt.
func TestWatchNackLadderLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2) // fragments 1,2,2,2,2 — 9 units per playback
	srv := startServer(t, sch, 200*time.Millisecond, &faults.Plan{Drop: 0.25, Seed: 11})

	stats, err := client.Watch(client.Config{
		ServerAddr:   srv.Addr(),
		Video:        0,
		JoinLeadFrac: 0.9,
		// Three units of slack give every chunk room for an aggregation
		// window and its re-listen, and for further rounds.
		SlackFrac: 3.0,
		// Over a unit of repair lag: merely-slow broadcast chunks on a
		// loaded CI machine must not be taken for gaps.
		RepairLagFrac: 1.125,
		Seed:          viewer.ViewerSeed(42, 0),
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("client watch: %v (stats %+v)", err, stats)
	}
	if stats.MulticastRepairs == 0 {
		t.Error("client recovered no chunks under a 25% drop plan")
	}
	if stats.NacksSent == 0 {
		t.Error("client sent no NACKs under a 25% drop plan; the multicast-first ladder never engaged")
	}
	if stats.LostChunks != 0 || stats.LateChunks != 0 || stats.ByteErrors != 0 {
		t.Errorf("lost %d late %d byte errors %d, want all 0", stats.LostChunks, stats.LateChunks, stats.ByteErrors)
	}
}

// TestMuxMatchesIndependentClients is cohort ≡ independent viewers over
// real sockets. The fault plan drops by position, so every member of a
// cohort misses the same chunks, and the cohort recovers them on its first
// member's seed: a 3-viewer cohort must book exactly 3 times the chunk
// outcomes (multicast heals among them) of one client.Watch seeded as that
// member, and NACK exactly as often as that one client does.
func TestMuxMatchesIndependentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startServer(t, sch, 200*time.Millisecond, &faults.Plan{Drop: 0.25, Seed: 11})

	const n = 3
	const muxSeed = 7
	served := srv.Status().NacksServed
	res, err := viewer.Run(viewer.MuxConfig{
		ServerAddr:    srv.Addr(),
		Viewers:       n,
		Videos:        1,
		Seed:          muxSeed,
		JoinLeadFrac:  0.9,
		SlackFrac:     2.0,
		RepairLagFrac: 1.125,
	})
	if err != nil {
		t.Fatalf("mux run: %v (result %+v)", err, res)
	}
	if res.Cohorts != 1 {
		t.Fatalf("%d viewers admitted at once formed %d cohorts, want 1", n, res.Cohorts)
	}
	if got := srv.Status().NacksServed - served; got != res.NacksSent {
		t.Errorf("server answered %d NACKs for the mux run, want its %d", got, res.NacksSent)
	}

	st, err := client.Watch(client.Config{
		ServerAddr:    srv.Addr(),
		Video:         0,
		JoinLeadFrac:  0.9,
		SlackFrac:     2.0,
		RepairLagFrac: 1.125,
		Seed:          viewer.ViewerSeed(muxSeed, 0),
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	type sums struct {
		bytes, lost, late, dup, healed, byteErrors int64
	}
	fold := func(r *viewer.Result) sums {
		return sums{r.Bytes, r.LostChunks, r.LateChunks, r.DuplicateChunks, r.MulticastRepairs, r.ByteErrors}
	}
	want := fold(st.Result)
	want = sums{n * want.bytes, n * want.lost, n * want.late, n * want.dup, n * want.healed, n * want.byteErrors}
	if got := fold(res); got != want {
		t.Errorf("mux chunk outcomes differ from %d x one client:\n mux        %+v\n %d x client %+v", n, got, n, want)
	}
	if res.NacksSent != st.NacksSent {
		t.Errorf("mux sent %d NACKs, the one client %d: a cohort NACKs as one voice", res.NacksSent, st.NacksSent)
	}
	if res.MulticastRepairs == 0 {
		t.Error("no multicast heals under a 25% drop plan; the comparison is vacuous")
	}
}

// TestMuxScaleSmoke holds thousands of concurrent virtual viewers in one
// process against one live server — the cohort dedup makes the receive
// path O(cohorts) — and checks that server-side control load stays
// independent of the audience size.
func TestMuxScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 2, 5, 2)
	srv := startServer(t, sch, 200*time.Millisecond, nil)
	statusURL, err := srv.ServeStatus()
	if err != nil {
		t.Fatal(err)
	}

	const viewers = 3000
	res, err := viewer.Run(viewer.MuxConfig{
		ServerAddr:    srv.Addr(),
		Viewers:       viewers,
		SpreadUnits:   2,
		Seed:          9,
		JoinLeadFrac:  0.9,
		SlackFrac:     2.0,
		RepairLagFrac: 1.125,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("mux run: %v (result %+v)", err, res)
	}
	if res.Degraded != 0 || res.LostChunks != 0 || res.ByteErrors != 0 {
		t.Errorf("degraded %d lost %d byteErrors %d, want all 0", res.Degraded, res.LostChunks, res.ByteErrors)
	}
	wantBytes := int64(viewers) * int64(sch.TotalUnits()) * 4096
	if res.Bytes != wantBytes {
		t.Errorf("bytes %d, want %d (viewers x full video)", res.Bytes, wantBytes)
	}
	if res.PeakViewers != viewers {
		t.Errorf("peak viewers %d, want %d held concurrently", res.PeakViewers, viewers)
	}
	if res.Cohorts < 4 {
		t.Errorf("only %d cohorts for a 2-video, 2-unit admission spread", res.Cohorts)
	}
	if res.Datagrams == 0 {
		t.Error("shared receiver delivered no datagrams")
	}
	checkPaperBufferBound(t, res, sch)

	// The server must not have felt the audience: the mux holds one
	// control session whatever the viewer count.
	resp, err := http.Get(statusURL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ControlSessionsPeak != 1 {
		t.Errorf("server saw %d peak control sessions for %d viewers, want the mux's one", snap.ControlSessionsPeak, viewers)
	}
}

// TestMuxHeapFlatAcrossFragmentTurnover: a mux's live heap must follow
// what is tuned now, not what was ever tuned. Cohorts admitted over a
// long spread keep fragments turning over (at least 3·K of them) for the
// whole run; the heap in use after a collection late in the run must not
// have grown over an early sample by anything like the per-fragment
// buffers the receive path once retained (a quarter MiB per channel ever
// tuned at this chunk size).
func TestMuxHeapFlatAcrossFragmentTurnover(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	const k = 5
	sch := liveScheme(t, 2, k, 2)
	unit := 100 * time.Millisecond
	srv := startServer(t, sch, unit, nil)
	time.Sleep(3 * unit) // every channel once round: the server's frame cache is resident

	m, err := viewer.NewMux(viewer.MuxConfig{
		ServerAddr:    srv.Addr(),
		Viewers:       400,
		SpreadUnits:   12,
		Seed:          5,
		JoinLeadFrac:  0.9,
		SlackFrac:     2.0,
		RepairLagFrac: 1.125,
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *viewer.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := m.Run()
		done <- outcome{res, err}
	}()
	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var samples []uint64
	var out outcome
	tick := time.NewTicker(2 * unit)
	defer tick.Stop()
	for running := true; running; {
		select {
		case out = <-done:
			running = false
		case <-tick.C:
			samples = append(samples, heapAfterGC())
		}
	}
	if out.err != nil {
		t.Fatalf("mux run: %v (result %+v)", out.err, out.res)
	}
	if turnovers := out.res.Cohorts * k; turnovers < 3*k {
		t.Fatalf("only %d fragment turnovers, want >= %d", turnovers, 3*k)
	}
	checkPaperBufferBound(t, out.res, sch)
	if len(samples) < 8 {
		t.Fatalf("only %d heap samples over the run", len(samples))
	}
	early := samples[len(samples)/4]
	var late uint64
	for _, s := range samples[len(samples)/2:] {
		if s > late {
			late = s
		}
	}
	t.Logf("%d cohorts x %d fragments; heap in use after GC: early %d KiB, late max %d KiB",
		out.res.Cohorts, k, early>>10, late>>10)
	const maxGrowth = 2 << 20
	if late > early+maxGrowth {
		t.Errorf("heap in use grew %d KiB from early to late in the run, want <= %d KiB: memory follows fragments completed",
			(late-early)>>10, maxGrowth>>10)
	}
}

// TestMuxPauseBooksNoGap: the audience loop stalls once for three repair
// lags while the server keeps sending, so every cohort's gap checkpoints
// for the chunks that landed meanwhile pass with those chunks sitting in
// the socket. The loop drains the socket before it runs a single timer:
// the lossless broadcast costs no degraded session, and not one NACK or
// repair — every chunk a gap pass could have flagged at the resume was
// in the socket buffer then.
func TestMuxPauseBooksNoGap(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 2, 5, 2)
	unit := 200 * time.Millisecond
	srv := startServer(t, sch, unit, nil)
	const lagFrac = 0.5
	m, err := viewer.NewMux(viewer.MuxConfig{
		ServerAddr:    srv.Addr(),
		Viewers:       20,
		SpreadUnits:   3,
		Seed:          3,
		JoinLeadFrac:  0.9,
		SlackFrac:     2.5, // past the pause: a chunk read at the resume is not late
		RepairLagFrac: lagFrac,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	pause := 3 * time.Duration(lagFrac*float64(unit))
	paused := make(chan time.Time, 1)
	viewer.PauseAt(m, time.Now().Add(4*unit), pause, paused)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("mux run: %v (result %+v)", err, res)
	}
	select {
	case <-paused:
	default:
		t.Fatal("the run ended before the pause")
	}
	if res.Cohorts < 4 {
		t.Fatalf("only %d cohorts; the pause must meet several", res.Cohorts)
	}
	if res.Degraded != 0 || res.LostChunks != 0 || res.LateChunks != 0 {
		t.Errorf("a %v pause degraded %d viewers (%d lost, %d late chunks), want none", pause, res.Degraded, res.LostChunks, res.LateChunks)
	}
	if res.NacksSent != 0 {
		t.Errorf("a %v pause over a lossless broadcast sent %d NACKs: chunks in the socket were taken for gaps",
			pause, res.NacksSent)
	}
}

// TestMuxGoroutineCount: an audience of 20+ cohorts runs on two
// goroutines of its own — the receiver's read loop and the control
// goroutine — however many cohorts and tuned fragments it holds.
func TestMuxGoroutineCount(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 2, 5, 2)
	unit := 100 * time.Millisecond
	srv := startServer(t, sch, unit, nil)
	m, err := viewer.NewMux(viewer.MuxConfig{
		ServerAddr:    srv.Addr(),
		Viewers:       400,
		SpreadUnits:   12,
		Seed:          5,
		JoinLeadFrac:  0.9,
		SlackFrac:     2.0,
		RepairLagFrac: 1.125,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	done := make(chan *viewer.Result, 1)
	go func() {
		res, err := m.Run()
		if err != nil {
			t.Errorf("mux run: %v", err)
		}
		done <- res
	}()
	peak := 0
	tick := time.NewTicker(unit / 4)
	defer tick.Stop()
	var res *viewer.Result
	for res == nil {
		select {
		case res = <-done:
		case <-tick.C:
			peak = max(peak, runtime.NumGoroutine())
		}
	}
	if res.Cohorts < 20 {
		t.Fatalf("only %d cohorts, want >= 20", res.Cohorts)
	}
	// One goroutine is the test's own, running Run.
	if added := peak - before - 1; added > 2 {
		t.Errorf("the audience of %d cohorts added %d goroutines at its peak, want <= 2", res.Cohorts, added)
	}
	t.Logf("%d cohorts, %d goroutines before, %d at the peak", res.Cohorts, before, peak)
}
