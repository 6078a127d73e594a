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

// TestWatchNackLadderLive is the live pin of the multicast-first ladder
// end to end: one client.Watch session against a server injecting a
// deterministic 25 % drop plan must send gap-bitmap NACKs, recover chunks
// (off a multicast re-send or over unicast), and finish with nothing lost,
// late or corrupt.
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
		// Three units of slack give every chunk enough deadline headroom
		// for the NACK ladder (aggregation window plus re-listen); with
		// the tighter 2.0 the just-in-time channels fall back to unicast
		// and the NACK assertion would be vacuous.
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
	if stats.RepairedChunks+stats.MulticastRepairs == 0 {
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
// real sockets: one n-viewer cohort must aggregate to exactly the sums of
// n one-viewer sessions (client.Watch, each its own cohort of one) seeded
// viewer-by-viewer — and the result must be bit-identical across
// worker-pool sizes, since per-viewer bookkeeping is sharded by viewer ID,
// not by scheduling order.
func TestMuxMatchesIndependentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 5, 2)
	srv := startServer(t, sch, 200*time.Millisecond, &faults.Plan{Drop: 0.25, Seed: 11})

	const n = 3
	const muxSeed = 7
	mux := func(workers int) *viewer.Result {
		res, err := viewer.Run(viewer.MuxConfig{
			ServerAddr:    srv.Addr(),
			Viewers:       n,
			Videos:        1,
			Seed:          muxSeed,
			Workers:       workers,
			JoinLeadFrac:  0.9,
			SlackFrac:     2.0,
			RepairLagFrac: 1.125,
			// This property pins the per-viewer unicast plane: a cohort
			// NACKs once where n clients NACK n times, so with the ladder
			// on the sums cannot (and should not) match.
			DisableNack: true,
		})
		if err != nil {
			t.Fatalf("mux run (%d workers): %v (result %+v)", workers, err, res)
		}
		return res
	}
	res1 := mux(1)
	res3 := mux(3)

	type sums struct {
		bytes, lost, late, dup, repaired, reqs, busy, byteErrors int64
	}
	fold := func(r *viewer.Result) sums {
		return sums{r.Bytes, r.LostChunks, r.LateChunks, r.DuplicateChunks,
			r.RepairedChunks, r.RepairRequests, r.BusyReplies, r.ByteErrors}
	}
	if fold(res1) != fold(res3) {
		t.Errorf("stats depend on worker count:\n 1 worker  %+v\n 3 workers %+v", fold(res1), fold(res3))
	}

	// The clients run sequentially: repetition invariance makes their
	// phase irrelevant to the stats, and one session at a time keeps the
	// comparison free of scheduling contention on small CI machines.
	var want sums
	for v := 0; v < n; v++ {
		st, err := client.Watch(client.Config{
			ServerAddr:    srv.Addr(),
			Video:         0,
			JoinLeadFrac:  0.9,
			SlackFrac:     2.0,
			RepairLagFrac: 1.125,
			Seed:          viewer.ViewerSeed(muxSeed, v),
			DisableNack:   true,
		})
		if err != nil {
			t.Fatalf("client %d: %v", v, err)
		}
		want.bytes += st.Bytes
		want.lost += st.LostChunks
		want.late += st.LateChunks
		want.dup += st.DuplicateChunks
		want.repaired += st.RepairedChunks
		want.reqs += st.RepairRequests
		want.busy += st.BusyReplies
		want.byteErrors += st.ByteErrors
	}
	if got := fold(res1); got != want {
		t.Errorf("mux aggregate differs from %d independent clients:\n mux     %+v\n clients %+v", n, got, want)
	}
	if res1.RepairedChunks == 0 {
		t.Error("no repairs under a 25% drop plan; the comparison is vacuous")
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

	// The server must not have felt the audience: control sessions stay
	// bounded by the mux's connection pool, not the viewer count.
	resp, err := http.Get(statusURL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if limit := int64(res.Workers) + 1; snap.ControlSessionsPeak > limit {
		t.Errorf("server saw %d peak control sessions for %d viewers, want <= %d (mux pool)",
			snap.ControlSessionsPeak, viewers, limit)
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
	t.Logf("%d cohorts x %d fragments; heap in use after GC: early %d KiB, late max %d KiB; peak receive slots %d",
		out.res.Cohorts, k, early>>10, late>>10, out.res.PeakRecvSlots)
	const maxGrowth = 2 << 20
	if late > early+maxGrowth {
		t.Errorf("heap in use grew %d KiB from early to late in the run, want <= %d KiB: memory follows fragments completed",
			(late-early)>>10, maxGrowth>>10)
	}
}
