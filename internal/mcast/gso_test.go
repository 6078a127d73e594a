package mcast

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestGSOKillSwitch pins graceful degradation: with SKYSCRAPER_NO_GSO
// set, a fresh hub declines super-frames with exactly one logged notice
// and one counted fallback, cannot be forced back on, and still delivers
// batches as runs of one; a hub that loses GSO between two batches does
// the same from the next batch on.
func TestGSOKillSwitch(t *testing.T) {
	t.Setenv(NoGSOEnv, "1")
	var notices []string
	hub, err := NewHubConfigured(HubConfig{Logf: func(f string, a ...any) {
		notices = append(notices, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if hub.GSO() {
		t.Fatal("hub has GSO on despite the kill-switch")
	}
	if hub.SetGSO(true) {
		t.Error("SetGSO(true) re-armed a kill-switched hub")
	}
	if gsoCompiled {
		if got := hub.Stats().GSOFallbacks; got != 1 {
			t.Errorf("GSOFallbacks = %d, want 1", got)
		}
		count := 0
		for _, n := range notices {
			if strings.Contains(n, NoGSOEnv) {
				count++
			}
		}
		if count != 1 {
			t.Errorf("got %d kill-switch notices, want exactly 1: %q", count, notices)
		}
	}

	g := Group{Video: 5, Channel: 0}
	r, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := hub.Join(g, r.Addr()); err != nil {
		t.Fatal(err)
	}
	entries := []BatchEntry{
		{Group: g, Frame: []byte("after-kill-a")},
		{Group: g, Frame: []byte("after-kill-b")},
	}
	if n, err := hub.SendBatch(entries); err != nil || n != 2 {
		t.Fatalf("SendBatch after kill-switch = %d, %v; want 2, nil", n, err)
	}
	got := drainFrames(t, r, 2)
	if got[0] != "after-kill-a" || got[1] != "after-kill-b" {
		t.Errorf("member got %q, want [after-kill-a after-kill-b]", got)
	}
	if hub.Stats().Superframes != 0 {
		t.Errorf("Superframes = %d after kill-switch, want 0", hub.Stats().Superframes)
	}

	// Demotion at run time is the same stager with a lower cap: one hub,
	// GSO switched off between two batches.
	t.Setenv(NoGSOEnv, "")
	live, _ := newTestHub(t, nil, 0)
	if !live.GSO() {
		t.Skip("GSO path unavailable on this platform/kernel")
	}
	if err := live.Join(g, r.Addr()); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct{ superframes, syscalls int64 }{{1, 1}, {1, 2}} {
		if n, err := live.SendBatch(entries); err != nil || n != 2 {
			t.Fatalf("SendBatch %d = %d, %v; want 2, nil", i, n, err)
		}
		if got := drainOrdered(t, r, 2); got[0] != "after-kill-a" || got[1] != "after-kill-b" {
			t.Errorf("batch %d: member got %q, want [after-kill-a after-kill-b]", i, got)
		}
		if st := live.Stats(); st.Superframes != want.superframes || st.EgressSyscalls != want.syscalls {
			t.Errorf("batch %d: Superframes = %d, EgressSyscalls = %d; want %d, %d",
				i, st.Superframes, st.EgressSyscalls, want.superframes, want.syscalls)
		}
		live.SetGSO(false)
	}
}

// TestGSOZeroAlloc extends the alloc gate to the super-frame path: a
// mixed tick — a 22-frame super-frame chain first in batch order, then two
// plain datagrams the stager moves ahead of it — must reach the wire
// without allocating.
func TestGSOZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc count is meaningless")
	}
	hub, _ := newTestHub(t, nil, 0)
	if !hub.GSO() {
		t.Skip("GSO path unavailable on this platform/kernel")
	}
	tc := mixedTick()
	joinShared(t, hub, tc)
	entries := tc.entries()
	// Warm the pools, then pin the steady state on one P so the pooled
	// buffers are actually reused.
	if _, err := hub.SendBatch(entries); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := hub.SendBatch(entries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GSO SendBatch allocates %v objects per call, want 0", allocs)
	}
	if hub.Stats().Superframes == 0 {
		t.Error("Superframes = 0; the alloc gate did not exercise the GSO path")
	}
}

// benchSuperframe sends one batch per iteration with the super-frame path
// on or off, so the GSO rows in BENCH_egress.json read against a sendmmsg
// baseline over the identical workload. drain empties a receiver's socket
// in the background.
func benchSuperframe(b *testing.B, hub *Hub, entries []BatchEntry, perBatch int, gso bool) {
	if !hub.SetVectorized(true) {
		b.Skip("vectorized path unavailable on this platform")
	}
	if on := hub.SetGSO(gso); on != gso && gso {
		b.Skip("GSO path unavailable on this platform/kernel")
	}
	b.SetBytes(int64(perBatch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hub.SendBatch(entries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hub.Stats().DatagramsSent)/b.Elapsed().Seconds(), "datagrams/s")
	if s := hub.Stats().EgressSyscalls; s > 0 {
		b.ReportMetric(float64(hub.Stats().DatagramsSent)/float64(s), "datagrams/syscall")
	}
	if sf := hub.Stats().Superframes; sf > 0 {
		b.ReportMetric(float64(hub.Stats().GSOSegments)/float64(sf), "segments/superframe")
	}
}

func drainInBackground(r *Receiver) {
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, _, err := r.Conn.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
}

// BenchmarkEgressSuperframe is the GSO acceptance benchmark, the
// super-frame path on (path=gso) against the plain sendmmsg baseline
// (path=sendmmsg) over identical workloads — the datagrams/syscall and
// ns/op deltas are the point. members=N: an 8-chunk same-group batch (a
// typical catch-up run) fanned out to 1/8/64 members. shared-socket: one
// socket joined to 22 groups and a tick of one data frame for each — a
// viewer mux's share of a dense tick — with and without two larger frames
// mid-run breaking it (the server sends none: a parity frame is a data
// frame's size; the case keeps cutRuns's handling of one measured).
// mixed: mixedTick, the 22-group socket's chain first in batch order and
// two one-group sockets behind it, so every op pays the shortest-first
// reorder.
func BenchmarkEgressSuperframe(b *testing.B) {
	paths := []struct {
		name string
		gso  bool
	}{{"gso", true}, {"sendmmsg", false}}
	frame := make([]byte, 1052)
	for _, members := range []int{1, 8, 64} {
		for _, p := range paths {
			b.Run(fmt.Sprintf("members=%d/path=%s", members, p.name), func(b *testing.B) {
				g := Group{Video: 0, Channel: 0}
				hub, rcvs := newTestHub(b, []Group{g}, members)
				for _, r := range rcvs[g] {
					drainInBackground(r)
				}
				entries := make([]BatchEntry, 8)
				for i := range entries {
					entries[i] = BatchEntry{Group: g, Frame: frame}
				}
				benchSuperframe(b, hub, entries, members*len(entries)*len(frame), p.gso)
			})
		}
	}
	larger := make([]byte, 1061)
	for _, withLarger := range []bool{false, true} {
		name := "shared-socket/22-groups"
		if withLarger {
			name += "+larger-frames"
		}
		for _, p := range paths {
			b.Run(name+"/path="+p.name, func(b *testing.B) {
				hub, _ := newTestHub(b, nil, 0)
				r, err := NewReceiver()
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { r.Close() })
				var entries []BatchEntry
				bytes := 0
				for ch := 0; ch < 22; ch++ {
					g := Group{Video: 0, Channel: ch}
					if err := hub.Join(g, r.Addr()); err != nil {
						b.Fatal(err)
					}
					entries = append(entries, BatchEntry{Group: g, Frame: frame})
					bytes += len(frame)
					if withLarger && ch%11 == 7 {
						entries = append(entries, BatchEntry{Group: g, Frame: larger})
						bytes += len(larger)
					}
				}
				drainInBackground(r)
				benchSuperframe(b, hub, entries, bytes, p.gso)
			})
		}
	}
	for _, p := range paths {
		b.Run("mixed/path="+p.name, func(b *testing.B) {
			hub, _ := newTestHub(b, nil, 0)
			tc := mixedTick()
			for _, r := range joinShared(b, hub, tc) {
				drainInBackground(r)
			}
			entries := tc.entries()
			bytes := 0
			for _, e := range entries {
				bytes += len(e.Frame)
			}
			benchSuperframe(b, hub, entries, bytes, p.gso)
		})
	}
}
