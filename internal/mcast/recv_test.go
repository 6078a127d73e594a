package mcast

import (
	"fmt"
	"strings"
	"testing"
)

// recvGoldenFrame builds a size-byte frame for group g whose bytes
// [4:10) carry a unique six-character tag, so per-subscription delivery
// sequences stay comparable across receive paths.
func recvGoldenFrame(g Group, tag string, size int) []byte {
	f := testFrame(g, size)
	copy(f[4:], tag)
	return f
}

func recvTag(frame []byte) string { return string(frame[4:10]) }

// pickRecvRung sets the kill-switches that put every shared receiver t
// makes from then on onto the named ingress rung: "single" (one read a
// datagram), "recvmmsg" (batched reads, no GRO) or "gro" (batched reads
// of coalesced super-frames). A test that compares rungs makes each
// one's receiver in a subtest of its own.
func pickRecvRung(t testing.TB, mode string) {
	switch mode {
	case "single":
		t.Setenv(NoRecvmmsgEnv, "1")
	case "recvmmsg":
		t.Setenv(NoGROEnv, "1")
	}
}

// onRecvRung reports whether s came up on the named ingress rung; not
// where the platform, the kernel or the environment withholds it.
func onRecvRung(s *SharedReceiver, mode string) bool {
	switch mode {
	case "single":
		return !s.RecvBatched()
	case "recvmmsg":
		return s.RecvBatched() && !s.GRO()
	}
	return s.GRO()
}

// runRecvPath drives one scripted workload through a fresh shared
// receiver made on the named ingress rung and returns every group's
// ordered delivery sequence. The script mixes GSO-coalescible same-group
// runs (including a short final segment), interleaved groups, plain
// singles, and whole ticks for a socket subscribed to six more groups —
// one frame per group, which the hub sends as cross-group super-frames,
// with a parity-sized frame breaking the run — every shape the split
// logic must keep in order. nil means the rung is unavailable on this
// platform/kernel.
func runRecvPath(t *testing.T, mode string) map[Group][]string {
	t.Helper()
	pickRecvRung(t, mode)
	s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Classify: testClassify, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !onRecvRung(s, mode) {
		return nil
	}

	gA, gB := Group{Video: 7, Channel: 0}, Group{Video: 7, Channel: 1}
	subA, err := s.Subscribe(gA, 64, 2048)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := s.Subscribe(gB, 64, 2048)
	if err != nil {
		t.Fatal(err)
	}

	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	// Super-frames on the wire when the platform offers them — the shape
	// the GRO rung exists to receive; without GSO the same script arrives
	// pre-segmented and the sequences must still match.
	subs := map[Group]*Subscription{gA: subA, gB: subB}
	var ticked []Group // the groups that get one frame per tick
	for ch := 2; ch < 8; ch++ {
		g := Group{Video: 7, Channel: ch}
		if subs[g], err = s.Subscribe(g, 64, 2048); err != nil {
			t.Fatal(err)
		}
		ticked = append(ticked, g)
	}
	for g := range subs {
		if err := hub.Join(g, s.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	var run []BatchEntry
	for i := 0; i < 8; i++ { // coalescible run: 8 equal gA frames
		run = append(run, BatchEntry{Group: gA, Frame: recvGoldenFrame(gA, fmt.Sprintf("a%05d", i), 1052)})
	}
	if _, err := hub.SendBatch(run); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Send(gA, recvGoldenFrame(gA, "a00008", 1052)); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.SendBatch([]BatchEntry{ // interleaved groups, one address: one super-frame
		{Group: gA, Frame: recvGoldenFrame(gA, "a00009", 500)},
		{Group: gB, Frame: recvGoldenFrame(gB, "b00000", 500)},
		{Group: gA, Frame: recvGoldenFrame(gA, "a00010", 500)},
		{Group: gB, Frame: recvGoldenFrame(gB, "b00001", 500)},
	}); err != nil {
		t.Fatal(err)
	}
	tail := []BatchEntry{ // equal segments + short final, one super-frame
		{Group: gB, Frame: recvGoldenFrame(gB, "b00002", 1052)},
		{Group: gB, Frame: recvGoldenFrame(gB, "b00003", 1052)},
		{Group: gB, Frame: recvGoldenFrame(gB, "b00004", 1052)},
		{Group: gB, Frame: recvGoldenFrame(gB, "b00005", 100)},
	}
	if _, err := hub.SendBatch(tail); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Send(gB, recvGoldenFrame(gB, "b00006", 100)); err != nil {
		t.Fatal(err)
	}

	want := map[Group]int{gA: 11, gB: 7}
	for tick := 0; tick < 3; tick++ { // cross-group super-frames: a frame per group per tick
		var es []BatchEntry
		for i, g := range ticked {
			es = append(es, BatchEntry{Group: g, Frame: recvGoldenFrame(g, fmt.Sprintf("t%d-%03d", tick, g.Channel), 1052)})
			want[g]++
			if tick == 1 && i == 2 { // a parity-sized frame closes the run mid-tick
				es = append(es, BatchEntry{Group: g, Frame: recvGoldenFrame(g, fmt.Sprintf("p%d-%03d", tick, g.Channel), 1061)})
				want[g]++
			}
		}
		if _, err := hub.SendBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[Group][]string)
	for g, sub := range subs {
		for i := 0; i < want[g]; i++ {
			slot := drain(t, sub)
			got[g] = append(got[g], recvTag(sub.Frame(slot)))
			sub.Release(slot)
		}
	}
	if st := s.Stats(); st.Dropped != 0 || st.Unroutable != 0 {
		t.Errorf("%s: dropped=%d unroutable=%d, want 0/0", mode, st.Dropped, st.Unroutable)
	}
	if mode == "gro" && s.GRO() && hub.Stats().Superframes > 0 && s.Stats().GROSegments == 0 {
		t.Errorf("gro: %d super-frames on the wire but GROSegments = 0; coalesced receive never engaged", hub.Stats().Superframes)
	}
	if mode != "single" && s.RecvBatched() && s.Stats().BatchedReads == 0 {
		t.Errorf("%s: BatchedReads = 0; the batched rung never engaged", mode)
	}
	return got
}

// TestRecvPathsIdentical is the fan-in half of the golden equivalence
// gate, mirroring TestBatchPathsIdentical: the portable single-read
// path, the recvmmsg rung, and the GRO rung on top of it must deliver
// identical per-subscription sequences — same frames, same order — for
// a workload that includes the GSO super-frames GRO exists to split.
// Unavailable rungs are logged and skipped; the single-read baseline
// always runs.
func TestRecvPathsIdentical(t *testing.T) {
	var base map[Group][]string
	for _, mode := range []string{"single", "recvmmsg", "gro"} {
		t.Run(mode, func(t *testing.T) {
			got := runRecvPath(t, mode)
			if got == nil {
				t.Skipf("%s rung unavailable on this platform; not compared", mode)
			}
			if mode == "single" {
				base = got
				return
			}
			for g, want := range base {
				if len(got[g]) != len(want) {
					t.Fatalf("%s: group %v delivered %d frames, single-read %d", mode, g, len(got[g]), len(want))
				}
				for i := range want {
					if got[g][i] != want[i] {
						t.Fatalf("%s: group %v frame %d = %q, single-read %q", mode, g, i, got[g][i], want[i])
					}
				}
			}
		})
	}
}

// TestRecvKillSwitch pins graceful degradation of the ingress ladder,
// mirroring TestGSOKillSwitch: each kill-switch leaves a fresh receiver
// on the rung below, still delivering —
// including the hub's super-frames, which must arrive kernel-segmented
// once GRO is declined.
func TestRecvKillSwitch(t *testing.T) {
	t.Run("recvmmsg", func(t *testing.T) {
		t.Setenv(NoRecvmmsgEnv, "1")
		s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Classify: testClassify, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.RecvBatched() || s.GRO() {
			t.Fatalf("RecvBatched=%v GRO=%v despite the kill-switch, want false/false", s.RecvBatched(), s.GRO())
		}
		assertRecvStillDelivers(t, s)
	})

	t.Run("gro", func(t *testing.T) {
		t.Setenv(NoGROEnv, "1")
		var notices []string
		s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Classify: testClassify,
			Logf: func(f string, a ...any) { notices = append(notices, fmt.Sprintf(f, a...)) }})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.GRO() {
			t.Fatal("receiver has GRO on despite the kill-switch")
		}
		if recvCompiled && s.RecvBatched() {
			if got := s.Stats().GROFallbacks; got != 1 {
				t.Errorf("GROFallbacks = %d, want 1", got)
			}
			count := 0
			for _, n := range notices {
				if strings.Contains(n, NoGROEnv) {
					count++
				}
			}
			if count != 1 {
				t.Errorf("got %d kill-switch notices, want exactly 1: %q", count, notices)
			}
		}
		assertRecvStillDelivers(t, s)
	})
}

// assertRecvStillDelivers proves a degraded receiver still works: a
// coalescible same-group batch — a super-frame where the hub's GSO path
// is live — arrives complete and in order.
func assertRecvStillDelivers(t *testing.T, s *SharedReceiver) {
	t.Helper()
	g := Group{Video: 8, Channel: 0}
	sub, err := s.Subscribe(g, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Join(g, s.Addr()); err != nil {
		t.Fatal(err)
	}
	var entries []BatchEntry
	for i := 0; i < 4; i++ {
		entries = append(entries, BatchEntry{Group: g, Frame: recvGoldenFrame(g, fmt.Sprintf("k%05d", i), 1052)})
	}
	if _, err := hub.SendBatch(entries); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		slot := drain(t, sub)
		if got, want := recvTag(sub.Frame(slot)), fmt.Sprintf("k%05d", i); got != want {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
		sub.Release(slot)
	}
}
