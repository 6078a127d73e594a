package mcast

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// newTestHub builds a hub with nmember receivers joined to each of the
// given groups, returning the hub, the per-group receivers, and a cleanup.
func newTestHub(t testing.TB, groups []Group, nmember int) (*Hub, map[Group][]*Receiver) {
	t.Helper()
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	rcvs := make(map[Group][]*Receiver)
	for _, g := range groups {
		for i := 0; i < nmember; i++ {
			r, err := NewReceiver()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			if err := hub.Join(g, r.Addr()); err != nil {
				t.Fatal(err)
			}
			rcvs[g] = append(rcvs[g], r)
		}
	}
	return hub, rcvs
}

// drainOrdered reads exactly want datagrams from r and returns their
// payloads as strings in arrival order.
func drainOrdered(t *testing.T, r *Receiver, want int) []string {
	t.Helper()
	var got []string
	buf := make([]byte, 8192)
	for i := 0; i < want; i++ {
		r.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := r.Conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("read %d of %d: %v", i+1, want, err)
		}
		got = append(got, string(buf[:n]))
	}
	// Nothing further should arrive. (Loopback delivery is effectively
	// synchronous; a short probe keeps 160 receivers' worth of checks fast.)
	r.Conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	if n, _, err := r.Conn.ReadFromUDPAddrPort(buf); err == nil {
		t.Fatalf("unexpected extra datagram %q", buf[:n])
	}
	return got
}

// drainFrames is drainOrdered with the payloads sorted for set comparison.
func drainFrames(t *testing.T, r *Receiver, want int) []string {
	t.Helper()
	got := drainOrdered(t, r, want)
	sort.Strings(got)
	return got
}

func TestSendBatchFanOut(t *testing.T) {
	g0 := Group{Video: 0, Channel: 0}
	g1 := Group{Video: 0, Channel: 1}
	hub, rcvs := newTestHub(t, []Group{g0, g1}, 3)

	entries := []BatchEntry{
		{Group: g0, Frame: []byte("chunk-a")},
		{Group: g1, Frame: []byte("chunk-b")},
		{Group: g0, Frame: []byte("chunk-c")},
		{Group: Group{Video: 9, Channel: 9}, Frame: []byte("orphan")}, // empty group
	}
	n, err := hub.SendBatch(entries)
	if err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if n != 9 { // 3 members × 2 entries for g0, 3 × 1 for g1
		t.Fatalf("SendBatch wrote %d datagrams, want 9", n)
	}
	for _, r := range rcvs[g0] {
		got := drainFrames(t, r, 2)
		if got[0] != "chunk-a" || got[1] != "chunk-c" {
			t.Errorf("g0 member got %q, want [chunk-a chunk-c]", got)
		}
	}
	for _, r := range rcvs[g1] {
		got := drainFrames(t, r, 1)
		if got[0] != "chunk-b" {
			t.Errorf("g1 member got %q, want [chunk-b]", got)
		}
	}
	if hub.Stats().DatagramsSent != 9 {
		t.Errorf("DatagramsSent = %d, want 9", hub.Stats().DatagramsSent)
	}
	if hub.Stats().EgressBatches != 1 {
		t.Errorf("EgressBatches = %d, want 1", hub.Stats().EgressBatches)
	}
	wantBytes := int64(3*len("chunk-a") + 3*len("chunk-b") + 3*len("chunk-c"))
	if hub.Stats().BatchedBytes != wantBytes {
		t.Errorf("BatchedBytes = %d, want %d", hub.Stats().BatchedBytes, wantBytes)
	}
	if hub.Stats().EgressSyscalls == 0 {
		t.Error("EgressSyscalls = 0, want > 0")
	}
	if hub.Vectorized() && hub.Stats().EgressSyscalls >= 9 {
		t.Errorf("vectorized path made %d syscalls for 9 datagrams, want fewer", hub.Stats().EgressSyscalls)
	}
}

// TestSendBatchEmpty pins the trivial cases: an empty entry slice and a
// batch that expands to zero destinations both succeed without touching
// the batch ledger.
func TestSendBatchEmpty(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if n, err := hub.SendBatch(nil); n != 0 || err != nil {
		t.Fatalf("SendBatch(nil) = %d, %v; want 0, nil", n, err)
	}
	if n, err := hub.SendBatch([]BatchEntry{{Group: Group{1, 1}, Frame: []byte("x")}}); n != 0 || err != nil {
		t.Fatalf("SendBatch(empty group) = %d, %v; want 0, nil", n, err)
	}
	if hub.Stats().EgressBatches != 0 {
		t.Errorf("EgressBatches = %d, want 0", hub.Stats().EgressBatches)
	}
	hub.Close()
	if _, err := hub.SendBatch([]BatchEntry{{Group: Group{0, 0}, Frame: []byte("x")}}); err == nil {
		t.Error("SendBatch on closed hub succeeded, want error")
	}
}

// TestSendBatchBestEffort mirrors TestSendBestEffort for the batch path:
// a member whose address cannot be written (an IPv6 destination on the
// hub's IPv4 socket) is skipped and counted while the rest of the batch
// is delivered, on both the vectorized and fallback paths.
func TestSendBatchBestEffort(t *testing.T) {
	g := Group{Video: 0, Channel: 2}
	hub, rcvs := newTestHub(t, []Group{g}, 2)
	if err := hub.Join(g, &net.UDPAddr{IP: net.IPv6loopback, Port: 9}); err != nil {
		t.Fatal(err)
	}
	n, err := hub.SendBatch([]BatchEntry{{Group: g, Frame: []byte("best-effort")}})
	if err == nil {
		t.Fatal("SendBatch with poisoned member returned nil error")
	}
	if n != 2 {
		t.Fatalf("SendBatch wrote %d datagrams, want 2", n)
	}
	if hub.Stats().SendFailures != 1 {
		t.Errorf("SendFailures = %d, want 1", hub.Stats().SendFailures)
	}
	if hub.Stats().DatagramsSent != 2 {
		t.Errorf("DatagramsSent = %d, want 2", hub.Stats().DatagramsSent)
	}
	for _, r := range rcvs[g] {
		got := drainFrames(t, r, 1)
		if got[0] != "best-effort" {
			t.Errorf("member got %q, want best-effort", got)
		}
	}
}

// TestSendBatchConcurrentWithRepair: several egress shards' SendBatch
// calls run at once on one hub, each batch a tick's scheduled frames with
// a NACK re-send staged behind them, as a live server's shards send, on
// every egress path the host has. Under -race this is the proof that
// concurrent batches share nothing: not the pooled batch buffers, the
// stager, or the destination chains. Every datagram that arrives is
// whole, on its own group, and from one shard, and the hub counts every
// datagram every shard wrote.
func TestSendBatchConcurrentWithRepair(t *testing.T) {
	const groups, size, batches, shards = 3, 1000, 100, 3
	for _, mode := range []string{"generic", "sendmmsg", "gso"} {
		t.Run(mode, func(t *testing.T) {
			gs := sharedGroups(groups)
			hub, rcvs := newTestHub(t, gs, 1)
			if !setBatchPath(hub, mode) {
				t.Skipf("no %s path here", mode)
			}
			// A frame is its shard's tag, its group's channel, 'T' for a
			// scheduled frame or 'R' for a re-send, and then one byte, the
			// batch's number, all the way to the end.
			frame := func(shard byte, g Group, kind byte, i int) BatchEntry {
				f := bytes.Repeat([]byte{byte(i)}, size)
				f[0], f[1], f[2] = shard, byte(g.Channel), kind
				return BatchEntry{Group: g, Frame: f}
			}
			batch := func(shard byte, i int) []BatchEntry {
				es := make([]BatchEntry, 0, len(gs)+1)
				for _, g := range gs {
					es = append(es, frame(shard, g, 'T', i))
				}
				return append(es, frame(shard, gs[i%len(gs)], 'R', i))
			}
			var readers sync.WaitGroup
			got := make([]map[[2]byte]int, len(gs)) // per group: datagrams by (shard, kind), {0, 0} for a bad one
			for j, g := range gs {
				r := rcvs[g][0]
				got[j] = make(map[[2]byte]int)
				readers.Add(1)
				go func() {
					defer readers.Done()
					buf := make([]byte, 2*size)
					for {
						n, err := r.Conn.Read(buf)
						if err != nil {
							return // the deadline set once every shard is done
						}
						f := buf[:n]
						if n != size || int(f[1]) != g.Channel || f[0] < 'A' || f[0] >= 'A'+shards ||
							(f[2] != 'T' && f[2] != 'R') || bytes.Count(f[3:], f[3:4]) != size-3 {
							got[j][[2]byte{}]++
						} else {
							got[j][[2]byte{f[0], f[2]}]++
						}
					}
				}()
			}
			var senders sync.WaitGroup
			sent := make([]int, shards)
			for k := range sent {
				senders.Add(1)
				go func() {
					defer senders.Done()
					for i := 0; i < batches; i++ {
						n, err := hub.SendBatch(batch(byte('A'+k), i))
						if err != nil {
							t.Errorf("shard %d batch %d: %v", k, i, err)
						}
						sent[k] += n
					}
				}()
			}
			senders.Wait()
			for _, g := range gs {
				rcvs[g][0].Conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			}
			readers.Wait()

			want := batches * (groups + 1)
			for k, n := range sent {
				if n != want {
					t.Errorf("shard %d wrote %d datagrams, want %d", k, n, want)
				}
			}
			if st := hub.Stats(); st.DatagramsSent != int64(shards*want) {
				t.Errorf("hub counted %d datagrams, want %d", st.DatagramsSent, shards*want)
			}
			byShard := make(map[[2]byte]int)
			for j, g := range got {
				if g[[2]byte{}] != 0 {
					t.Errorf("%v: %d datagrams torn, mixed or on the wrong group", gs[j], g[[2]byte{}])
				}
				for k, n := range g {
					byShard[k] += n
				}
			}
			// Loopback may drop what a slow reader leaves queued; what
			// arrives must still include every shard's scheduled frames and
			// re-sends.
			for k := byte('A'); k < 'A'+shards; k++ {
				if ticks, resends := byShard[[2]byte{k, 'T'}], byShard[[2]byte{k, 'R'}]; ticks == 0 || resends == 0 ||
					ticks > batches*groups || resends > batches {
					t.Errorf("shard %c: received %d scheduled and %d re-sent datagrams of %d and %d sent", k, ticks, resends, batches*groups, batches)
				}
			}
		})
	}
}

// goldenFrame builds a size-byte payload whose prefix names it, so frame
// sets stay distinguishable after the sorted set comparison.
func goldenFrame(tag string, size int) []byte {
	b := bytes.Repeat([]byte{'.'}, size)
	copy(b, tag)
	return b
}

// batchGoldenCase is one golden-equivalence workload: a batch shape
// chosen to exercise a specific edge of the GSO run builder, with the
// super-frame ledger the GSO path must report for it (per member).
//
// The audience is `members` receivers on each of goldenG0 and goldenG1,
// unless shared is set: then receiver i joins the groups shared[i] (one
// socket hearing many groups, the shape of a viewer mux), members is 1,
// and the ledger is the hub's total.
type batchGoldenCase struct {
	name      string
	members   int
	shared    [][]Group
	entries   func() []BatchEntry
	perGroup  map[Group]int // frames each member of a group receives
	wantSuper int           // GSO super-frames per member
	wantSegs  int           // wire datagrams those super-frames carry, per member
}

var goldenG0 = Group{Video: 1, Channel: 0}
var goldenG1 = Group{Video: 1, Channel: 1}

// sharedGroups names n groups for the shared-socket cases; oneEach is a
// batch of one size-byte frame for each of them, in order.
func sharedGroups(n int) []Group {
	gs := make([]Group, n)
	for i := range gs {
		gs[i] = Group{Video: 2, Channel: i}
	}
	return gs
}

func oneEach(gs []Group, size int) []BatchEntry {
	es := make([]BatchEntry, len(gs))
	for i, g := range gs {
		es[i] = BatchEntry{Group: g, Frame: goldenFrame(fmt.Sprintf("ch%02d", g.Channel), size)}
	}
	return es
}

func batchGoldenCases() []batchGoldenCase {
	return []batchGoldenCase{
		{
			// The original window-handoff workload: more destinations than
			// one sendmmsg window (2 groups × 40 members × 2 frames = 160
			// datagrams). Groups alternate entry by entry, but each member
			// hears one group: its two equal-size frames are one run.
			name:    "interleaved",
			members: 40,
			entries: func() []BatchEntry {
				var es []BatchEntry
				for i := 0; i < 2; i++ {
					es = append(es,
						BatchEntry{Group: goldenG0, Frame: []byte(fmt.Sprintf("g0-frame%d", i))},
						BatchEntry{Group: goldenG1, Frame: []byte(fmt.Sprintf("g1-frame%d", i))})
				}
				return es
			},
			perGroup:  map[Group]int{goldenG0: 2, goldenG1: 2},
			wantSuper: 2,
			wantSegs:  4,
		},
		{
			// One same-group run whose final frame is shorter than the
			// segment size — the exact shape UDP GSO defines (equal segments,
			// short tail), which the run builder must keep in ONE super-frame.
			name:    "short-final-segment",
			members: 8,
			entries: func() []BatchEntry {
				var es []BatchEntry
				for i := 0; i < 4; i++ {
					es = append(es, BatchEntry{Group: goldenG0, Frame: goldenFrame(fmt.Sprintf("sf%d", i), 1052)})
				}
				return append(es, BatchEntry{Group: goldenG0, Frame: goldenFrame("sf4", 100)})
			},
			perGroup:  map[Group]int{goldenG0: 5, goldenG1: 0},
			wantSuper: 1,
			wantSegs:  5,
		},
		{
			// Mixed groups and a size regrow. A g0 member is owed three full
			// frames, a short one and a full one: the short frame closes the
			// run behind itself (one super-frame of 4) and the frame after it
			// goes out plain. A g1 member's two frames are one super-frame.
			name:    "mixed-groups",
			members: 8,
			entries: func() []BatchEntry {
				return []BatchEntry{
					{Group: goldenG0, Frame: goldenFrame("m0a", 1052)},
					{Group: goldenG0, Frame: goldenFrame("m0b", 1052)},
					{Group: goldenG0, Frame: goldenFrame("m0c", 1052)},
					{Group: goldenG1, Frame: goldenFrame("m1a", 1052)},
					{Group: goldenG1, Frame: goldenFrame("m1b", 1052)},
					{Group: goldenG0, Frame: goldenFrame("t0", 100)},
					{Group: goldenG0, Frame: goldenFrame("t1", 1052)},
				}
			},
			perGroup:  map[Group]int{goldenG0: 5, goldenG1: 2},
			wantSuper: 2,
			wantSegs:  6,
		},
		{
			// One socket joined to 22 groups, one data-sized frame for each
			// — a viewer mux's tick. The whole tick is one super-frame.
			name:      "shared-socket-22-groups",
			members:   1,
			shared:    [][]Group{sharedGroups(22)},
			entries:   func() []BatchEntry { return oneEach(sharedGroups(22), 1052) },
			wantSuper: 1,
			wantSegs:  22,
		},
		{
			// The same tick with a larger frame mid-run, behind the 11th
			// data frame: it closes the run of 11 and opens one of its own
			// segment size, which the next (shorter) data frame closes; the
			// last 10 are a third run. The server sends no larger frame
			// (a parity frame is a data frame's size), but a sender may, and
			// cutRuns must still cut it right. (The case keeps its name.)
			name:    "shared-socket-22-groups+parity",
			members: 1,
			shared:  [][]Group{sharedGroups(22)},
			entries: func() []BatchEntry {
				es := oneEach(sharedGroups(22), 1052)
				larger := BatchEntry{Group: es[10].Group, Frame: goldenFrame("ch10-larger", 1061)}
				return append(es[:11:11], append([]BatchEntry{larger}, es[11:]...)...)
			},
			wantSuper: 3,
			wantSegs:  23,
		},
		{
			// 70 frames to one address: the kernel's 64-segment cap.
			name:      "shared-socket-70-groups",
			members:   1,
			shared:    [][]Group{sharedGroups(70)},
			entries:   func() []BatchEntry { return oneEach(sharedGroups(70), 1052) },
			wantSuper: 2, // 64 + 6
			wantSegs:  70,
		},
		{
			// 17 frames of one 4 KiB chunk each: 15 fit under maxGSOBytes.
			name:      "shared-socket-4k-chunks",
			members:   1,
			shared:    [][]Group{sharedGroups(17)},
			entries:   func() []BatchEntry { return oneEach(sharedGroups(17), 4096+28) },
			wantSuper: 2, // 15 + 2
			wantSegs:  17,
		},
		{
			// Two sockets whose group sets overlap: each gets its own frames,
			// in batch order, as its own super-frame.
			name:      "shared-sockets-overlapping",
			members:   1,
			shared:    [][]Group{sharedGroups(9)[:6], sharedGroups(9)[3:]},
			entries:   func() []BatchEntry { return oneEach(sharedGroups(9), 1052) },
			wantSuper: 2,
			wantSegs:  12,
		},
	}
}

// mixedTick is a tick heard by listeners of unequal weight: one socket
// joined to 22 groups, whose frames lead the batch, then two one-group
// sockets, whose groups come last — a viewer mux beside two set-top boxes.
// The batch is one data-sized frame per group in that order, so the
// longest destination chain appears first and the stager must reorder.
func mixedTick() batchGoldenCase {
	gs := sharedGroups(24)
	return batchGoldenCase{
		name:    "mixed",
		shared:  [][]Group{gs[:22], gs[22:23], gs[23:]},
		entries: func() []BatchEntry { return oneEach(gs, 1052) },
	}
}

// joinShared builds the shared-socket audience of tc on hub: receiver i
// joined to every group of tc.shared[i].
func joinShared(t testing.TB, hub *Hub, tc batchGoldenCase) []*Receiver {
	t.Helper()
	rs := make([]*Receiver, len(tc.shared))
	for i, gs := range tc.shared {
		r, err := NewReceiver()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		for _, g := range gs {
			if err := hub.Join(g, r.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		rs[i] = r
	}
	return rs
}

// owed is what a socket joined to gs must receive from entries: the frames
// of its groups, in batch order.
func owed(entries []BatchEntry, gs []Group) []string {
	var want []string
	for _, e := range entries {
		for _, g := range gs {
			if e.Group == g {
				want = append(want, string(e.Frame))
			}
		}
	}
	return want
}

// setBatchPath forces hub onto the named egress path, reporting false where
// the platform or kernel does not have it.
func setBatchPath(hub *Hub, mode string) bool {
	switch mode {
	case "generic":
		hub.SetGSO(false)
		hub.SetVectorized(false)
	case "sendmmsg":
		if !hub.SetVectorized(true) {
			return false
		}
		hub.SetGSO(false)
	case "gso":
		return hub.SetVectorized(true) && hub.SetGSO(true)
	}
	return true
}

// runBatchPath sends one golden case through the named egress path on a
// fresh hub and returns what every member received. nil means the path is
// unavailable on this platform/kernel.
func runBatchPath(t *testing.T, mode string, tc batchGoldenCase) (int, map[Group][][]string) {
	t.Helper()
	groups := []Group{goldenG0, goldenG1}
	var hub *Hub
	var rcvs map[Group][]*Receiver
	var shared []*Receiver
	if tc.shared == nil {
		hub, rcvs = newTestHub(t, groups, tc.members)
	} else {
		hub, _ = newTestHub(t, nil, 0)
		shared = joinShared(t, hub, tc)
	}
	if !setBatchPath(hub, mode) {
		return -1, nil
	}
	entries := tc.entries()
	n, err := hub.SendBatch(entries)
	if err != nil {
		t.Fatalf("%s SendBatch: %v", mode, err)
	}
	wantN := 0
	for _, c := range tc.perGroup {
		wantN += c * tc.members
	}
	for _, gs := range tc.shared {
		wantN += len(owed(entries, gs))
	}
	if n != wantN {
		t.Fatalf("%s SendBatch wrote %d datagrams, want %d", mode, n, wantN)
	}
	if mode == "gso" {
		if got, want := hub.Stats().Superframes, int64(tc.wantSuper*tc.members); got != want {
			t.Errorf("gso: Superframes = %d, want %d", got, want)
		}
		if got, want := hub.Stats().GSOSegments, int64(tc.wantSegs*tc.members); got != want {
			t.Errorf("gso: GSOSegments = %d, want %d", got, want)
		}
	} else if hub.Stats().Superframes != 0 {
		t.Errorf("%s: Superframes = %d, want 0", mode, hub.Stats().Superframes)
	}
	if mode == "sendmmsg" && tc.shared != nil {
		// Runs of one: a message per datagram, sendmmsgBatch to a syscall.
		if got, want := hub.Stats().EgressSyscalls, int64((n+63)/64); got != want {
			t.Errorf("sendmmsg: EgressSyscalls = %d for %d datagrams, want %d", got, n, want)
		}
	}
	frames := make(map[Group][][]string)
	for _, g := range groups {
		for _, r := range rcvs[g] {
			frames[g] = append(frames[g], drainFrames(t, r, tc.perGroup[g]))
		}
	}
	// A shared socket must see its frames in batch order on every path —
	// which is per-group order and more. For the comparison across paths
	// the sockets are filed under goldenG0, which none of them has joined.
	for i, r := range shared {
		want := owed(entries, tc.shared[i])
		got := drainOrdered(t, r, len(want))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: shared socket %d frame %d is %.12q, want %.12q", mode, i, j, got[j], want[j])
			}
		}
		frames[goldenG0] = append(frames[goldenG0], got)
	}
	return n, frames
}

// TestBatchPathsIdentical is the fan-out half of the golden equivalence
// gate, three-way: the portable fallback, the sendmmsg fast path and the
// GSO super-frame path must deliver exactly the same frame sets to the
// same members. The cases cover the sendmmsg
// window handoff, a short final segment, and group/size breaks that
// force the run builder to split. Unavailable paths are logged and
// skipped — the generic baseline always runs.
func TestBatchPathsIdentical(t *testing.T) {
	for _, tc := range batchGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			nGen, framesGen := runBatchPath(t, "generic", tc)
			for _, mode := range []string{"sendmmsg", "gso"} {
				n, frames := runBatchPath(t, mode, tc)
				if frames == nil {
					t.Logf("%s path unavailable on this platform; not compared", mode)
					continue
				}
				if n != nGen {
					t.Errorf("%s wrote %d datagrams, generic %d", mode, n, nGen)
				}
				for _, g := range []Group{goldenG0, goldenG1} {
					for i := range framesGen[g] {
						for j := range framesGen[g][i] {
							if frames[g][i][j] != framesGen[g][i][j] {
								t.Fatalf("%v member %d frame %d: %s %q, generic %q",
									g, i, j, mode, frames[g][i][j], framesGen[g][i][j])
							}
						}
					}
				}
			}
		})
	}
}

// TestNoSendmmsgEnvToggle pins the CI escape hatch: with the env var set,
// a fresh hub must come up on the fallback path.
func TestNoSendmmsgEnvToggle(t *testing.T) {
	t.Setenv(NoSendmmsgEnv, "1")
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if hub.Vectorized() {
		t.Errorf("hub is vectorized despite %s=1", NoSendmmsgEnv)
	}
}

// TestSendBatchZeroAlloc is the alloc gate for the batched hot path at runs
// of one frame (the sendmmsg stager where the platform has it, the portable
// writer otherwise). The batch is mixedTick's, heavy chain first, so the
// stager's shortest-first reorder runs inside the measured call.
func TestSendBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc count is meaningless")
	}
	hub, _ := newTestHub(t, nil, 0)
	hub.SetGSO(false)
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
		t.Errorf("SendBatch allocates %v objects per call, want 0", allocs)
	}
}

// benchFanout measures the batched egress path at a given group size:
// one SendBatch per iteration delivering one chunk to every member.
func benchFanout(b *testing.B, members int, vectorized bool) {
	g := Group{Video: 0, Channel: 0}
	hub, rcvs := newTestHub(b, []Group{g}, members)
	if on := hub.SetVectorized(vectorized); on != vectorized && vectorized {
		b.Skip("vectorized path unavailable on this platform")
	}
	// Receivers must drain or their kernel buffers fill and datagrams
	// drop. ReadFromUDPAddrPort keeps the drain loops allocation-free so
	// they do not pollute the sender's allocs/op; they exit when the
	// benchmark cleanup closes their sockets.
	for _, rs := range rcvs {
		for _, r := range rs {
			go func(r *Receiver) {
				buf := make([]byte, 2048)
				for {
					if _, _, err := r.Conn.ReadFromUDPAddrPort(buf); err != nil {
						return
					}
				}
			}(r)
		}
	}
	frame := make([]byte, 1052)
	entries := []BatchEntry{{Group: g, Frame: frame}}
	b.SetBytes(int64(members * len(frame)))
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
}

// BenchmarkEgressFanout is the acceptance benchmark: batched egress
// (sendmmsg where available) across the member counts named in the issue.
func BenchmarkEgressFanout(b *testing.B) {
	for _, members := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			benchFanout(b, members, true)
		})
	}
}

// BenchmarkEgressFanoutFallback is the same workload on the portable
// one-write-per-datagram path — the seed behavior, kept as the baseline
// the vectorized numbers are compared against.
func BenchmarkEgressFanoutFallback(b *testing.B) {
	for _, members := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			benchFanout(b, members, false)
		})
	}
}
