package mcast

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestJoinSendLeave(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	rcv, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()

	g := Group{Video: 1, Channel: 2}
	if n, err := hub.Send(g, []byte("nobody")); err != nil || n != 0 {
		t.Fatalf("send to empty group: n=%d err=%v", n, err)
	}
	if err := hub.Join(g, rcv.Addr()); err != nil {
		t.Fatal(err)
	}
	if hub.Members(g) != 1 {
		t.Fatalf("members = %d", hub.Members(g))
	}
	// Double join is idempotent.
	if err := hub.Join(g, rcv.Addr()); err != nil {
		t.Fatal(err)
	}
	if hub.Members(g) != 1 {
		t.Fatalf("members after double join = %d", hub.Members(g))
	}

	msg := []byte("hello broadcast")
	if n, err := hub.Send(g, msg); err != nil || n != 1 {
		t.Fatalf("send: n=%d err=%v", n, err)
	}
	buf := make([]byte, 64)
	rcv.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != string(msg) {
		t.Errorf("received %q", buf[:n])
	}
	if hub.Stats().DatagramsSent != 1 {
		t.Errorf("DatagramsSent = %d", hub.Stats().DatagramsSent)
	}

	hub.Leave(g, rcv.Addr())
	if hub.Members(g) != 0 {
		t.Errorf("members after leave = %d", hub.Members(g))
	}
	// Sends after leave reach nobody.
	if n, err := hub.Send(g, msg); err != nil || n != 0 {
		t.Errorf("send after leave: n=%d err=%v", n, err)
	}
}

func TestGroupIsolation(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ga, gb := Group{Video: 0, Channel: 1}, Group{Video: 0, Channel: 2}
	if err := hub.Join(ga, a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := hub.Join(gb, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Send(ga, []byte("for-a")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	b.Conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, _, err := b.Conn.ReadFromUDPAddrPort(buf); err == nil {
		t.Error("receiver b got traffic for group a")
	}
	a.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := a.Conn.ReadFromUDPAddrPort(buf)
	if err != nil || string(buf[:n]) != "for-a" {
		t.Errorf("receiver a: %q, %v", buf[:n], err)
	}
}

func TestFanOut(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g := Group{Video: 3, Channel: 1}
	const nRcv = 5
	var rcvs []*Receiver
	for i := 0; i < nRcv; i++ {
		r, err := NewReceiver()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rcvs = append(rcvs, r)
		if err := hub.Join(g, r.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := hub.Send(g, []byte("all")); err != nil || n != nRcv {
		t.Fatalf("fan out n=%d err=%v", n, err)
	}
	for i, r := range rcvs {
		buf := make([]byte, 8)
		r.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := r.Conn.ReadFromUDPAddrPort(buf)
		if err != nil || string(buf[:n]) != "all" {
			t.Errorf("receiver %d: %q, %v", i, buf[:n], err)
		}
	}
}

func TestClosedHub(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	g := Group{}
	if _, err := hub.Send(g, []byte("x")); err == nil {
		t.Error("send on closed hub succeeded")
	}
	if err := hub.Join(g, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}); err == nil {
		t.Error("join on closed hub succeeded")
	}
	if err := hub.Join(Group{}, nil); err == nil {
		t.Error("nil join address accepted")
	}
}

func TestGroupString(t *testing.T) {
	if got := (Group{Video: 4, Channel: 2}).String(); got != "video4/ch2" {
		t.Errorf("String = %q", got)
	}
}

// TestSendBestEffort is the regression test for the fan-out abort bug: a
// member whose write fails mid-group (here an IPv6 destination the hub's
// IPv4 socket cannot reach, joined between two healthy receivers) must not
// starve the members after it. Delivery continues, the failure is counted,
// and the aggregated error reports how many writes failed.
func TestSendBestEffort(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g := Group{Video: 1, Channel: 1}

	first, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := hub.Join(g, first.Addr()); err != nil {
		t.Fatal(err)
	}
	// The poisoned member: an address family the sending socket rejects,
	// so every write to it fails deterministically.
	bad := &net.UDPAddr{IP: net.IPv6loopback, Port: 40000}
	if err := hub.Join(g, bad); err != nil {
		t.Fatal(err)
	}
	last, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if err := hub.Join(g, last.Addr()); err != nil {
		t.Fatal(err)
	}

	n, err := hub.Send(g, []byte("best effort"))
	if n != 2 {
		t.Errorf("delivered to %d members, want 2 (the healthy ones)", n)
	}
	if err == nil {
		t.Error("a failing member produced no aggregated error")
	}
	for i, r := range []*Receiver{first, last} {
		buf := make([]byte, 32)
		r.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		rn, _, err := r.Conn.ReadFromUDPAddrPort(buf)
		if err != nil || string(buf[:rn]) != "best effort" {
			t.Errorf("healthy receiver %d starved: %q, %v", i, buf[:rn], err)
		}
	}
	if hub.Stats().SendFailures != 1 {
		t.Errorf("SendFailures = %d, want 1", hub.Stats().SendFailures)
	}
	if hub.Stats().DatagramsSent != 2 {
		t.Errorf("DatagramsSent = %d, want 2", hub.Stats().DatagramsSent)
	}

	// A member that closed its socket mid-group is simply unreachable UDP:
	// the datagram vanishes without an error and everyone else is served.
	first.Close()
	n, _ = hub.Send(g, []byte("after close"))
	if n == 0 {
		t.Error("whole group starved after one receiver closed")
	}
	buf := make([]byte, 32)
	last.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	rn, _, err := last.Conn.ReadFromUDPAddrPort(buf)
	if err != nil || string(buf[:rn]) != "after close" {
		t.Errorf("surviving receiver starved after peer close: %q, %v", buf[:rn], err)
	}
}

// TestEvictDeadMember: a member that fails EvictAfterFailures consecutive
// sends is removed from its group, so later broadcasts stop paying a doomed
// syscall for it, while healthy members keep receiving throughout.
func TestEvictDeadMember(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g := Group{Video: 1, Channel: 1}
	healthy, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if err := hub.Join(g, healthy.Addr()); err != nil {
		t.Fatal(err)
	}
	// Persistently dead member: an address family the hub's IPv4 socket
	// rejects, so every write fails deterministically.
	dead := &net.UDPAddr{IP: net.IPv6loopback, Port: 40001}
	if err := hub.Join(g, dead); err != nil {
		t.Fatal(err)
	}
	if hub.Members(g) != 2 {
		t.Fatalf("members = %d, want 2", hub.Members(g))
	}

	frame := []byte("evict me")
	for i := 0; i < EvictAfterFailures; i++ {
		if hub.Members(g) != 2 {
			t.Fatalf("member evicted after only %d failures", i)
		}
		n, err := hub.Send(g, frame)
		if n != 1 {
			t.Fatalf("send %d delivered to %d members, want 1", i, n)
		}
		if err == nil {
			t.Fatalf("send %d: dead member produced no error", i)
		}
	}
	if hub.Members(g) != 1 {
		t.Fatalf("members after %d failures = %d, want 1 (dead member evicted)",
			EvictAfterFailures, hub.Members(g))
	}
	if hub.Stats().MembersEvicted != 1 {
		t.Errorf("MembersEvicted = %d, want 1", hub.Stats().MembersEvicted)
	}
	// Post-eviction sends are clean: no failures, healthy member served.
	failedBefore := hub.Stats().SendFailures
	if n, err := hub.Send(g, frame); err != nil || n != 1 {
		t.Errorf("post-eviction send: n=%d err=%v", n, err)
	}
	if hub.Stats().SendFailures != failedBefore {
		t.Error("evicted member still charged a send failure")
	}
	buf := make([]byte, 32)
	healthy.Conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < EvictAfterFailures+1; i++ {
		if _, _, err := healthy.Conn.ReadFromUDPAddrPort(buf); err != nil {
			t.Fatalf("healthy member starved at datagram %d: %v", i, err)
		}
	}
}

// TestFailureCounterResetsOnSuccess: the eviction count is of consecutive
// failures — one success wipes the slate, so a flaky member that delivers
// intermittently is never evicted. A real socket cannot be made to fail and
// then succeed on demand, so this drives the in-package counters directly.
func TestFailureCounterResetsOnSuccess(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g := Group{Video: 2, Channel: 1}
	rcv, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	if err := hub.Join(g, rcv.Addr()); err != nil {
		t.Fatal(err)
	}
	ap := addrPort(rcv.Addr())

	for i := 0; i < EvictAfterFailures-1; i++ {
		hub.noteFailure(g, ap)
	}
	if hub.Members(g) != 1 {
		t.Fatal("member evicted one failure early")
	}
	if hub.nfailing.Load() != 1 {
		t.Errorf("nfailing = %d, want 1", hub.nfailing.Load())
	}
	hub.noteSuccess(g, ap)
	if hub.nfailing.Load() != 0 {
		t.Errorf("nfailing after success = %d, want 0", hub.nfailing.Load())
	}
	// The slate is clean: another EvictAfterFailures-1 failures still do
	// not evict...
	for i := 0; i < EvictAfterFailures-1; i++ {
		hub.noteFailure(g, ap)
	}
	if hub.Members(g) != 1 {
		t.Fatal("failure counter survived an intervening success")
	}
	// ...but one more does.
	hub.noteFailure(g, ap)
	if hub.Members(g) != 0 {
		t.Fatal("member not evicted at the threshold")
	}
	if hub.Stats().MembersEvicted != 1 {
		t.Errorf("MembersEvicted = %d, want 1", hub.Stats().MembersEvicted)
	}
	if hub.nfailing.Load() != 0 {
		t.Errorf("nfailing after eviction = %d, want 0", hub.nfailing.Load())
	}
	// Leave of an already-evicted member is a no-op, and a failure record
	// for a departed member is dropped with it.
	hub.Leave(g, rcv.Addr())
}

// TestSendCounters pins the egress ledger of Send, which is a SendBatch of
// one entry whichever writer carries it: the portable loop, the sendmmsg
// stager and the stager with super-frames on must report the same
// datagrams, bytes and batches.
func TestSendCounters(t *testing.T) {
	for _, mode := range []string{"generic", "sendmmsg", "gso"} {
		t.Run(mode, func(t *testing.T) {
			g := Group{Video: 0, Channel: 1}
			hub, _ := newTestHub(t, []Group{g}, 1)
			if !setBatchPath(hub, mode) {
				t.Skipf("%s path unavailable on this platform", mode)
			}
			frame := make([]byte, 100)
			for i := 0; i < 5; i++ {
				if _, err := hub.Send(g, frame); err != nil {
					t.Fatal(err)
				}
			}
			st := hub.Stats()
			if st.DatagramsSent != 5 || st.DatagramBytes != 500 || st.SendFailures != 0 {
				t.Errorf("counters: sent=%d bytes=%d failed=%d, want 5/500/0",
					st.DatagramsSent, st.DatagramBytes, st.SendFailures)
			}
			if st.EgressBatches != 5 || st.BatchedBytes != 500 {
				t.Errorf("batch ledger: batches=%d bytes=%d, want 5/500", st.EgressBatches, st.BatchedBytes)
			}
		})
	}
}

// TestSendZeroAlloc is the alloc gate for the fan-out hot path: a Send to
// a populated group must not allocate — no member snapshot copies, no
// sockaddr conversions.
func TestSendZeroAlloc(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g := Group{Video: 0, Channel: 1}
	var rcvs []*Receiver
	for i := 0; i < 4; i++ {
		r, err := NewReceiver()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rcvs = append(rcvs, r)
		if err := hub.Join(g, r.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc count is meaningless")
	}
	frame := make([]byte, 1052)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := hub.Send(g, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Send allocates %v objects per call, want 0", allocs)
	}
}

// TestJoinLeaveDuringSend hammers membership churn against concurrent
// sends; under -race this proves the copy-on-write snapshots publish
// safely with no locking on the send side.
func TestJoinLeaveDuringSend(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	rcv, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	g := Group{Video: 2, Channel: 3}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := hub.Join(g, rcv.Addr()); err != nil {
				return
			}
			hub.Leave(g, rcv.Addr())
		}
	}()
	frame := []byte("churn")
	for i := 0; i < 2000; i++ {
		if _, err := hub.Send(g, frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// BenchmarkHubSend measures the per-datagram fan-out cost to one member —
// the unit of work every channel pacer pays per chunk.
func BenchmarkHubSend(b *testing.B) {
	hub, err := NewHub()
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()
	rcv, err := NewReceiver()
	if err != nil {
		b.Fatal(err)
	}
	defer rcv.Close()
	g := Group{Video: 0, Channel: 1}
	if err := hub.Join(g, rcv.Addr()); err != nil {
		b.Fatal(err)
	}
	// Drain in the background so the receiver's kernel buffer never
	// backpressures the benchmark loop.
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, _, err := rcv.Conn.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	frame := make([]byte, 1052)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hub.Send(g, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestListenersSnapshot pins the read-only membership view the egress gate
// reads: a snapshot answers for the moment it was taken, stays what it was
// while the membership moves on, compares equal to another exactly when
// nothing changed in between, and costs no allocation to take or ask.
func TestListenersSnapshot(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g, other := Group{Video: 1, Channel: 2}, Group{Video: 1, Channel: 3}
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

	var zero Listeners
	if zero.Heard(g) {
		t.Error("the zero Listeners hears a group")
	}
	empty := hub.Listeners()
	if empty.Heard(g) || empty != hub.Listeners() {
		t.Error("an empty hub's snapshot hears a group, or differs from itself")
	}
	if err := hub.Join(g, addr); err != nil {
		t.Fatal(err)
	}
	joined := hub.Listeners()
	if joined == empty || !joined.Heard(g) || joined.Heard(other) || empty.Heard(g) {
		t.Errorf("after Join: changed %v, heard(g) %v, heard(other) %v, old snapshot heard(g) %v; want true true false false",
			joined != empty, joined.Heard(g), joined.Heard(other), empty.Heard(g))
	}
	if err := hub.Join(g, addr); err != nil { // a no-op join publishes nothing
		t.Fatal(err)
	}
	if hub.Listeners() != joined {
		t.Error("a duplicate Join changed the snapshot")
	}
	hub.Leave(g, addr)
	if left := hub.Listeners(); left == joined || left.Heard(g) || !joined.Heard(g) {
		t.Error("after Leave: snapshot unchanged, still hears g, or the old snapshot forgot it")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if hub.Listeners().Heard(g) {
			t.Fatal("heard a group everyone left")
		}
	}); allocs != 0 {
		t.Errorf("Listeners+Heard allocates %v times, want 0", allocs)
	}
}

// allocBytes is the heap bytes one call of f allocates, averaged over n.
func allocBytes(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestMembershipCopiesOneGroup: a Join or Leave that leaves its group
// heard replaces that group's member list only — the snapshot a sender
// compares does not change, and the cost does not grow with the groups
// the hub holds.
func TestMembershipCopiesOneGroup(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	first := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	second := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 10}
	for ch := range 500 {
		if err := hub.Join(Group{Video: 1, Channel: ch}, first); err != nil {
			t.Fatal(err)
		}
	}
	g := Group{Video: 1, Channel: 7}
	before := hub.Listeners()
	per := allocBytes(200, func() {
		if err := hub.Join(g, second); err != nil {
			t.Fatal(err)
		}
		if hub.Members(g) != 2 {
			t.Fatalf("group holds %d members after the second join, want 2", hub.Members(g))
		}
		hub.Leave(g, second)
	})
	if hub.Listeners() != before || hub.Members(g) != 1 {
		t.Errorf("a join and leave inside a heard group replaced the snapshot, or left %d members", hub.Members(g))
	}
	if per > 256 {
		t.Errorf("Join+Leave inside a heard group of a 500-group hub allocates %d B, want <= 256 (one group's list)", per)
	}
}
