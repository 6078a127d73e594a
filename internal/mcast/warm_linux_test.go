//go:build linux && (amd64 || arm64)

package mcast

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestWarmDeliversNothing: a thousand warms, half from each of two
// goroutines, reach no member — not a shared receiver joined to every
// group, not a plain receiver on one — and move no egress counter but
// EgressWarms, and leave the hub's sink drained; the first datagram
// either receiver gets is the one real send that follows. A warm allocates nothing, and after Close it does
// nothing.
func TestWarmDeliversNothing(t *testing.T) {
	const warms = 1000
	groups := []Group{{Video: 0, Channel: 1}, {Video: 0, Channel: 2}, {Video: 1, Channel: 1}}
	var (
		heard atomic.Int64
		first = make(chan []byte, 1)
	)
	shared, err := NewSharedReceiverConfigured(SharedReceiverConfig{Handle: func(frames [][]byte) time.Time {
		for _, f := range frames {
			if heard.Add(1) == 1 {
				first <- slices.Clone(f)
			}
		}
		return time.Time{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	plain, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, g := range groups {
		if err := hub.Join(g, shared.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Join(groups[0], plain.Addr()); err != nil {
		t.Fatal(err)
	}

	before := hub.Stats()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warms/2; i++ {
				hub.Warm()
			}
		}()
	}
	wg.Wait()
	after := hub.Stats()
	if after.EgressWarms-before.EgressWarms != warms {
		t.Errorf("EgressWarms moved by %d over %d warms", after.EgressWarms-before.EgressWarms, warms)
	}
	after.EgressWarms = before.EgressWarms
	if after != before {
		t.Errorf("warms moved the egress ledger:\n  before %+v\n  after  %+v", before, after)
	}
	var one [1]byte
	if _, err := syscall.Read(hub.sink, one[:]); err != syscall.EAGAIN {
		t.Errorf("reading the sink after %d warms: %v, want EAGAIN (drained)", warms, err)
	}

	sentinel := testFrame(groups[0], 64)
	sentinel[10] = 0x5A
	if _, err := hub.Send(groups[0], sentinel); err != nil {
		t.Fatal(err)
	}
	plain.Conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	n, err := plain.Conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(buf[:n], sentinel) {
		t.Errorf("the plain receiver's first datagram is %d bytes, not the %d-byte send", n, len(sentinel))
	}
	select {
	case f := <-first:
		if !slices.Equal(f, sentinel) {
			t.Errorf("the shared receiver's first datagram is %d bytes, not the %d-byte send", len(f), len(sentinel))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the shared receiver heard nothing within 5s")
	}
	if got := heard.Load(); got != 1 {
		t.Errorf("the shared receiver heard %d datagrams, want the one send", got)
	}

	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, hub.Warm); allocs != 0 {
			t.Errorf("Warm allocates %v objects per call, want 0", allocs)
		}
	}
	hub.Close()
	closed := hub.Stats().EgressWarms
	hub.Warm()
	if got := hub.Stats().EgressWarms; got != closed {
		t.Errorf("a warm after Close counted (%d → %d)", closed, got)
	}
}

// TestWarmCloseLeaksNothing: 200 hubs, each warmed once and closed, leave
// the process's descriptor count where it was — the warm sink goes with
// its hub.
func TestWarmCloseLeaksNothing(t *testing.T) {
	cycle := func() {
		hub, err := NewHub()
		if err != nil {
			t.Fatal(err)
		}
		hub.Warm()
		if got := hub.Stats().EgressWarms; got != 1 {
			t.Fatalf("a new hub's warm counted %d, want 1: no sink", got)
		}
		if err := hub.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	fds := openFDs(t)
	for i := 0; i < 200; i++ {
		cycle()
	}
	if n := openFDs(t); n > fds {
		t.Errorf("%d descriptors open after 200 hubs were closed, baseline %d", n, fds)
	}
}

// BenchmarkEgressWarm is the layer view of the warm: how long the first
// datagram after a quiet gap takes from just before its send to the
// receiver's kernel receive stamp (SO_TIMESTAMPNS), sent cold or right
// after a Warm. The gap is a nanosleep, which idles the thread for exactly
// that long, as a shard parked between ticks is idle; stamp-p50-us and
// stamp-p90-us are quantiles over the iterations. The delay rows spin
// between the Warm and the send, as a shard holds between the end of its
// stage and its instant: how long a warm stays warm.
func BenchmarkEgressWarm(b *testing.B) {
	const tick = 17500 * time.Microsecond
	for _, gap := range []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, tick} {
		for _, path := range []string{"cold", "warmed"} {
			b.Run(fmt.Sprintf("gap=%v/path=%s", gap, path), func(b *testing.B) {
				benchEgressWarm(b, gap, path == "warmed", 0)
			})
		}
	}
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		b.Run(fmt.Sprintf("gap=%v/path=warmed/delay=%v", tick, delay), func(b *testing.B) {
			benchEgressWarm(b, tick, true, delay)
		})
	}
}

func benchEgressWarm(b *testing.B, gap time.Duration, warm bool, delay time.Duration) {
	hub, err := NewHub()
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	rc, err := conn.SyscallConn()
	if err != nil {
		b.Fatal(err)
	}
	if cerr := rc.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); cerr != nil || err != nil {
		b.Fatalf("SO_TIMESTAMPNS: %v %v", cerr, err)
	}
	g := Group{Video: 0, Channel: 1}
	if err := hub.Join(g, conn.LocalAddr().(*net.UDPAddr)); err != nil {
		b.Fatal(err)
	}
	frame := testFrame(g, 1052)
	buf, oob := make([]byte, 2048), make([]byte, 128)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nap(gap)
		if warm {
			hub.Warm()
		}
		for until := time.Now().Add(delay); time.Now().Before(until); {
		}
		sent := time.Now()
		if _, err := hub.Send(g, frame); err != nil {
			b.Fatal(err)
		}
		_, oobn, _, _, err := conn.ReadMsgUDP(buf, oob)
		if err != nil {
			b.Fatal(err)
		}
		stamp, ok := rxStamp(oob[:oobn])
		if !ok {
			b.Fatal("no SCM_TIMESTAMPNS on the datagram")
		}
		lat = append(lat, stamp.Sub(sent))
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "stamp-p50-us")
	b.ReportMetric(float64(lat[len(lat)*9/10])/1e3, "stamp-p90-us")
}

// nap idles the calling thread for d in nanosleep, resuming the sleep
// when a signal cuts it short.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// rxStamp reads the kernel's receive stamp out of a datagram's control
// messages.
func rxStamp(oob []byte) (time.Time, bool) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return time.Time{}, false
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS && len(m.Data) >= int(unsafe.Sizeof(syscall.Timespec{})) {
			ts := (*syscall.Timespec)(unsafe.Pointer(&m.Data[0]))
			return time.Unix(ts.Sec, ts.Nsec), true
		}
	}
	return time.Time{}, false
}
