package client

import (
	"bufio"
	"fmt"
	"net"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/trace"
	"skyscraper/internal/viewer"
	"skyscraper/internal/wire"
)

// fakeServer speaks just enough of the control protocol to drive Watch,
// with programmable data-plane faults.
type fakeServer struct {
	t  *testing.T
	ln net.Listener
	// layout
	sizes        []int64
	bytesPerUnit int
	chunkBytes   int
	unit         time.Duration
	epoch        time.Time
	// faults
	corruptCRC     atomic.Bool // flip a payload bit, keep stale CRC
	corruptContent atomic.Bool // valid CRC over wrong bytes
	duplicate      atomic.Bool // send every chunk twice
	refuseJoins    atomic.Bool
	refuseRepairs  atomic.Bool
	// garble, when set (before any client connects), edits the Welcome the
	// fake is about to send.
	garble func(*wire.Welcome)
	// busyFirst answers that many repair requests with Busy (and a 5ms
	// retry hint) before serving normally; alwaysBusy answers every
	// repair with a zero-hint Busy (re-listen); byeOnRepair answers the
	// first repair with a server-initiated bye and hangs up.
	busyFirst   atomic.Int32
	alwaysBusy  atomic.Bool
	byeOnRepair atomic.Bool
	// closeAfterJoins, when positive, drops the control connection after
	// that many joins, exercising the client's reconnect path.
	closeAfterJoins atomic.Int32
	// plan, when set (before any client connects), routes every data
	// chunk through a deterministic fault injector.
	plan *faults.Plan

	// conns records every control connection's memberships, in accept
	// order. A hangup drops the connection's memberships, as the real
	// server does.
	mu    sync.Mutex
	conns []*fakeConn
}

// fakeConn is what one control connection joined and still holds.
type fakeConn struct {
	joins []int        // channels joined, in order
	held  map[int]bool // channels held now
	// heldAtHangup is what the connection held when it went; strayLeaves
	// counts Leaves for channels it did not hold.
	heldAtHangup []int
	strayLeaves  int
}

// udpSender adapts a (socket, destination) pair to mcast.Sender so the
// fake's data plane can run through the same faults.Injector the real
// server uses.
type udpSender struct {
	udp *net.UDPConn
	dst *net.UDPAddr
}

func (u udpSender) Send(_ mcast.Group, frame []byte) (int, error) {
	return u.udp.WriteToUDP(frame, u.dst)
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{
		t:            t,
		ln:           ln,
		sizes:        []int64{1, 2}, // groups (1) odd, (2) even
		bytesPerUnit: 64,
		chunkBytes:   32,
		unit:         30 * time.Millisecond,
		epoch:        time.Now(),
	}
	go f.accept()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeServer) addr() string { return f.ln.Addr().String() }

func (f *fakeServer) accept() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		go f.serve(conn)
	}
}

func (f *fakeServer) serve(conn net.Conn) {
	defer conn.Close()
	fc := &fakeConn{held: make(map[int]bool)}
	f.mu.Lock()
	f.conns = append(f.conns, fc)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		for ch := range fc.held {
			fc.heldAtHangup = append(fc.heldAtHangup, ch)
		}
		clear(fc.held)
		f.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return
	}
	defer udp.Close()
	for {
		m, err := wire.ReadControl(r)
		if err != nil {
			return
		}
		switch m.Kind {
		case wire.KindHello:
			w := &wire.Welcome{
				Videos:           1,
				ChannelsPerVideo: len(f.sizes),
				Width:            2,
				UnitNanos:        int64(f.unit),
				EpochUnixNano:    f.epoch.UnixNano(),
				SizeUnits:        append([]int64(nil), f.sizes...),
				BytesPerUnit:     f.bytesPerUnit,
				ChunkBytes:       f.chunkBytes,
			}
			if f.garble != nil {
				f.garble(w)
			}
			_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindWelcome, Welcome: w})
		case wire.KindJoin:
			if f.refuseJoins.Load() {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindError, Error: "no capacity"})
				continue
			}
			f.mu.Lock()
			fc.joins = append(fc.joins, m.Channel)
			fc.held[m.Channel] = true
			f.mu.Unlock()
			dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: m.Port}
			_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindJoined, Video: m.Video, Channel: m.Channel})
			go f.sendFragment(udp, dst, m.Channel)
			if n := f.closeAfterJoins.Load(); n > 0 && f.closeAfterJoins.Add(-1) == 0 {
				return // hang up; the client must reconnect
			}
		case wire.KindRepair:
			rp := m.Repair
			if rp == nil || rp.Channel < 1 || rp.Channel > len(f.sizes) || rp.Length <= 0 || f.refuseRepairs.Load() {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindError, Error: "repair refused"})
				continue
			}
			if f.byeOnRepair.Load() {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindBye})
				return
			}
			if f.alwaysBusy.Load() {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindBusy})
				continue
			}
			if f.busyFirst.Load() > 0 && f.busyFirst.Add(-1) >= 0 {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindBusy,
					RetryAfterNanos: int64(5 * time.Millisecond)})
				continue
			}
			var base int64
			for _, s := range f.sizes[:rp.Channel-1] {
				base += s
			}
			reply := *rp
			reply.Data = make([]byte, rp.Length)
			content.Fill(reply.Data, rp.Video, base*int64(f.bytesPerUnit)+rp.Offset)
			_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindRepairOK, Repair: &reply})
		case wire.KindLeave:
			f.mu.Lock()
			if !fc.held[m.Channel] {
				fc.strayLeaves++
			}
			delete(fc.held, m.Channel)
			f.mu.Unlock()
		case wire.KindBye:
			return
		}
	}
}

// sendFragment blasts the chunks of several upcoming repetitions of the
// channel's fragment; the client filters to the repetition it wants, and
// early arrival is legal (broadcast data may be prefetched, never late).
func (f *fakeServer) sendFragment(udp *net.UDPConn, dst *net.UDPAddr, channel int) {
	size := f.sizes[channel-1]
	var base int64
	for _, s := range f.sizes[:channel-1] {
		base += s
	}
	var snd mcast.Sender = udpSender{udp: udp, dst: dst}
	if f.plan != nil {
		inj, err := faults.New(snd, *f.plan)
		if err != nil {
			f.t.Errorf("fake server fault plan: %v", err)
			return
		}
		snd = inj
		defer inj.Flush()
	}
	baseBytes := base * int64(f.bytesPerUnit)
	total := int(size) * f.bytesPerUnit
	nowUnits := int64(time.Since(f.epoch) / f.unit)
	startSeq := uint32(nowUnits / size)
	for seq := startSeq; seq < startSeq+8; seq++ {
		for off := 0; off < total; off += f.chunkBytes {
			payload := make([]byte, f.chunkBytes)
			content.Fill(payload, 0, baseBytes+int64(off))
			if f.corruptContent.Load() && off == 0 {
				payload[3] ^= 0xFF
			}
			c := wire.Chunk{
				Video:   0,
				Channel: uint16(channel),
				Seq:     seq,
				Offset:  uint32(off),
				Total:   uint32(total),
				Payload: payload,
			}
			frame, err := c.Encode(nil)
			if err != nil {
				f.t.Errorf("fake server encode: %v", err)
				return
			}
			if f.corruptCRC.Load() && off == 0 {
				bad := append([]byte(nil), frame...)
				bad[len(bad)-1] ^= 0x01
				_, _ = udp.WriteToUDP(bad, dst)
			}
			_, _ = snd.Send(mcast.Group{}, frame)
			if f.duplicate.Load() {
				_, _ = snd.Send(mcast.Group{}, frame)
			}
		}
	}
}

func TestWatchAgainstFakeServer(t *testing.T) {
	f := newFakeServer(t)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0})
	if err != nil {
		t.Fatalf("watch: %v (stats %+v)", err, stats)
	}
	if want := int64(3 * f.bytesPerUnit); stats.Bytes != want {
		t.Errorf("bytes = %d, want %d", stats.Bytes, want)
	}
	if stats.Groups != 2 {
		t.Errorf("groups = %d, want 2", stats.Groups)
	}
}

func TestWatchDetectsCorruptCRC(t *testing.T) {
	f := newFakeServer(t)
	f.corruptCRC.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0})
	if err == nil {
		t.Fatal("corrupted frames went unnoticed")
	}
	if stats == nil || stats.ByteErrors == 0 {
		t.Errorf("ByteErrors = %+v, want > 0", stats)
	}
}

func TestWatchDetectsWrongContent(t *testing.T) {
	f := newFakeServer(t)
	f.corruptContent.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0})
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("wrong payload bytes went unnoticed: %v", err)
	}
	if stats.ByteErrors == 0 {
		t.Error("ByteErrors not counted")
	}
}

func TestWatchDiscardsDuplicates(t *testing.T) {
	f := newFakeServer(t)
	f.duplicate.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0})
	if err != nil {
		t.Fatalf("watch with duplicates: %v", err)
	}
	if stats.DuplicateChunks == 0 {
		t.Error("duplicates not detected")
	}
	if want := int64(3 * f.bytesPerUnit); stats.Bytes != want {
		t.Errorf("bytes = %d (duplicates double-counted?), want %d", stats.Bytes, want)
	}
}

func TestWatchJoinRejected(t *testing.T) {
	f := newFakeServer(t)
	f.refuseJoins.Store(true)
	if _, err := Watch(Config{ServerAddr: f.addr(), Video: 0}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("rejected join not surfaced: %v", err)
	}
}

// TestWatchMalformedWelcome: every field a reception is planned from is
// checked at the handshake. The zero cases used to reach a division in the
// loader state machine and crash the process on one control line.
func TestWatchMalformedWelcome(t *testing.T) {
	cases := []struct {
		name   string
		garble func(*wire.Welcome)
	}{
		{"sizes disagree with channels", func(w *wire.Welcome) { w.SizeUnits = w.SizeUnits[:1] }},
		{"no channels", func(w *wire.Welcome) { w.ChannelsPerVideo, w.SizeUnits = 0, nil }},
		{"no videos", func(w *wire.Welcome) { w.Videos = 0 }},
		{"zero fragment size", func(w *wire.Welcome) { w.SizeUnits[1] = 0 }},
		{"negative fragment size", func(w *wire.Welcome) { w.SizeUnits[0] = -1 }},
		{"zero unit", func(w *wire.Welcome) { w.UnitNanos = 0 }},
		{"zero bytes per unit", func(w *wire.Welcome) { w.BytesPerUnit = 0 }},
		{"zero chunk bytes", func(w *wire.Welcome) { w.ChunkBytes = 0 }},
		{"negative chunk bytes", func(w *wire.Welcome) { w.ChunkBytes = -32 }},
		{"chunk over MaxPayload", func(w *wire.Welcome) { w.ChunkBytes = wire.MaxPayload + 1 }},
		{"negative FEC group", func(w *wire.Welcome) { w.FecGroup = -1 }},
		{"FEC group over cap", func(w *wire.Welcome) { w.FecGroup = wire.MaxFecGroup + 1 }},
		{"video bytes overflow", func(w *wire.Welcome) { w.SizeUnits[1], w.BytesPerUnit = 1<<62, 1<<20 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeServer(t)
			f.garble = tc.garble
			if _, err := Watch(Config{ServerAddr: f.addr(), Video: 0}); err == nil || !strings.Contains(err.Error(), "malformed") {
				t.Fatalf("malformed welcome accepted: %v", err)
			}
		})
	}
}

func TestWatchBadVideo(t *testing.T) {
	f := newFakeServer(t)
	if _, err := Watch(Config{ServerAddr: f.addr(), Video: 7}); err == nil {
		t.Fatal("out-of-catalog video accepted")
	}
}

func TestWatchNoServer(t *testing.T) {
	if _, err := Watch(Config{ServerAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

// signature is the deterministic subset of Stats: the fields that depend
// only on the fault plan's decisions, not on wall-clock timing (WaitUnits
// and MaxBufferBytes vary run to run; repair retries may too).
type signature struct {
	bytes, byteErrors, lost, repaired, dups int64
	groups                                  int
}

func sig(s *Stats) signature {
	return signature{
		bytes: s.Bytes, byteErrors: s.ByteErrors, lost: s.LostChunks,
		repaired: s.RepairedChunks, dups: s.DuplicateChunks, groups: s.Groups,
	}
}

// faultyWatch runs one session against a fake with the given plan,
// using timing loose enough that every repair window is comfortable.
func faultyWatch(t *testing.T, plan faults.Plan, cfg Config) (*Stats, error) {
	t.Helper()
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond // widen repair windows vs the 30ms default
	f.plan = &plan
	cfg.ServerAddr = f.addr()
	cfg.SlackFrac = 1.0
	return Watch(cfg)
}

// TestWatchRecoversFromFaultPlans is the client-side chaos table: under
// seeded drop, duplication, reordering, and delay the session must still
// complete with every byte verified, zero losses, zero jitter — and the
// recovery statistics must be identical for identical seeds.
func TestWatchRecoversFromFaultPlans(t *testing.T) {
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"drop-only", faults.Plan{Drop: 0.3}},
		{"duplicate-only", faults.Plan{Duplicate: 0.4}},
		{"reorder-only", faults.Plan{Reorder: 0.4}},
		{"combined", faults.Plan{Drop: 0.2, Duplicate: 0.2, Reorder: 0.2, Delay: 0.2, MaxDelay: 5 * time.Millisecond}},
	}
	var totalRepaired, totalDups int64
	for _, tc := range plans {
		for _, seed := range []uint64{1, 11} {
			t.Run(tc.name, func(t *testing.T) {
				plan := tc.plan
				plan.Seed = seed
				var sigs [2]signature
				for run := 0; run < 2; run++ {
					stats, err := faultyWatch(t, plan, Config{Video: 0})
					if err != nil {
						t.Fatalf("seed %d run %d: %v (stats %+v)", seed, run, err, stats)
					}
					if stats.ByteErrors != 0 || stats.LostChunks != 0 || stats.LateChunks != 0 {
						t.Fatalf("seed %d run %d degraded: %+v", seed, run, stats)
					}
					if want := int64(3 * 64); stats.Bytes != want {
						t.Errorf("seed %d run %d: bytes = %d, want %d", seed, run, stats.Bytes, want)
					}
					sigs[run] = sig(stats)
					totalRepaired += stats.RepairedChunks
					totalDups += stats.DuplicateChunks
				}
				if sigs[0] != sigs[1] {
					t.Errorf("seed %d: runs diverge: %+v vs %+v", seed, sigs[0], sigs[1])
				}
			})
		}
	}
	// Across the whole table the faults must actually have fired: some
	// chunk was repaired and some duplicate discarded.
	if totalRepaired == 0 {
		t.Error("no chunk was ever repaired across all drop plans")
	}
	if totalDups == 0 {
		t.Error("no duplicate was ever discarded across all duplicate plans")
	}
}

// TestWatchDegradesWithoutRepair: with the recovery path disabled, losses
// must degrade the session gracefully — counted, not hung or panicked.
func TestWatchDegradesWithoutRepair(t *testing.T) {
	stats, err := faultyWatch(t, faults.Plan{Seed: 11, Drop: 0.3},
		Config{Video: 0, DisableRepair: true, AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded session failed outright: %v (stats %+v)", err, stats)
	}
	if stats.LostChunks == 0 {
		t.Fatal("a 30% drop plan lost nothing; seed choice broken")
	}
	if stats.RepairRequests != 0 || stats.RepairedChunks != 0 {
		t.Errorf("repairs issued despite DisableRepair: %+v", stats)
	}
	if want := int64(3*64) - stats.LostChunks*32; stats.Bytes != want {
		t.Errorf("bytes = %d, want %d (total minus %d lost chunks)", stats.Bytes, want, stats.LostChunks)
	}
}

// TestWatchStrictModeFailsOnLoss: the default (non-degraded) mode must
// surface unrepaired losses as an error.
func TestWatchStrictModeFailsOnLoss(t *testing.T) {
	stats, err := faultyWatch(t, faults.Plan{Seed: 11, Drop: 0.3},
		Config{Video: 0, DisableRepair: true})
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("losses not surfaced: %v (stats %+v)", err, stats)
	}
}

// TestWatchReconnectsControl: the server hangs up the control connection
// after the first join, dropping its membership; the client must re-dial,
// re-handshake, join again every group it still holds, and complete the
// session — including repairs over the new connection.
func TestWatchReconnectsControl(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.closeAfterJoins.Store(1)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0})
	if err != nil {
		t.Fatalf("session did not survive a control hangup: %v (stats %+v)", err, stats)
	}
	if stats.Reconnects == 0 {
		t.Error("no reconnect counted after server hangup")
	}
	if stats.ByteErrors != 0 || stats.LostChunks != 0 {
		t.Errorf("degraded after reconnect: %+v", stats)
	}
	if want := int64(3 * 64); stats.Bytes != want {
		t.Errorf("bytes = %d, want %d", stats.Bytes, want)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.conns) < 2 {
		t.Fatalf("%d control connections, want a redial", len(f.conns))
	}
	first, second := f.conns[0], f.conns[1]
	if len(first.heldAtHangup) == 0 {
		t.Fatal("the hung-up connection held no membership")
	}
	for _, ch := range first.heldAtHangup {
		if !slices.Contains(second.joins, ch) {
			t.Errorf("channel %d held at the hangup never re-joined on the new connection (joins %v)", ch, second.joins)
		}
	}
	for i, fc := range f.conns {
		if fc.strayLeaves != 0 {
			t.Errorf("connection %d got %d leaves for channels it never joined", i, fc.strayLeaves)
		}
	}
}

// TestWatchRepairRefused: a server that refuses repairs must not wedge the
// client — capped retries, then counted losses in degraded mode.
func TestWatchRepairRefused(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.refuseRepairs.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, AllowDegraded: true})
	if err != nil {
		t.Fatalf("refused repairs wedged the session: %v", err)
	}
	if stats.LostChunks == 0 {
		t.Error("refused repairs produced no losses")
	}
	if stats.RepairRequests == 0 {
		t.Error("no repair was ever attempted")
	}
}

func TestWatchBufferCapacity(t *testing.T) {
	f := newFakeServer(t)
	// The fake blasts several repetitions at once, so a tiny capacity
	// must trip; a generous one must not.
	if _, err := Watch(Config{ServerAddr: f.addr(), Video: 0, MaxBufferBytes: 1}); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Fatalf("1-byte disk accepted a broadcast: %v", err)
	}
	if _, err := Watch(Config{ServerAddr: f.addr(), Video: 0, MaxBufferBytes: 1 << 20}); err != nil {
		t.Fatalf("generous disk failed: %v", err)
	}
}

// TestBackoffJitterDesync: the anti-storm property of Config.Seed. Two
// sessions with different seeds must draw different backoff schedules from
// the same retry sites (so a shared fault or a shared Busy release time
// does not re-synchronize them), while the same seed must reproduce the
// same schedule exactly, and every delay must respect (0, window] with the
// 1ms anti-spin floor.
func TestBackoffJitterDesync(t *testing.T) {
	const window = 80 * time.Millisecond
	// The two retry sites of the one driver: a Config.Seed reaches them
	// unchanged as viewer.Session.Seed.
	jitterKeyReconnect, repairJitterKey := viewer.ReconnectJitterKey, viewer.RepairJitterKey
	schedule := func(seed uint64) []time.Duration {
		var ds []time.Duration
		for stream := uint64(1); stream <= 8; stream++ {
			ds = append(ds,
				viewer.JitterIn(seed, jitterKeyReconnect, stream, window),
				viewer.JitterIn(seed, repairJitterKey(3, 7), stream, window))
		}
		return ds
	}
	a, b, again := schedule(1), schedule(2), schedule(1)
	for i := range a {
		if a[i] != again[i] {
			t.Fatalf("seed 1 not reproducible at slot %d: %v vs %v", i, a[i], again[i])
		}
		if a[i] < time.Millisecond || a[i] > window {
			t.Errorf("slot %d delay %v outside [1ms, %v]", i, a[i], window)
		}
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/4 {
		t.Errorf("seeds 1 and 2 collide on %d/%d backoff slots; schedules not desynchronized", same, len(a))
	}
	// Distinct retry sites under one seed must also not share a stream.
	if viewer.JitterIn(1, jitterKeyReconnect, 1, window) == viewer.JitterIn(1, repairJitterKey(1, 1), 1, window) {
		t.Error("reconnect and repair sites drew identical jitter from one seed")
	}
}

// TestWatchHonorsBusyBackoff: admission pushback with a retry hint is flow
// control, not failure — the client backs off for the hinted interval and
// the retried repair then succeeds, so the session still completes with
// every byte intact.
func TestWatchHonorsBusyBackoff(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.busyFirst.Store(2)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, Seed: 7})
	if err != nil {
		t.Fatalf("busy replies failed the session: %v (stats %+v)", err, stats)
	}
	if stats.BusyReplies == 0 {
		t.Error("no Busy reply counted despite the server sending them")
	}
	if stats.RepairedChunks == 0 {
		t.Error("no chunk repaired after backoff")
	}
	if stats.LostChunks != 0 || stats.ByteErrors != 0 {
		t.Errorf("degraded despite transient busy: %+v", stats)
	}
	if want := int64(3 * 64); stats.Bytes != want {
		t.Errorf("bytes = %d, want %d", stats.Bytes, want)
	}
}

// TestWatchDegradesUnderPersistentBusy: a server that never admits repairs
// (zero-hint Busy: "re-listen to the broadcast") must not wedge the client
// — dropped chunks run out their deadlines and are counted as losses in
// degraded mode, with no repair ever marked successful.
func TestWatchDegradesUnderPersistentBusy(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.alwaysBusy.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, AllowDegraded: true, Seed: 7})
	if err != nil {
		t.Fatalf("persistent busy wedged the session: %v (stats %+v)", err, stats)
	}
	if stats.BusyReplies == 0 {
		t.Error("no Busy reply counted")
	}
	if stats.RepairedChunks != 0 {
		t.Errorf("repairs succeeded against an always-busy server: %+v", stats)
	}
	if stats.LostChunks == 0 {
		t.Error("no losses counted; drop plan or deadline accounting broken")
	}
}

// TestWatchStopsRepairsOnBye: a server-initiated bye (graceful drain)
// latches for the whole session — no loader issues further repairs, and
// the session completes degraded on broadcast data alone.
func TestWatchStopsRepairsOnBye(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.byeOnRepair.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, AllowDegraded: true, Seed: 7})
	if err != nil {
		t.Fatalf("server bye wedged the session: %v (stats %+v)", err, stats)
	}
	if stats.RepairRequests == 0 {
		t.Error("no repair was ever attempted, so the bye path never ran")
	}
	if stats.RepairedChunks != 0 {
		t.Errorf("repairs succeeded after the server said bye: %+v", stats)
	}
	if stats.LostChunks == 0 {
		t.Error("no losses counted after repairs were cut off")
	}
}

// retryDelays runs fn with a journal against a fake server that drops 30%
// of the broadcast and refuses every repair, and returns the backoff each
// failed repair attempt journaled, keyed by "channel/chunk/attempt" (the
// repetition tuned differs from run to run; the retry sites do not).
func retryDelays(t *testing.T, fn func(addr string, tb *trace.Buffer) error) map[string]time.Duration {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.refuseRepairs.Store(true)
	tb := trace.New(512)
	if err := fn(f.addr(), tb); err != nil {
		t.Error(err)
	}
	re := regexp.MustCompile(`^ch (\d+) seq \d+ chunk (\d+) attempt (\d+): .*; retry in (\S+)$`)
	delays := map[string]time.Duration{}
	for _, e := range tb.Events() {
		// A failed attempt that rescheduled nothing (the last one: lost)
		// journals no backoff and does not match.
		if m := re.FindStringSubmatch(e.Detail); m != nil && e.Kind == "repair-fail" {
			d, err := time.ParseDuration(m[4])
			if err != nil {
				t.Errorf("journal line %q: %v", e.Detail, err)
			}
			delays[m[1]+"/"+m[2]+"/"+m[3]] = d
		}
	}
	return delays
}

// TestWatchSeedIsTheViewerSeed: Config.Seed reaches the retry sites as
// given. A Watch seeded s and viewer 0 of an audience whose ViewerSeed is s
// journal the same backoff at every retry site they both visit, and each
// is the viewer.JitterIn(s, …) draw — no second derivation in between.
func TestWatchSeedIsTheViewerSeed(t *testing.T) {
	const muxSeed = 42
	s := viewer.ViewerSeed(muxSeed, 0)
	var watch, audience map[string]time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		watch = retryDelays(t, func(addr string, tb *trace.Buffer) error {
			_, err := Watch(Config{ServerAddr: addr, SlackFrac: 1.0, AllowDegraded: true, Seed: s, Trace: tb})
			return err
		})
	}()
	go func() {
		defer wg.Done()
		audience = retryDelays(t, func(addr string, tb *trace.Buffer) error {
			m, err := viewer.NewMux(viewer.MuxConfig{ServerAddr: addr, Viewers: 1, Seed: muxSeed, SlackFrac: 1.0})
			if err != nil {
				return err
			}
			m.Journal(tb)
			_, err = m.Run()
			return err
		})
	}()
	wg.Wait()
	shared := 0
	for site, d := range watch {
		var ch, idx, attempt int
		if _, err := fmt.Sscanf(site, "%d/%d/%d", &ch, &idx, &attempt); err != nil {
			t.Fatal(err)
		}
		if want := viewer.JitterIn(s, viewer.RepairJitterKey(ch, idx), uint64(attempt), 4*time.Millisecond<<attempt); d != want {
			t.Errorf("site %s: Watch backed off %v, want JitterIn(seed, ...) = %v", site, d, want)
		}
		if other, ok := audience[site]; ok {
			shared++
			if other != d {
				t.Errorf("site %s: Watch backed off %v, the audience's viewer %v", site, d, other)
			}
		}
	}
	if shared == 0 {
		t.Errorf("no retry site in common: watch %v, audience %v", watch, audience)
	}
}
