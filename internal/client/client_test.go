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
	// A NACK is answered in one of three ways. By default every chunk is
	// accepted and re-sent to the joined port, past the fault plan.
	// refuseNacks rejects every NACK with an error; refuseChunks leaves
	// that many NACKed chunks unmarked (budget pushback) before accepting,
	// and refuseAll every one; byeOnNack answers the first NACK with a
	// server-initiated bye and hangs up.
	refuseNacks  atomic.Bool
	refuseChunks atomic.Int32
	refuseAll    atomic.Bool
	byeOnNack    atomic.Bool
	// nacks and repairs count the NACKs and the unicast repair requests
	// received.
	nacks, repairs atomic.Int32
	// garble, when set (before any client connects), edits the Welcome the
	// fake is about to send.
	garble func(*wire.Welcome)
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
	port  int          // where the joins asked the groups sent
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
			fc.port = m.Port
			f.mu.Unlock()
			dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: m.Port}
			_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindJoined, Video: m.Video, Channel: m.Channel})
			go f.sendFragment(udp, dst, m.Channel)
			if n := f.closeAfterJoins.Load(); n > 0 && f.closeAfterJoins.Add(-1) == 0 {
				return // hang up; the client must reconnect
			}
		case wire.KindRepair:
			f.repairs.Add(1)
			_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindError, Error: "no unicast repair here"})
		case wire.KindNack:
			f.nacks.Add(1)
			nk := m.Nack
			if f.byeOnNack.Load() {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindBye})
				return
			}
			if nk.Channel < 1 || nk.Channel > len(f.sizes) || f.refuseNacks.Load() {
				_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindError, Error: "nack refused"})
				continue
			}
			acc := &wire.Nack{Video: nk.Video, Channel: nk.Channel, Seq: nk.Seq,
				BaseChunk: nk.BaseChunk, Bitmap: make([]byte, len(nk.Bitmap))}
			f.mu.Lock()
			dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: fc.port}
			f.mu.Unlock()
			for _, chunk := range nk.Chunks() {
				if f.refuseAll.Load() || f.refuseChunks.Load() > 0 && f.refuseChunks.Add(-1) >= 0 {
					continue
				}
				// As the real server does: one more copy on the broadcast
				// group (here the joined port), past the fault plan.
				acc.Set(chunk)
				_, _ = udp.WriteToUDP(f.chunkFrame(nk.Channel, nk.Seq, chunk), dst)
			}
			_ = wire.WriteControl(conn, &wire.Control{Kind: wire.KindNackOK, Nack: acc})
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

// chunkFrame encodes chunk idx of repetition seq of the channel's fragment.
func (f *fakeServer) chunkFrame(channel int, seq uint32, idx int) []byte {
	var base int64
	for _, s := range f.sizes[:channel-1] {
		base += s
	}
	total := int(f.sizes[channel-1]) * f.bytesPerUnit
	payload := make([]byte, f.chunkBytes)
	content.Fill(payload, 0, base*int64(f.bytesPerUnit)+int64(idx*f.chunkBytes))
	if f.corruptContent.Load() && idx == 0 {
		payload[3] ^= 0xFF
	}
	c := wire.Chunk{Video: 0, Channel: uint16(channel), Seq: seq, Offset: uint32(idx * f.chunkBytes), Total: uint32(total), Payload: payload}
	frame, err := c.Encode(nil)
	if err != nil {
		f.t.Errorf("fake server encode: %v", err)
	}
	return frame
}

// sendFragment blasts the chunks of several upcoming repetitions of the
// channel's fragment; the client filters to the repetition it wants, and
// early arrival is legal (broadcast data may be prefetched, never late).
func (f *fakeServer) sendFragment(udp *net.UDPConn, dst *net.UDPAddr, channel int) {
	size := f.sizes[channel-1]
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
	nchunks := int(size) * f.bytesPerUnit / f.chunkBytes
	nowUnits := int64(time.Since(f.epoch) / f.unit)
	startSeq := uint32(nowUnits / size)
	for seq := startSeq; seq < startSeq+8; seq++ {
		for idx := 0; idx < nchunks; idx++ {
			frame := f.chunkFrame(channel, seq, idx)
			if frame == nil {
				return
			}
			if f.corruptCRC.Load() && idx == 0 {
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
// and MaxBufferBytes vary run to run).
type signature struct {
	bytes, byteErrors, lost, healed, dups, nacks int64
	groups                                       int
}

func sig(s *Stats) signature {
	return signature{
		bytes: s.Bytes, byteErrors: s.ByteErrors, lost: s.LostChunks,
		healed: s.MulticastRepairs, dups: s.DuplicateChunks, nacks: s.NacksSent, groups: s.Groups,
	}
}

// faultyWatch runs one session against a fake with the given plan,
// using timing loose enough that every NACK round trip is comfortable.
func faultyWatch(t *testing.T, plan faults.Plan, cfg Config) (*Stats, error) {
	t.Helper()
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond // widen the chunk spacing vs the 30ms default
	f.plan = &plan
	cfg.ServerAddr = f.addr()
	cfg.SlackFrac = 1.0
	return Watch(cfg)
}

// TestWatchRecoversFromFaultPlans is the client-side chaos table: under
// seeded drop, duplication, reordering, and delay the session must still
// complete with every byte verified, zero losses, zero jitter — healing
// every drop off the re-send its NACK brought — and the recovery
// statistics must be identical for identical seeds.
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
	var totalHealed, totalDups int64
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
					totalHealed += stats.MulticastRepairs
					totalDups += stats.DuplicateChunks
				}
				if sigs[0] != sigs[1] {
					t.Errorf("seed %d: runs diverge: %+v vs %+v", seed, sigs[0], sigs[1])
				}
			})
		}
	}
	// Across the whole table the faults must actually have fired: some
	// chunk was healed by a re-send and some duplicate discarded.
	if totalHealed == 0 {
		t.Error("no chunk was ever healed by a re-send across all drop plans")
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
	if stats.NacksSent != 0 || stats.MulticastRepairs != 0 {
		t.Errorf("NACKs issued despite DisableRepair: %+v", stats)
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
// session — including NACKs over the new connection.
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

// TestWatchRepairRefused: a server that rejects every NACK must not wedge
// the client — capped rounds, then counted losses in degraded mode.
func TestWatchRepairRefused(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.refuseNacks.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, AllowDegraded: true})
	if err != nil {
		t.Fatalf("refused NACKs wedged the session: %v", err)
	}
	if stats.LostChunks == 0 {
		t.Error("refused NACKs produced no losses")
	}
	if stats.NacksSent == 0 || f.nacks.Load() == 0 {
		t.Errorf("no NACK was ever sent (client %d, server %d)", stats.NacksSent, f.nacks.Load())
	}
}

// TestWatchJustInTimeNackHeals: on this geometry no chunk's loss deadline
// leaves room for an aggregation window (one unit of slack, chunks a half
// unit apart), so every dropped chunk NACKs at its gap checkpoint, drawing
// no jitter, and heals off the re-send — with not one unicast request.
func TestWatchJustInTimeNackHeals(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	tb := trace.New(512)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, Trace: tb})
	if err != nil {
		t.Fatalf("watch: %v (stats %+v)", err, stats)
	}
	if stats.NacksSent == 0 || stats.MulticastRepairs == 0 {
		t.Errorf("%d NACKs healed %d chunks, want both above 0", stats.NacksSent, stats.MulticastRepairs)
	}
	if n := f.repairs.Load(); n != 0 {
		t.Errorf("%d unicast repair requests, want none", n)
	}
	for _, e := range tb.Events() {
		if e.Kind == "nack-window" {
			t.Errorf("a just-in-time chunk waited in a jittered window: %s", e.Detail)
		}
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
// sessions with different seeds must draw different jitter from the same
// retry sites (so a shared fault does not re-synchronize their NACKs),
// while the same seed must reproduce the same schedule exactly, and every
// delay must respect (0, window] with the 1ms anti-spin floor.
func TestBackoffJitterDesync(t *testing.T) {
	const window = 80 * time.Millisecond
	// The two retry sites of the one driver: a Config.Seed reaches them
	// unchanged as viewer.Session.Seed.
	jitterKeyReconnect, nackJitterKey := viewer.ReconnectJitterKey, viewer.NackJitterKey
	schedule := func(seed uint64) []time.Duration {
		var ds []time.Duration
		for stream := uint64(1); stream <= 8; stream++ {
			ds = append(ds,
				viewer.JitterIn(seed, jitterKeyReconnect, stream, window),
				viewer.JitterIn(seed, nackJitterKey(3), stream, window))
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
	if viewer.JitterIn(1, jitterKeyReconnect, 1, window) == viewer.JitterIn(1, nackJitterKey(1), 1, window) {
		t.Error("reconnect and NACK sites drew identical jitter from one seed")
	}
}

// TestWatchHonorsBusyBackoff: budget pushback is flow control, not
// failure — the first NACKed chunks come back refused, the client waits
// out a re-listen and asks again in a later round, which heals them, so
// the session still completes with every byte intact.
func TestWatchHonorsBusyBackoff(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.refuseChunks.Store(2)
	tb := trace.New(512)
	// Four units of slack leave every chunk room for several rounds.
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 4.0, Seed: 7, Trace: tb})
	if err != nil {
		t.Fatalf("refused chunks failed the session: %v (stats %+v)", err, stats)
	}
	if n := f.refuseChunks.Load(); n > 0 {
		t.Errorf("%d of 2 refusals unspent: the pushback never ran", n)
	}
	refused := 0
	for _, e := range tb.Events() {
		if e.Kind == "nack-refused" {
			refused++
		}
	}
	if refused == 0 {
		t.Error("no refused chunk journaled despite the server refusing them")
	}
	if stats.MulticastRepairs == 0 {
		t.Error("no chunk healed after the pushback")
	}
	if stats.LostChunks != 0 || stats.ByteErrors != 0 {
		t.Errorf("degraded despite transient pushback: %+v", stats)
	}
	if want := int64(3 * 64); stats.Bytes != want {
		t.Errorf("bytes = %d, want %d", stats.Bytes, want)
	}
}

// TestWatchDegradesUnderPersistentBusy: a server that never admits a
// re-send (every NackOK marks nothing: the budget pushback that replaced
// Busy on this plane) must not wedge the client — dropped chunks run out
// their rounds and deadlines and are counted as losses in degraded mode,
// with nothing healed.
func TestWatchDegradesUnderPersistentBusy(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.refuseAll.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, AllowDegraded: true, Seed: 7})
	if err != nil {
		t.Fatalf("persistent pushback wedged the session: %v (stats %+v)", err, stats)
	}
	if stats.NacksSent == 0 {
		t.Error("no NACK sent")
	}
	if stats.MulticastRepairs != 0 {
		t.Errorf("chunks healed against a server that re-sends nothing: %+v", stats)
	}
	if stats.LostChunks == 0 {
		t.Error("no losses counted; drop plan or deadline accounting broken")
	}
}

// TestWatchStopsRepairsOnBye: a server-initiated bye (graceful drain)
// latches for the whole session — no loader sends a NACK after it, and
// the session completes degraded on broadcast data alone.
func TestWatchStopsRepairsOnBye(t *testing.T) {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	f.byeOnNack.Store(true)
	stats, err := Watch(Config{ServerAddr: f.addr(), Video: 0, SlackFrac: 1.0, AllowDegraded: true, Seed: 7})
	if err != nil {
		t.Fatalf("server bye wedged the session: %v (stats %+v)", err, stats)
	}
	// The two loaders may each have a NACK queued when the bye lands;
	// none follows.
	if n := f.nacks.Load(); n == 0 || n > 2 {
		t.Errorf("server got %d NACKs, want the one answered with bye (two at most, one per loader)", n)
	}
	if stats.MulticastRepairs != 0 {
		t.Errorf("chunks healed after the server said bye: %+v", stats)
	}
	if stats.LostChunks == 0 {
		t.Error("no losses counted after NACKs were cut off")
	}
}

// windowDraws runs fn with a journal against a fake server that drops 30%
// of the broadcast, and returns the jitter each NACK aggregation window
// journaled, keyed by "channel/window" (the repetition tuned differs from
// run to run; the windows of a channel are numbered alike), with the
// window it was drawn from.
func windowDraws(t *testing.T, fn func(addr string, tb *trace.Buffer) error) map[string][2]time.Duration {
	f := newFakeServer(t)
	f.unit = 80 * time.Millisecond
	f.plan = &faults.Plan{Seed: 11, Drop: 0.3}
	tb := trace.New(512)
	if err := fn(f.addr(), tb); err != nil {
		t.Error(err)
	}
	re := regexp.MustCompile(`^ch (\d+) seq \d+ window (\d+): (\S+) of (\S+)$`)
	draws := map[string][2]time.Duration{}
	for _, e := range tb.Events() {
		if m := re.FindStringSubmatch(e.Detail); m != nil && e.Kind == "nack-window" {
			d, err := time.ParseDuration(m[3])
			w, err2 := time.ParseDuration(m[4])
			if err != nil || err2 != nil {
				t.Errorf("journal line %q: %v %v", e.Detail, err, err2)
			}
			draws[m[1]+"/"+m[2]] = [2]time.Duration{d, w}
		}
	}
	return draws
}

// TestWatchSeedIsTheViewerSeed: Config.Seed reaches the NACK windows as
// given. A Watch seeded s and viewer 0 of an audience whose ViewerSeed is
// s journal the same jitter at every window they both arm, and each is
// the viewer.JitterIn(s, …) draw — no second derivation in between. Four
// units of slack give the chunks room for aggregation windows.
func TestWatchSeedIsTheViewerSeed(t *testing.T) {
	const muxSeed = 42
	s := viewer.ViewerSeed(muxSeed, 0)
	var watch, audience map[string][2]time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		watch = windowDraws(t, func(addr string, tb *trace.Buffer) error {
			_, err := Watch(Config{ServerAddr: addr, SlackFrac: 4.0, AllowDegraded: true, Seed: s, Trace: tb})
			return err
		})
	}()
	go func() {
		defer wg.Done()
		audience = windowDraws(t, func(addr string, tb *trace.Buffer) error {
			m, err := viewer.NewMux(viewer.MuxConfig{ServerAddr: addr, Viewers: 1, Seed: muxSeed, SlackFrac: 4.0})
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
	for site, dw := range watch {
		var ch, window int
		if _, err := fmt.Sscanf(site, "%d/%d", &ch, &window); err != nil {
			t.Fatal(err)
		}
		if want := viewer.JitterIn(s, viewer.NackJitterKey(ch), uint64(window), dw[1]); dw[0] != want {
			t.Errorf("site %s: Watch drew %v, want JitterIn(seed, ...) = %v", site, dw[0], want)
		}
		if other, ok := audience[site]; ok {
			shared++
			if other != dw {
				t.Errorf("site %s: Watch drew %v, the audience's viewer %v", site, dw, other)
			}
		}
	}
	if shared == 0 {
		t.Errorf("no window in common: watch %v, audience %v", watch, audience)
	}
}
