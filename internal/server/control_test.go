package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
	"skyscraper/internal/wire"
)

// fakeHub is a recording stand-in for the hub behind the server's seam.
// Membership is a set of (group, address), as the hub keeps it. It opens
// no socket.
type fakeHub struct {
	members map[member]bool
}

func (h *fakeHub) SendBatch(entries []mcast.BatchEntry) (int, error) { return len(entries), nil }

func (*fakeHub) Warm() {}

func (h *fakeHub) Join(g mcast.Group, addr *net.UDPAddr) error {
	h.members[member{g, addr.Port}] = true
	return nil
}

func (h *fakeHub) Leave(g mcast.Group, addr *net.UDPAddr) { delete(h.members, member{g, addr.Port}) }

// noListener stands in for the control listener of a server that was
// never started: the Stats document reads its address.
type noListener struct{}

func (noListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }
func (noListener) Close() error              { return nil }
func (noListener) Addr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// stepEpoch is a step server's broadcast epoch; its virtual clock starts
// there.
var stepEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// stepServer is a server that was never started, driven one control
// message at a time on a virtual clock: its hub seam is a fakeHub, its
// epoch is stepEpoch, and its wheel two shards that never run, whose
// re-send queues takeResent reads. hub, when non-nil, is the hub its
// Stats document reads; nothing joins it and nothing is sent on it.
func stepServer(t testing.TB, cfg Config, hub *mcast.Hub) (*Server, *fakeHub) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeHub{members: make(map[member]bool)}
	srv.send, srv.hub, srv.ln, srv.epoch = fake, hub, noListener{}, stepEpoch
	srv.wheel = srv.newWheel(2)
	return srv, fake
}

// resentFrame is one decoded NACK re-send.
type resentFrame struct {
	g       mcast.Group
	seq     uint32
	offset  uint32
	payload []byte
}

// takeResent empties a step server's re-send queues, shard by shard, and
// decodes each re-send as a stage would build it: its chunk under its
// Seq. A re-send queued on a shard that does not own its channel, or one
// that does not decode as its group's, fails the test.
func takeResent(t testing.TB, srv *Server) []resentFrame {
	t.Helper()
	var got []resentFrame
	var a frameArena
	for _, sh := range srv.wheel {
		sh.resendMu.Lock()
		queue := sh.resends
		sh.resends = nil
		sh.resendMu.Unlock()
		for _, r := range queue {
			if !slices.Contains(sh.entries, r.e) {
				t.Fatalf("re-send of %v queued on shard %d, which does not own it", r.e.group, sh.id)
			}
			c, err := wire.Decode(srv.cache.materialise(&a, r.e.cc, r.chunk, r.seq))
			if err != nil || int(c.Video) != r.e.group.Video || int(c.Channel) != r.e.group.Channel {
				t.Fatalf("re-send of %v chunk %d does not decode as its group's: %v", r.e.group, r.chunk, err)
			}
			got = append(got, resentFrame{r.e.group, c.Seq, c.Offset, bytes.Clone(c.Payload)})
		}
	}
	return got
}

// statsHub opens a hub for a step server's Stats document, closed with
// the test.
func statsHub(t testing.TB) *mcast.Hub {
	t.Helper()
	hub, err := mcast.NewHub()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	return hub
}

// exchange passes m through the control codec and answers it as
// serveControl does: a line that does not decode is refused, any other
// is the session's step at now.
func exchange(t testing.TB, cs *controlSession, now time.Time, m *wire.Control) (*wire.Control, bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteControl(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadControl(bufio.NewReader(&buf))
	if errors.Is(err, wire.ErrBadControl) {
		return cs.fail("bad control message: %v", err), false
	}
	if err != nil {
		t.Fatal(err)
	}
	return cs.step(now, got)
}

// stepConfig is the broadcast the step tests answer for: one video of
// fragments 1, 2 and 2 units, 4096 bytes a unit in 1024-byte chunks.
func stepConfig(t testing.TB, unit time.Duration) Config {
	return Config{Scheme: wheelScheme(t, 1, 3), Unit: unit, BytesPerUnit: 4096, ChunkBytes: 1024}
}

// nackCounts reads the NACKs served, the chunks re-sent and the chunks
// suppressed.
func nackCounts(srv *Server) [3]int64 {
	return [3]int64{srv.nacksServed.Value(), srv.nackResends.Value(), srv.nackSuppressed.Value()}
}

// checkResent compares the re-sends recorded so far with want, chunk
// offsets under one (group, seq) each, and their bytes with the content
// function's.
func checkResent(t *testing.T, srv *Server, got []resentFrame, g mcast.Group, want map[uint32]uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d re-sends, want %d", len(got), len(want))
	}
	for _, r := range got {
		seq, ok := want[r.offset]
		if r.g != g || !ok || r.seq != seq {
			t.Fatalf("re-send %v seq %d at offset %d, want %v at one of %v", r.g, r.seq, r.offset, g, want)
		}
		data := make([]byte, 1024)
		content.Fill(data, g.Video, srv.cache.channel(g.Video, g.Channel).base+int64(r.offset))
		if !bytes.Equal(r.payload, data) {
			t.Fatalf("re-send at offset %d carries other bytes than the broadcast", r.offset)
		}
	}
}

// TestNackMulticastResend drives the cohort repair verb: one gap bitmap is
// answered by a NackOK marking every chunk accepted, the re-sends go to
// the channel's broadcast group under the NACK's repetition, and a second
// NACK for the same chunks inside the re-send window (two units) is
// absorbed without another re-send — the property that keeps repair work
// O(cohorts) instead of O(viewers).
func TestNackMulticastResend(t *testing.T) {
	const unit = time.Second
	srv, _ := stepServer(t, stepConfig(t, unit), nil)
	// Channel 2's fragment is 2 units x 4096 bytes = 8 chunks; repetition
	// 0 is over a quarter unit ago.
	now := stepEpoch.Add(2*unit + unit/4)
	g := mcast.Group{Video: 0, Channel: 2}
	req := &wire.Control{Kind: wire.KindNack, Nack: wire.NackFromChunks(0, 2, 0, []int{1, 3})}

	m, _ := exchange(t, srv.newSession("a"), now, req)
	if m.Kind != wire.KindNackOK || !m.Nack.Has(1) || !m.Nack.Has(3) {
		t.Fatalf("NACK answered %+v, want NackOK accepting chunks 1 and 3", m)
	}
	if got := nackCounts(srv); got != [3]int64{1, 2, 0} {
		t.Errorf("NACKs served, re-sent, suppressed = %v, want 1, 2 (one per accepted chunk), 0", got)
	}
	checkResent(t, srv, takeResent(t, srv), g, map[uint32]uint32{1 * 1024: 0, 3 * 1024: 0})

	// A second cohort NACKing the same chunks inside the window is told
	// "accepted" — its viewers keep re-listening — but triggers no second
	// re-send.
	cs2 := srv.newSession("b")
	m, _ = exchange(t, cs2, now.Add(unit/2), req)
	if m.Kind != wire.KindNackOK || !m.Nack.Has(1) || !m.Nack.Has(3) {
		t.Fatalf("suppressed NACK answered %+v, want NackOK accepting both chunks", m)
	}
	if got := nackCounts(srv); got != [3]int64{2, 2, 2} {
		t.Errorf("after the suppressed NACK: NACKs served, re-sent, suppressed = %v, want 2, 2, 2", got)
	}
	if got := takeResent(t, srv); len(got) != 0 {
		t.Errorf("%d more re-sends after the suppressed NACK, want none", len(got))
	}

	// A bitmap reaching past the fragment is refused, not a crash or a
	// partial re-send; so is a NACK for a repetition no viewer can be
	// receiving — the repetition keys the re-send table, and answering any
	// Seq would let one connection trigger re-sends without limit.
	for _, nk := range []*wire.Nack{wire.NackFromChunks(0, 2, 0, []int{5, 8}), wire.NackFromChunks(0, 2, 1<<20, []int{1, 3})} {
		if m, done := exchange(t, cs2, now.Add(unit/2), &wire.Control{Kind: wire.KindNack, Nack: nk}); m.Kind != wire.KindError || done {
			t.Fatalf("NACK %v seq %d answered %q (done %v), want %q", nk.Chunks(), nk.Seq, m.Kind, done, wire.KindError)
		}
	}
	if got := nackCounts(srv); got != [3]int64{2, 2, 2} {
		t.Errorf("after refused NACKs: NACKs served, re-sent, suppressed = %v, want 2, 2, 2", got)
	}
}

// TestNackResendPerRepetition: two cohorts NACK the same chunk position
// inside one re-send window, but for different repetitions. A receiver
// drops a frame of any repetition but the one it waits on, so one re-send
// cannot serve both: each NACK gets its own, under its own Seq. (Fault
// plans injure the same position in every repetition, and channel 1's
// period is shorter than the window, so this is the common case.)
func TestNackResendPerRepetition(t *testing.T) {
	const unit = time.Second
	srv, _ := stepServer(t, stepConfig(t, unit), nil)
	// Channel 1 repeats every unit in 4 chunks; halfway through repetition
	// 1, repetition 0 is over and still answered.
	now := stepEpoch.Add(unit + unit/2)
	for _, seq := range []uint32{0, 1} {
		req := &wire.Control{Kind: wire.KindNack, Nack: wire.NackFromChunks(0, 1, seq, []int{1})}
		if m, _ := exchange(t, srv.newSession("cohort"), now, req); m.Kind != wire.KindNackOK || !m.Nack.Has(1) {
			t.Fatalf("seq %d: NACK answered %+v, want NackOK accepting chunk 1", seq, m)
		}
	}
	if got := nackCounts(srv); got != [3]int64{2, 2, 0} {
		t.Errorf("NACKs served, re-sent, suppressed = %v, want 2, 2 (one per repetition), 0", got)
	}
	resent := takeResent(t, srv)
	if len(resent) != 2 || resent[0].seq == resent[1].seq {
		t.Fatalf("re-sends %+v, want one under each repetition", resent)
	}
	for _, r := range resent {
		checkResent(t, srv, []resentFrame{r}, mcast.Group{Video: 0, Channel: 1}, map[uint32]uint32{1024: r.seq})
	}
}

// TestNackRefusedOverBudget starves the repair byte budget and proves the
// degraded path: the NackOK's bitmap leaves the chunks unmarked — no
// re-send is coming, so the client asks again in a later round, if any —
// and no re-send is dispatched. A refused chunk opens no re-send window either: a
// second NACK for it is refused in turn, not told a re-send is in flight.
func TestNackRefusedOverBudget(t *testing.T) {
	cfg := stepConfig(t, time.Second)
	// A one-byte budget with a one-byte burst can never cover a chunk.
	cfg.RepairBandwidth, cfg.RepairBurstBytes = 1, 1
	srv, _ := stepServer(t, cfg, nil)
	cs := srv.newSession("a")
	req := &wire.Control{Kind: wire.KindNack, Nack: wire.NackFromChunks(0, 2, 0, []int{2})}
	for i := 0; i < 2; i++ {
		m, _ := exchange(t, cs, stepEpoch.Add(time.Duration(i)*time.Millisecond), req)
		if m.Kind != wire.KindNackOK {
			t.Fatalf("NACK %d answered %q, want %q (refusal is in the bitmap, not an error)", i, m.Kind, wire.KindNackOK)
		}
		if m.Nack.Has(2) {
			t.Fatalf("over-budget NACK %d still accepted the chunk", i)
		}
	}
	if got, resent := nackCounts(srv), takeResent(t, srv); got != [3]int64{2, 0, 0} || len(resent) != 0 {
		t.Errorf("NACKs served, re-sent, suppressed = %v, %d re-sends, want 2, 0, 0 and none (budget refused, no re-send in flight)",
			got, len(resent))
	}
}

// TestControlProtocolErrors: malformed requests are refused with
// KindError, and the session goes on answering.
func TestControlProtocolErrors(t *testing.T) {
	srv, fake := stepServer(t, stepConfig(t, 50*time.Millisecond), nil)
	cs := srv.newSession("a")
	for _, m := range []*wire.Control{
		{Kind: wire.KindJoin, Video: 0, Channel: 99, Port: 12345}, // no such channel
		{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: -1},     // bad port
		{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: 65536},  // bad port
		{Kind: "subscribe"}, // unknown kind
	} {
		if reply, done := exchange(t, cs, stepEpoch, m); reply.Kind != wire.KindError || done {
			t.Errorf("%+v answered %q (done %v), want %q", m, reply.Kind, done, wire.KindError)
		}
	}
	if len(fake.members) != 0 {
		t.Errorf("refused joins left members %v", fake.members)
	}
	m, done := exchange(t, cs, stepEpoch, &wire.Control{Kind: wire.KindHello})
	if m.Kind != wire.KindWelcome || done {
		t.Fatalf("hello after errors answered %+v", m)
	}
	if m.Welcome.ChannelsPerVideo != 3 || math.Abs(float64(m.Welcome.UnitNanos)-50e6) > 1 || m.Welcome.EpochUnixNano != stepEpoch.UnixNano() {
		t.Errorf("welcome payload %+v", m.Welcome)
	}
}

// TestRepairProtocol drives the REPAIR verb: a valid request returns
// exactly the bytes the broadcast would have carried; malformed ones are
// refused without ending the session.
func TestRepairProtocol(t *testing.T) {
	srv, _ := stepServer(t, stepConfig(t, 50*time.Millisecond), statsHub(t))
	cs := srv.newSession("a")

	// Channel 2's fragment covers video bytes [1*4096, 3*4096); ask for
	// the chunk at fragment offset 1024.
	req := &wire.Repair{Video: 0, Channel: 2, Seq: 9, Offset: 1024, Length: 1024}
	m, _ := exchange(t, cs, stepEpoch, &wire.Control{Kind: wire.KindRepair, Repair: req})
	if m.Kind != wire.KindRepairOK || m.Repair == nil {
		t.Fatalf("repair answered %+v", m)
	}
	if m.Repair.Channel != 2 || m.Repair.Seq != 9 || m.Repair.Offset != 1024 || len(m.Repair.Data) != 1024 {
		t.Fatalf("repair echo mismatch: %+v", m.Repair)
	}
	want := make([]byte, 1024)
	content.Fill(want, 0, 1*4096+1024)
	if !bytes.Equal(m.Repair.Data, want) {
		t.Error("repair bytes differ from the broadcast content function")
	}

	for i, b := range []*wire.Control{
		{Kind: wire.KindRepair}, // no payload
		{Kind: wire.KindRepair, Repair: &wire.Repair{Video: 0, Channel: 9, Offset: 0, Length: 1024}},
		{Kind: wire.KindRepair, Repair: &wire.Repair{Video: 0, Channel: 2, Offset: 2 * 4096, Length: 1024}},
		{Kind: wire.KindRepair, Repair: &wire.Repair{Video: 0, Channel: 2, Offset: 0, Length: -5}},
		{Kind: wire.KindRepair, Repair: &wire.Repair{Video: 0, Channel: 1, Offset: math.MaxInt64 &^ 1023, Length: 1024}},
	} {
		if m, done := exchange(t, cs, stepEpoch, b); m.Kind != wire.KindError || done {
			t.Errorf("bad repair %d answered %+v (done %v)", i, m, done)
		}
	}

	// The session still answers, and the stats count the one good repair.
	m, _ = exchange(t, cs, stepEpoch, &wire.Control{Kind: wire.KindStats})
	var st StatusSnapshot
	if m.Kind != wire.KindStatsOK || json.Unmarshal(m.Stats, &st) != nil || st.RepairsServed != 1 {
		t.Errorf("stats after repairs: %+v", m)
	}
}

// TestSessionsShareMembership: two sessions joined on one receiver address
// share its hub membership, which lives until the last of them lets go;
// one session joined on two addresses holds both, and its Leave drops
// both.
func TestSessionsShareMembership(t *testing.T) {
	srv, fake := stepServer(t, stepConfig(t, 50*time.Millisecond), nil)
	a, b := srv.newSession("a"), srv.newSession("b")
	join := func(cs *controlSession, port int) {
		t.Helper()
		if m, _ := exchange(t, cs, stepEpoch, &wire.Control{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: port}); m.Kind != wire.KindJoined {
			t.Fatalf("join on port %d answered %+v", port, m)
		}
	}
	g := mcast.Group{Video: 0, Channel: 1}
	join(a, 40000)
	join(a, 40001)
	join(b, 40000)
	if want := map[member]bool{{g, 40000}: true, {g, 40001}: true}; !maps.Equal(fake.members, want) {
		t.Fatalf("members %v, want %v", fake.members, want)
	}
	a.close()
	if want := map[member]bool{{g, 40000}: true}; !maps.Equal(fake.members, want) {
		t.Fatalf("after the first session closed: members %v, want %v", fake.members, want)
	}
	join(a, 40002)
	join(a, 40003)
	exchange(t, a, stepEpoch, &wire.Control{Kind: wire.KindLeave, Video: 0, Channel: 1})
	b.close()
	if len(fake.members) != 0 {
		t.Fatalf("after leave and close: members %v, want none", fake.members)
	}
}

// The control-sequence fuzzer's broadcast: two videos of fragments 1, 2
// and 2 units (4, 8 and 8 chunks) on a 10 ms unit, and a repair plane of
// 200 kB/s with a 4 KiB burst.
const (
	seqUnit       = 10 * time.Millisecond
	seqRate       = 200_000
	seqBurst      = 4096
	seqSharedPort = 40000 // the receiver address sessions 0 and 1 share
)

// The fuzzer's verbs: one opcode byte names a session (opcode/10 % 3) and
// a verb (opcode % 10).
const (
	opAdvance = iota
	opHello
	opJoin
	opLeave
	opRepair
	opNack
	opStats
	opBye
	opClose
	opUnknown
)

// op encodes one fuzzer opcode and its argument bytes.
func op(session, verb int, args ...byte) []byte {
	return append([]byte{byte(session*10 + verb)}, args...)
}

// seqModel is FuzzControlSequence's model of the control plane, kept apart
// from step: the memberships each session holds, the re-send windows, the
// repair budget and the counters.
type seqModel struct {
	held    [3]map[member]bool
	windows map[resendKey]time.Time // when each window opened, last
	budget  *metrics.TokenBucket
	sizes   []int64

	nacksServed, nackResends, nackSuppressed, repairs int64
	spent                                             int64 // re-sent plus repaired bytes
	peakOpen                                          int
}

// live is the model's repetitionLive: repetition seq of channel has begun
// (give or take a unit) and ended at most eight units ago.
func (md *seqModel) live(seq uint32, channel int, elapsed time.Duration) bool {
	period := time.Duration(md.sizes[channel-1]) * seqUnit
	start := time.Duration(seq) * period
	return start <= elapsed+seqUnit && start+period > elapsed-8*seqUnit
}

// line is m as it goes on the wire, for failure messages.
func line(m *wire.Control) string {
	b, _ := json.Marshal(m)
	return string(b)
}

// seqReader hands out a fuzz program's bytes, then zeros.
type seqReader struct {
	b []byte
	i int
}

func (r *seqReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// FuzzControlSequence drives control sessions through step against a
// model, with no socket, on a virtual clock. Fuzz bytes decode to clock
// advances and control messages for three sessions: two that share one
// receiver address, each with a port of its own too. Fields run over
// hostile values — channel 0 and K+1, port 0 and 65536, Offset+Length
// overflow, bitmaps past the fragment, Seqs far from live. After every
// step: hub membership is the union of the sessions' holdings; each
// request but Leave and Bye has exactly the reply the model expects, and
// KindError never ends a session; re-sent plus repaired bytes stay within
// burst + rate × elapsed; the re-send table stays bounded and holds only
// windows the model opened for live repetitions; and the counters match.
func FuzzControlSequence(f *testing.F) {
	seeds := [][]byte{
		// The index overflows (video 0 channel 1): a repair whose
		// Offset+Length wraps, and one just short of wrapping; a NACK whose
		// last chunk wraps, and one just short of it.
		bytes.Join([][]byte{op(0, opRepair, 1, 1, 255, 0), op(0, opRepair, 1, 1, 254, 0),
			op(0, opNack, 1, 1, 100, 255, 1, 0, 1), op(0, opNack, 1, 1, 100, 254, 1, 1, 1), op(0, opHello)}, nil),
		// The Seq flood: NACKs for repetitions no viewer can be receiving,
		// between live ones.
		bytes.Join([][]byte{op(0, opAdvance, 50), op(0, opNack, 1, 2, 255, 1, 0, 1), op(1, opNack, 1, 2, 254, 1, 0, 3),
			op(2, opNack, 1, 2, 253, 1, 0, 7), op(0, opNack, 1, 2, 16, 1, 0, 1), op(0, opNack, 1, 2, 0, 1, 0, 1),
			op(0, opAdvance, 200), op(1, opNack, 2, 3, 252, 1, 0, 15)}, nil),
		// The two-port join: one session joins a group on two addresses,
		// leaves it, joins both again and hangs up.
		bytes.Join([][]byte{op(0, opJoin, 1, 1, 0), op(0, opJoin, 1, 1, 1), op(0, opLeave, 1, 1),
			op(0, opJoin, 1, 1, 0), op(0, opJoin, 1, 1, 1), op(0, opClose)}, nil),
		// Two sessions on the shared address: the first to go must not
		// take the other's membership.
		bytes.Join([][]byte{op(0, opJoin, 1, 1, 0), op(1, opJoin, 1, 1, 0), op(0, opLeave, 1, 1),
			op(1, opHello), op(0, opJoin, 1, 2, 0), op(1, opBye), op(0, opStats)}, nil),
		// Budget pressure: repairs and NACKs spend one bucket.
		bytes.Join([][]byte{op(0, opRepair, 1, 2, 4, 7), op(1, opRepair, 1, 2, 8, 7), op(2, opNack, 1, 3, 16, 1, 0, 255),
			op(0, opAdvance, 5), op(1, opNack, 1, 3, 16, 1, 0, 255), op(2, opUnknown), op(0, opBye)}, nil),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	hub, sch := statsHub(f), wheelScheme(f, 2, 3)
	f.Fuzz(func(t *testing.T, prog []byte) {
		runControlSequence(t, hub, sch, prog)
	})
}

// runControlSequence plays one fuzz program; see FuzzControlSequence.
func runControlSequence(t *testing.T, hub *mcast.Hub, sch *core.Scheme, prog []byte) {
	cfg := Config{Scheme: sch, Unit: seqUnit, BytesPerUnit: 4096, ChunkBytes: 1024,
		RepairBandwidth: seqRate, RepairBurstBytes: seqBurst}
	srv, fake := stepServer(t, cfg, hub)
	md := &seqModel{windows: make(map[resendKey]time.Time), budget: metrics.NewTokenBucket(seqRate, seqBurst),
		sizes: cfg.Scheme.Sizes()}
	var sessions [3]*controlSession
	for i := range md.held {
		md.held[i] = make(map[member]bool)
	}
	now := stepEpoch
	r := &seqReader{b: prog}

	video := func() int { return int(r.next()%4) - 1 } // -1 and M = 2 are hostile
	channel := func() int { return int(r.next() % 5) } // 0 and K+1 = 4 are hostile
	hasChannel := func(v, ch int) bool { return v >= 0 && v < 2 && ch >= 1 && ch <= 3 }
	port := func(s int) int { return [...]int{seqSharedPort, seqSharedPort + 1 + s, 0, 65536}[r.next()%4] }

	for step := 0; r.i < len(r.b); step++ {
		code := r.next()
		s, verb := int(code/10)%3, int(code%10)
		if verb == opAdvance {
			now = now.Add(time.Duration(r.next()) * time.Millisecond)
			continue
		}
		if sessions[s] == nil {
			sessions[s] = srv.newSession("fuzz")
		}
		cs := sessions[s]
		var m *wire.Control
		want := wire.KindError
		var wantNack map[int]bool // the chunks a NackOK must accept
		var wantResent []resentFrame
		switch verb {
		case opHello:
			m, want = &wire.Control{Kind: wire.KindHello}, wire.KindWelcome
		case opJoin:
			v, ch, p := video(), channel(), port(s)
			m = &wire.Control{Kind: wire.KindJoin, Video: v, Channel: ch, Port: p}
			if hasChannel(v, ch) && p > 0 && p <= 65535 {
				want = wire.KindJoined
				md.held[s][member{mcast.Group{Video: v, Channel: ch}, p}] = true
			}
		case opLeave:
			v, ch := video(), channel()
			m, want = &wire.Control{Kind: wire.KindLeave, Video: v, Channel: ch}, ""
			for mb := range md.held[s] {
				if mb.g == (mcast.Group{Video: v, Channel: ch}) {
					delete(md.held[s], mb)
				}
			}
		case opRepair:
			v, ch, ob, lb := video(), channel(), r.next(), r.next()
			off := int64(ob%40) * 256
			switch ob {
			case 255:
				off = math.MaxInt64 &^ 1023
			case 254:
				off = math.MaxInt64 - 4096
			case 253:
				off = -1024
			}
			length := [...]int{1024, 512, 0, -5, wire.MaxPayload + 1, 2048, 1, 4096}[lb%8]
			m = &wire.Control{Kind: wire.KindRepair, Repair: &wire.Repair{Video: v, Channel: ch, Offset: off, Length: length}}
			if hasChannel(v, ch) {
				total := md.sizes[ch-1] * 4096
				if length > 0 && length <= wire.MaxPayload && off >= 0 && off <= total-int64(length) {
					if ok, _ := md.budget.Take(now, float64(length)); ok {
						want = wire.KindRepairOK
						md.repairs++
						md.spent += int64(length)
					} else {
						want = wire.KindBusy
					}
				}
			}
		case opNack:
			v, ch, sb, bb := video(), channel(), r.next(), r.next()
			elapsed := now.Sub(stepEpoch)
			seq := uint32(int64(elapsed/seqUnit) + int64(sb%24) - 16)
			if hasChannel(v, ch) {
				seq = uint32(int64(elapsed/(time.Duration(md.sizes[ch-1])*seqUnit)) + int64(sb%24) - 16)
			}
			switch sb {
			case 255:
				seq = 1 << 20
			case 254:
				seq = math.MaxUint32
			case 253:
				seq += 1000
			}
			base := int(bb%12) - 1
			switch bb {
			case 255:
				base = math.MaxInt - 7
			case 254:
				base = math.MaxInt - 16
			}
			bitmap := make([]byte, int(r.next()%3)+1)
			for i := range bitmap {
				bitmap[i] = r.next()
			}
			nk := &wire.Nack{Video: v, Channel: ch, Seq: seq, BaseChunk: base, Bitmap: bitmap}
			m = &wire.Control{Kind: wire.KindNack, Nack: nk}
			if !hasChannel(v, ch) || base < 0 || base > math.MaxInt-8*len(bitmap) || bitmap[len(bitmap)-1] == 0 {
				break // refused at decode or at the channel check
			}
			total := int(md.sizes[ch-1]) * 4096
			chunks := nk.Chunks()
			if chunks[0] < 0 || chunks[len(chunks)-1] >= total/1024 || !md.live(seq, ch, elapsed) {
				break
			}
			want, wantNack = wire.KindNackOK, make(map[int]bool)
			md.nacksServed++
			for _, c := range chunks {
				k := resendKey{video: v, channel: ch, seq: seq, chunk: c}
				if at, ok := md.windows[k]; ok && now.Sub(at) <= 2*seqUnit {
					wantNack[c] = true
					md.nackSuppressed++
				} else if ok, _ := md.budget.Take(now, 1024); ok {
					wantNack[c] = true
					md.windows[k] = now
					md.nackResends++
					md.spent += 1024
					wantResent = append(wantResent, resentFrame{mcast.Group{Video: v, Channel: ch}, seq, uint32(c * 1024), nil})
				}
			}
		case opStats:
			m, want = &wire.Control{Kind: wire.KindStats}, wire.KindStatsOK
		case opBye:
			m, want = &wire.Control{Kind: wire.KindBye}, ""
		case opClose:
			cs.close()
			sessions[s], md.held[s] = nil, make(map[member]bool)
		case opUnknown:
			m = &wire.Control{Kind: "subscribe"}
		}

		if m != nil {
			reply, done := exchange(t, cs, now, m)
			switch {
			case want == "" && reply != nil:
				t.Fatalf("step %d: %s answered %s, want no reply", step, line(m), line(reply))
			case want != "" && reply == nil:
				t.Fatalf("step %d: %q got no reply, want %q", step, m.Kind, want)
			case reply != nil && reply.Kind != want:
				t.Fatalf("step %d: %s answered %s, want %q", step, line(m), line(reply), want)
			case done != (m.Kind == wire.KindBye):
				t.Fatalf("step %d: %s answered %s ended the session: %v", step, line(m), line(reply), done)
			}
			if wantNack != nil {
				for _, c := range m.Nack.Chunks() {
					if reply.Nack.Has(c) != wantNack[c] {
						t.Fatalf("step %d: NackOK marks chunk %d %v, want %v", step, c, reply.Nack.Has(c), wantNack[c])
					}
				}
			}
			if reply != nil && reply.Kind == wire.KindRepairOK && len(reply.Repair.Data) != m.Repair.Length {
				t.Fatalf("step %d: repair of %d bytes answered with %d", step, m.Repair.Length, len(reply.Repair.Data))
			}
			got := takeResent(t, srv)
			if len(got) != len(wantResent) {
				t.Fatalf("step %d: %d re-sends, want %d", step, len(got), len(wantResent))
			}
			for i, w := range wantResent {
				if g := got[i]; g.g != w.g || g.seq != w.seq || g.offset != w.offset || len(g.payload) != 1024 {
					t.Fatalf("step %d: re-send %+v, want %+v", step, g, w)
				}
			}
			if done {
				cs.close()
				sessions[s], md.held[s] = nil, make(map[member]bool)
			}
		}

		// Membership: the hub holds exactly the union of the sessions'.
		union := make(map[member]bool)
		for _, h := range md.held {
			maps.Copy(union, h)
		}
		if !maps.Equal(fake.members, union) {
			t.Fatalf("step %d: hub members %v, sessions hold %v", step, fake.members, union)
		}
		// The repair plane spends at most its burst plus its refill.
		if limit := seqBurst + seqRate*now.Sub(stepEpoch).Seconds(); float64(md.spent) > limit+1e-6 {
			t.Fatalf("step %d: %d repair bytes spent, budget allows %.0f", step, md.spent, limit)
		}
		// The re-send table: bounded, and only windows the model opened.
		open := 0
		for _, at := range md.windows {
			if now.Sub(at) <= 2*seqUnit {
				open++
			}
		}
		md.peakOpen = max(md.peakOpen, open)
		srv.resends.mu.Lock()
		size := len(srv.resends.sent)
		for k, at := range srv.resends.sent {
			if mat, ok := md.windows[k]; !ok || !mat.Equal(at) {
				srv.resends.mu.Unlock()
				t.Fatalf("step %d: re-send table holds %+v opened at %v, the model %v (%v)", step, k, at.Sub(stepEpoch), mat.Sub(stepEpoch), ok)
			}
		}
		srv.resends.mu.Unlock()
		if size > max(resendTableCap, 2*md.peakOpen)+1 {
			t.Fatalf("step %d: re-send table holds %d keys, peak open windows %d", step, size, md.peakOpen)
		}
		// The counters.
		if got, want := [4]int64{srv.nacksServed.Value(), srv.nackResends.Value(), srv.nackSuppressed.Value(), srv.repairs.Value()},
			[4]int64{md.nacksServed, md.nackResends, md.nackSuppressed, md.repairs}; got != want {
			t.Fatalf("step %d: nacksServed, nackResends, nackSuppressed, repairs = %v, model %v", step, got, want)
		}
	}
}

// TestControlLinesFitCap: the longest lines the protocol carries — a
// RepairOK of MaxPayload bytes, a NACK and a NackOK of MaxNackBitmapBytes,
// a paper-scale server's Stats document — fit under wire.MaxControlLine,
// so capping a line refuses only what no peer legitimately sends.
func TestControlLinesFitCap(t *testing.T) {
	cfg := Config{Scheme: wheelScheme(t, 10, 40), Unit: seqUnit, BytesPerUnit: 4096, ChunkBytes: 1024}
	srv, _ := stepServer(t, cfg, statsHub(t))
	stats, _ := exchange(t, srv.newSession("a"), stepEpoch, &wire.Control{Kind: wire.KindStats})
	bitmap := bytes.Repeat([]byte{0xff}, wire.MaxNackBitmapBytes)
	nack := &wire.Nack{Video: math.MaxInt, Channel: math.MaxInt, Seq: math.MaxUint32,
		BaseChunk: math.MaxInt - 8*wire.MaxNackBitmapBytes, Bitmap: bitmap}
	for _, m := range []*wire.Control{
		{Kind: wire.KindRepairOK, Repair: &wire.Repair{Video: math.MaxInt, Channel: math.MaxInt, Seq: math.MaxUint32,
			Offset: math.MaxInt64, Length: wire.MaxPayload, Data: bytes.Repeat([]byte{0xff}, wire.MaxPayload)}},
		{Kind: wire.KindNack, Nack: nack},
		{Kind: wire.KindNackOK, Nack: nack},
		stats,
	} {
		var buf bytes.Buffer
		if err := wire.WriteControl(&buf, m); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		if n > wire.MaxControlLine {
			t.Errorf("%s line of %d bytes over the %d-byte cap", m.Kind, n, wire.MaxControlLine)
		}
		if got, err := wire.ReadControl(bufio.NewReader(&buf)); err != nil || got.Kind != m.Kind {
			t.Errorf("%s line does not read back: %v", m.Kind, err)
		}
		t.Logf("%s: %d bytes", m.Kind, n)
	}
}
