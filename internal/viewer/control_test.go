package viewer

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"testing"
	"time"

	"skyscraper/internal/mcast"
	"skyscraper/internal/series"
	"skyscraper/internal/wire"
)

// TestNackRejectsMismatchedEcho: a KindNackOK for another (video,
// channel, seq) is an error, not an acceptance — the cohort then
// escalates the chunks, as on any NACK failure, instead of re-listening
// for re-sends that are not coming. A matching echo yields its bitmap.
func TestNackRejectsMismatchedEcho(t *testing.T) {
	for _, tc := range []struct {
		name           string
		video, channel int
		seq            uint32
		wantErr        bool
	}{
		{"matching", 1, 2, 7, false},
		{"other video", 0, 2, 7, true},
		{"other channel", 1, 3, 7, true},
		{"other repetition", 1, 2, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			// The scripted peer answers one NACK, accepting chunk 3 only,
			// under the case's (video, channel, seq).
			go func() {
				req, err := wire.ReadControl(bufio.NewReader(server))
				if err != nil || req.Nack == nil {
					return
				}
				echo := &wire.Nack{Video: tc.video, Channel: tc.channel, Seq: tc.seq,
					BaseChunk: req.Nack.BaseChunk, Bitmap: make([]byte, len(req.Nack.Bitmap))}
				echo.Set(3)
				_ = wire.WriteControl(server, &wire.Control{Kind: wire.KindNackOK, Nack: echo})
			}()
			cc := &controlConn{mux: &Mux{cfg: MuxConfig{Logf: t.Logf}}, conn: client, r: bufio.NewReader(client)}
			accepted, err := cc.nack(1, 2, 7, []int{3, 5})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("echo %d/%d seq %d for a NACK of 1/2 seq 7 accepted", tc.video, tc.channel, tc.seq)
				}
				return
			}
			if err != nil {
				t.Fatalf("matching echo rejected: %v", err)
			}
			if !accepted(3) || accepted(5) {
				t.Errorf("accepted(3)=%v accepted(5)=%v, want true, false", accepted(3), accepted(5))
			}
		})
	}
}

// peerEpoch is the broadcast epoch a pipePeer welcomes with until told to
// change it.
const peerEpoch = int64(1_000_000_000_000)

// peerWelcome is the broadcast a pipePeer describes: two videos of three
// channels, of 1, 2 and 2 units of 10 ms.
func peerWelcome(epoch int64) *wire.Welcome {
	return &wire.Welcome{Videos: 2, ChannelsPerVideo: 3, Width: 2, UnitNanos: int64(10 * time.Millisecond),
		EpochUnixNano: epoch, SizeUnits: []int64{1, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024}
}

// pipePeer is a scripted control server, reached over net.Pipe through
// controlConn's dial seam: no socket. It answers a hello with its
// welcome, a join of channel 1..3 on a valid port with joined and any
// other with an error, a NACK by accepting every chunk and stats with
// statsok, and it keeps the groups each connection holds. It can cut a
// connection at any line it reads, and change the epoch its next welcome
// carries. Two rules are checked as lines arrive, breaches kept in errs:
// a connection dialed while the viewer held groups re-joins each of them
// right after the welcome, and a connection welcomed with a changed
// epoch carries nothing after its hello.
type pipePeer struct {
	cc *controlConn
	wg sync.WaitGroup

	mu    sync.Mutex
	epoch int64
	cutIn int // lines to read before the next cut: 0 cuts the next one, -1 none
	conns []*peerConn
	errs  []string
}

// peerConn is one connection as the peer sees it.
type peerConn struct {
	srv   net.Conn
	epoch int64
	owed  map[mcast.Group]bool // re-joins owed after the welcome
	held  map[mcast.Group]bool
	kinds []string // every line read, by kind
}

func newPipePeer() *pipePeer { return &pipePeer{epoch: peerEpoch, cutIn: -1} }

// dial is controlConn's dial seam: a new connection, owing a re-join of
// every group the viewer holds now.
func (p *pipePeer) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	pc := &peerConn{srv: srv, owed: maps.Clone(p.cc.held), held: map[mcast.Group]bool{}}
	p.mu.Lock()
	pc.epoch = p.epoch
	p.conns = append(p.conns, pc)
	p.mu.Unlock()
	p.wg.Add(1)
	go p.serve(pc)
	return client, nil
}

func (p *pipePeer) serve(pc *peerConn) {
	defer p.wg.Done()
	r := bufio.NewReader(pc.srv)
	for {
		m, err := wire.ReadControl(r)
		var reply *wire.Control
		if err == nil {
			p.mu.Lock()
			reply, err = p.answer(pc, m)
			p.mu.Unlock()
		}
		if err == nil && reply != nil {
			err = wire.WriteControl(pc.srv, reply)
		}
		if err != nil {
			// The server drops a connection's memberships with it.
			p.mu.Lock()
			pc.held = nil
			p.mu.Unlock()
			pc.srv.Close()
			return
		}
	}
}

var errCut = errors.New("cut")

// answer is the peer's reply to m on pc, nil for none; errCut cuts pc
// instead. The caller holds p.mu.
func (p *pipePeer) answer(pc *peerConn, m *wire.Control) (*wire.Control, error) {
	if p.cutIn == 0 {
		p.cutIn = -1
		return nil, errCut
	}
	if p.cutIn > 0 {
		p.cutIn--
	}
	pc.kinds = append(pc.kinds, m.Kind)
	if m.Kind == wire.KindHello {
		return &wire.Control{Kind: wire.KindWelcome, Welcome: peerWelcome(pc.epoch)}, nil
	}
	g := mcast.Group{Video: m.Video, Channel: m.Channel}
	if pc.epoch != peerEpoch {
		p.errs = append(p.errs, fmt.Sprintf("%s %v sent on a connection welcomed with a changed epoch", m.Kind, g))
	}
	if len(pc.owed) > 0 {
		if m.Kind != wire.KindJoin || !pc.owed[g] {
			p.errs = append(p.errs, fmt.Sprintf("redial sent %s %v before re-joining %v", m.Kind, g, pc.owed))
			pc.owed = nil
		}
		delete(pc.owed, g)
	}
	switch m.Kind {
	case wire.KindJoin:
		if m.Video < 0 || m.Video >= 2 || m.Channel < 1 || m.Channel > 3 || m.Port <= 0 || m.Port > 65535 {
			return &wire.Control{Kind: wire.KindError, Error: "no such channel"}, nil
		}
		pc.held[g] = true
		return &wire.Control{Kind: wire.KindJoined, Video: m.Video, Channel: m.Channel}, nil
	case wire.KindLeave:
		delete(pc.held, g)
		return nil, nil
	case wire.KindNack:
		echo := *m.Nack // every chunk accepted
		return &wire.Control{Kind: wire.KindNackOK, Nack: &echo}, nil
	case wire.KindStats:
		return &wire.Control{Kind: wire.KindStatsOK}, nil
	}
	return &wire.Control{Kind: wire.KindError, Error: "unknown kind"}, nil
}

// lines counts the lines of kind the peer read over every connection.
func (p *pipePeer) lines(kind string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pc := range p.conns {
		for _, k := range pc.kinds {
			if k == kind {
				n++
			}
		}
	}
	return n
}

// sync makes one stats round trip, so every line sent before it has been
// read, and returns the connection it went over.
func (p *pipePeer) sync(t testing.TB) *peerConn {
	t.Helper()
	if _, err := p.cc.roundTrip(&wire.Control{Kind: wire.KindStats}, true); err != nil {
		t.Fatalf("stats round trip: %v", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns[len(p.conns)-1]
}

// rigMux is a mux that is never Run, connected to a pipePeer. The test
// goroutine plays the loop (tunes, untunes, NACKs, and handle's wakes on
// virtual time) and the control goroutine (serveOne) by turns.
func rigMux(t testing.TB) (*Mux, *pipePeer) {
	t.Helper()
	m := &Mux{cfg: MuxConfig{Viewers: 1, JoinLeadFrac: 0.5, SlackFrac: 0.5, RepairLagFrac: 0.5, Logf: func(string, ...any) {}},
		inbox: make(chan func(time.Time), 64), kick: make(chan struct{}, 1), running: 1 << 20, finished: make(chan struct{})}
	p := newPipePeer()
	m.cc = &controlConn{mux: m, held: map[mcast.Group]bool{}, dial: p.dial, port: 4000}
	p.cc = m.cc
	w, err := m.cc.handshake()
	if err != nil {
		t.Fatal(err)
	}
	m.w, m.unit, m.epoch = w, time.Duration(w.UnitNanos), time.Unix(0, w.EpochUnixNano)
	m.route = newRouter(w.ChunkBytes, w.FecGroup)
	t.Cleanup(func() {
		m.cc.close()
		p.wg.Wait()
	})
	return m, p
}

// rigEntry is a fragment on channel ch: 2 units tuned at unit 100, its
// join lead open from the epoch.
func rigEntry(m *Mux, ch int) tuneEntry {
	return tuneEntry{channel: ch, g: series.Group{Index: 2, First: ch, Count: 1, Size: 2}, tuneUnit: 100, seq: 50, joinAt: m.epoch}
}

// rigCohort is a one-viewer cohort of m on video whose loaders tune the
// given channels' rigEntry, then wait for ever. The loop steps it.
func rigCohort(m *Mux, video, viewer int, channels ...int) *cohort {
	c := &cohort{mux: m, video: video, viewers: []int{viewer}, playStartUnit: 1000,
		playStart: m.epoch.Add(1000 * m.unit)}
	for _, ch := range channels {
		c.loaders[0].sched = append(c.loaders[0].sched, rigEntry(m, ch))
	}
	for i := range c.loaders {
		c.loaders[i].sched = append(c.loaders[i].sched, tuneEntry{joinAt: m.epoch.Add(time.Hour)})
	}
	m.cohorts = append(m.cohorts, c)
	return c
}

// stepped reports whether a rigCohort's fragments have been stepped: it
// then asks for an instant before the hour its loaders wait.
func stepped(c *cohort) bool { return c.at.Before(c.mux.epoch.Add(time.Hour)) }

// settle plays the control goroutine and the loop by turns until both
// are idle: every queued request runs, and the loop wakes at now to apply
// its reply.
func settle(m *Mux, now time.Time) {
	for m.serveOne() {
		m.handle(nil, now)
	}
}

// TestMuxTuneOfHeldGroupAsksNothing: the router's group table is the
// audience's membership count. A second cohort's tune of a group the
// first one holds makes no control request and is stepped in the same
// call; only the group's first tune joins it on the server, and only its
// last untune leaves.
func TestMuxTuneOfHeldGroupAsksNothing(t *testing.T) {
	m, p := rigMux(t)
	now := m.epoch.Add(99 * m.unit)
	a, b := rigCohort(m, 1, 0, 2), rigCohort(m, 1, 1, 2)
	a.step(now)
	fa := a.loaders[0].open[0]
	if n := m.queued(); n != 1 || !fa.busy {
		t.Fatalf("the group's first tune queued %d requests (busy %v), want its join, awaited", n, fa.busy)
	}
	settle(m, now)
	if fa.busy || fa.err != nil || !stepped(a) {
		t.Fatalf("the join's reply left the fragment busy %v, err %v, next step %v", fa.busy, fa.err, a.at)
	}

	b.step(now)
	fb := b.loaders[0].open[0]
	if n := m.queued(); n != 0 {
		t.Errorf("a second cohort's tune of a held group queued %d control requests, want 0", n)
	}
	if fb.busy || !stepped(b) {
		t.Errorf("the held group's fragment is busy %v with next step %v: not stepped in the tune's call", fb.busy, b.at)
	}

	a.untune(fa)
	if n := m.queued(); n != 0 {
		t.Errorf("an untune with another fragment left on the group queued %d requests, want 0", n)
	}
	b.untune(fb)
	settle(m, now)
	if live := p.sync(t); len(live.held) != 0 {
		t.Errorf("the server still holds %v after the group's last untune", live.held)
	}
	if j, l := p.lines(wire.KindJoin), p.lines(wire.KindLeave); j != 1 || l != 1 {
		t.Errorf("the server read %d joins and %d leaves for one group tuned twice, want 1 and 1", j, l)
	}
}

// TestMuxJoinInFlightHoldsTunes: fragments tuned while their group's join
// is in flight wait for that one reply and are stepped when it comes; a
// refused join fails every fragment waiting on it, and no leave follows
// it. A group closed and reopened while its join is in flight gets a
// join of its own.
func TestMuxJoinInFlightHoldsTunes(t *testing.T) {
	m, p := rigMux(t)
	now := m.epoch.Add(99 * m.unit)
	var held []*cohort
	for v := range 3 {
		c := rigCohort(m, 1, v, 2)
		c.step(now)
		held = append(held, c)
	}
	var refused []*cohort
	for v := 3; v < 5; v++ {
		c := rigCohort(m, 1, v, 4) // channel K+1: no such channel
		c.step(now)
		refused = append(refused, c)
	}
	if n := m.queued(); n != 2 {
		t.Fatalf("five tunes of two groups queued %d requests, want the two joins", n)
	}
	for _, c := range append(held, refused...) {
		if f := c.loaders[0].open[0]; !f.busy || stepped(c) {
			t.Fatalf("viewer %d's fragment busy %v, next step %v, while its group's join is in flight", c.viewers[0], f.busy, c.at)
		}
	}

	settle(m, now)
	for _, c := range held {
		if f := c.loaders[0].open[0]; f.busy || f.err != nil || !stepped(c) {
			t.Errorf("viewer %d after the join: busy %v, err %v, next step %v; want stepped", c.viewers[0], f.busy, f.err, c.at)
		}
	}
	for _, c := range refused {
		if ld := &c.loaders[0]; ld.err == nil || len(ld.open) != 0 {
			t.Errorf("viewer %d after a refused join: loader err %v with %d fragments tuned, want failed", c.viewers[0], ld.err, len(ld.open))
		}
	}
	if _, ok := m.route.groups[mcast.Group{Video: 1, Channel: 4}]; ok {
		t.Error("the router still routes the refused group")
	}

	// Channel 3 is closed and reopened before its first join is answered.
	first := rigCohort(m, 1, 5, 3)
	first.step(now)
	first.loaders[0].fail(first, first.loaders[0].open[0], errors.New("gone"))
	second := rigCohort(m, 1, 6, 3)
	second.step(now)
	if n := m.queued(); n != 3 {
		t.Fatalf("a group closed and reopened with its join in flight queued %d requests, want join, leave, join", n)
	}
	settle(m, now)
	if f := second.loaders[0].open[0]; f.busy || f.err != nil {
		t.Errorf("the reopened group's fragment: busy %v, err %v after its own join", f.busy, f.err)
	}
	live := p.sync(t)
	want := map[mcast.Group]bool{{Video: 1, Channel: 2}: true, {Video: 1, Channel: 3}: true}
	if !maps.Equal(live.held, want) {
		t.Errorf("the server holds %v, want %v", live.held, want)
	}
	if j, l := p.lines(wire.KindJoin), p.lines(wire.KindLeave); j != 4 || l != 1 {
		t.Errorf("the server read %d joins and %d leaves, want 4 (channel 2, the refused channel 4, channel 3 twice) and 1", j, l)
	}
}

// TestMuxFailedJoinFailsLaterTunes: a fragment tuned to a group whose
// join failed, while the failed fragments still hold its route, fails at
// its first step instead of waiting for a reply that never comes. Here
// the cohort earlier in the loop's order tunes the group in the same
// handle call that applies the refusal, before the refused fragment's
// own cohort is stepped and leaves the route. Both cohorts finish, and
// the run with them.
func TestMuxFailedJoinFailsLaterTunes(t *testing.T) {
	m, _ := rigMux(t)
	now := m.epoch.Add(99 * m.unit)
	early, late := rigCohort(m, 1, 0, 4), rigCohort(m, 1, 1, 4) // channel K+1: no such channel
	for _, c := range []*cohort{early, late} {
		c.loaders[0].sched = c.loaders[0].sched[:1]
		c.loaders[1].sched = nil
	}
	m.running = 2
	early.loaders[0].sched[0].joinAt = now.Add(time.Millisecond)
	early.step(now)
	late.step(now)
	if n := m.queued(); n != 1 || len(early.loaders[0].open) != 0 {
		t.Fatalf("queued %d requests with %d early fragments tuned, want the late cohort's join alone", n, len(early.loaders[0].open))
	}
	m.serveOne()
	m.handle(nil, now.Add(time.Millisecond))
	for _, c := range []*cohort{early, late} {
		if c.err == nil {
			t.Errorf("viewer %d's cohort did not fail on its group's refused join (loader open %d)", c.viewers[0], len(c.loaders[0].open))
		}
	}
	select {
	case <-m.finished:
	default:
		t.Fatalf("%d cohorts still running after the refused join", m.running)
	}
	if _, ok := m.route.groups[mcast.Group{Video: 1, Channel: 4}]; ok {
		t.Error("the router still routes the refused group")
	}
}

// Opcodes of FuzzMuxControlSequence's programs.
const (
	muxOpTap = iota
	muxOpUntap
	muxOpNack
	muxOpCut
	muxOpEpoch
	muxOpServe
	muxOpApply
	muxOpAdvance
	muxOps
)

// FuzzMuxControlSequence plays the audience's control connection as
// sequences against a pipePeer: tunes and untunes of three cohorts over
// five channels of two videos (channels 0 and 4 do not exist, so their
// joins are refused), NACKs, cuts at any line the peer reads, a changed
// epoch, and the control goroutine's requests and the loop's replies run
// by turns in any order. A fragment a refused or failed join fails is
// untuned, as its loader would, either with the reply or by a later op,
// so tunes can land on the failed route in between. Once both queues
// drain: no fragment still tuned waits for a reply unless it has failed;
// every redial re-joined each group held at the time, first thing after
// its welcome; with the epoch unchanged, the live connection holds
// exactly the groups the loop has open and joined; with it changed, no
// connection welcomed with the new epoch carried a line after its hello,
// and a redial is refused with errEpochChanged.
func FuzzMuxControlSequence(f *testing.F) {
	op := func(code int, args ...byte) []byte { return append([]byte{byte(code)}, args...) }
	seeds := [][]byte{
		// A join, a cut on the next line, a second group: the redial must
		// re-join the first before it joins the second.
		bytes.Join([][]byte{op(muxOpTap, 0, 1), op(muxOpServe), op(muxOpApply, 1), op(muxOpCut, 0),
			op(muxOpTap, 1, 2), op(muxOpServe), op(muxOpApply, 1)}, nil),
		// Close and reopen a group with its join in flight, tune a held
		// group twice, NACK on it and cut the handshake's hello.
		bytes.Join([][]byte{op(muxOpTap, 0, 3), op(muxOpUntap, 0, 3), op(muxOpTap, 1, 3), op(muxOpTap, 2, 3),
			op(muxOpServe), op(muxOpServe), op(muxOpApply, 1), op(muxOpNack, 1, 3, 2), op(muxOpCut, 1),
			op(muxOpServe), op(muxOpServe), op(muxOpApply, 1)}, nil),
		// A refused join, then the epoch changes under a cut.
		bytes.Join([][]byte{op(muxOpTap, 0, 0), op(muxOpTap, 1, 1), op(muxOpServe), op(muxOpApply, 1),
			op(muxOpEpoch), op(muxOpCut, 0), op(muxOpTap, 2, 2), op(muxOpAdvance, 40)}, nil),
		// A refused join whose fragment stays tuned, then another
		// cohort's tune of the refused group, left tuned after the first
		// is untuned.
		bytes.Join([][]byte{op(muxOpTap, 0, 4), op(muxOpServe), op(muxOpApply, 0), op(muxOpTap, 2, 4),
			op(muxOpApply, 0), op(muxOpUntap, 0, 4)}, nil),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runMuxControlSequence(t, prog)
	})
}

// runMuxControlSequence plays one program; see FuzzMuxControlSequence.
func runMuxControlSequence(t *testing.T, prog []byte) {
	m, p := rigMux(t)
	now := m.epoch.Add(99 * m.unit)
	var cohorts [3]*cohort
	for k := range cohorts {
		cohorts[k] = rigCohort(m, k%2, k)
	}
	type key struct{ cohort, channel int }
	frags := map[key]*frag{}
	// apply is the loop's wake: replies applied, and with untune every
	// fragment failed untuned.
	apply := func(untune bool) {
		m.handle(nil, now)
		for k, f := range frags {
			if untune && f.err != nil {
				cohorts[k.cohort].untune(f)
				delete(frags, k)
			}
		}
	}
	i := 0
	next := func() byte { // the program's next byte, then zeros
		if i++; i <= len(prog) {
			return prog[i-1]
		}
		return 0
	}
	for i < len(prog) {
		switch next() % muxOps {
		case muxOpTap:
			k := key{int(next() % 3), int(next() % 5)}
			if frags[k] == nil {
				e := rigEntry(m, k.channel)
				frags[k] = cohorts[k.cohort].tune(&e)
			}
		case muxOpUntap:
			k := key{int(next() % 3), int(next() % 5)}
			if f := frags[k]; f != nil {
				cohorts[k.cohort].untune(f)
				delete(frags, k)
			}
		case muxOpNack:
			k := key{int(next() % 3), int(next() % 5)}
			idx := int(next() % 8)
			if f := frags[k]; f != nil && !f.busy && f.err == nil {
				cohorts[k.cohort].nack(f, []int{idx})
			}
		case muxOpCut:
			n := int(next() % 4)
			p.mu.Lock()
			p.cutIn = n
			p.mu.Unlock()
		case muxOpEpoch:
			p.mu.Lock()
			p.epoch++
			p.mu.Unlock()
		case muxOpServe:
			if len(m.inbox) == cap(m.inbox) {
				apply(false)
			}
			m.serveOne()
		case muxOpApply:
			apply(next()%2 == 1)
		case muxOpAdvance:
			now = now.Add(time.Duration(next()) * time.Millisecond)
		}
	}
	for m.queued() > 0 || len(m.inbox) > 0 {
		settle(m, now)
		apply(false)
	}
	for k, f := range frags {
		if f.busy && f.err == nil {
			t.Errorf("cohort %d's fragment on channel %d waits for a reply with both queues drained", k.cohort, k.channel)
		}
	}

	p.mu.Lock()
	p.cutIn = -1
	changed := p.epoch != peerEpoch
	p.mu.Unlock()
	if changed {
		p.mu.Lock()
		last := p.conns[len(p.conns)-1]
		p.mu.Unlock()
		last.srv.Close() // the next request redials
		if _, err := m.cc.roundTrip(&wire.Control{Kind: wire.KindStats}, true); !errors.Is(err, errEpochChanged) {
			t.Errorf("a redial to a changed epoch returned %v, want %v", err, errEpochChanged)
		}
		if m.cc.conn != nil {
			t.Error("a connection to a changed epoch was kept")
		}
	} else {
		live := p.sync(t)
		open := map[mcast.Group]bool{}
		for g, gr := range m.route.groups {
			if gr.joined {
				open[g] = true
			}
		}
		p.mu.Lock()
		held := maps.Clone(live.held)
		p.mu.Unlock()
		if !maps.Equal(held, open) {
			t.Errorf("the live connection holds %v; the loop has %v open and joined", held, open)
		}
	}
	m.cc.close()
	p.wg.Wait()
	for _, e := range p.errs {
		t.Error(e)
	}
}
