package faults

import (
	"bytes"
	"testing"
	"time"

	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// batchRecorder is a recorder that also takes batches, entry by entry in
// order, and counts them.
type batchRecorder struct {
	recorder
	batches int
}

func newBatchRecorder() *batchRecorder {
	return &batchRecorder{recorder: *newRecorder()}
}

func (r *batchRecorder) SendBatch(entries []mcast.BatchEntry) (int, error) {
	r.batches++
	for _, e := range entries {
		r.Send(e.Group, e.Frame)
	}
	return len(entries), nil
}

// scheduled is one frame of a tick as a shard stages it: the group, the
// position the plan is keyed on, the coverage of a parity frame (0 for
// data), and the built frame — nil when nobody hears the group.
type scheduled struct {
	g       mcast.Group
	seq     uint32
	offset  uint32
	covered int
	frame   []byte
}

// tickArena hands Stage fresh memory for released held frames and
// remembers it, so a test can scribble over it once the tick is sent.
type tickArena struct{ bufs [][]byte }

func (a *tickArena) take(n int) []byte {
	b := make([]byte, n)
	a.bufs = append(a.bufs, b)
	return b
}

// stageTick stages one tick through in.Stage, as a shard does, and
// returns the batch it built.
func stageTick(in *Injector, tick []scheduled, a *tickArena) []mcast.BatchEntry {
	var batch []mcast.BatchEntry
	for _, f := range tick {
		batch = in.Stage(batch, f.g, f.seq, f.offset, f.covered, f.frame, a.take)
	}
	return batch
}

// scribble overwrites every frame of a sent tick, the way a shard reuses
// its arena for the next one.
func scribble(bufs ...[]byte) {
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xFF
		}
	}
}

// dataFrame encodes one 64-byte data chunk.
func dataFrame(t testing.TB, video, channel uint16, seq uint32, chunk, nchunks int) []byte {
	t.Helper()
	c := wire.Chunk{Video: video, Channel: channel, Seq: seq, Offset: uint32(chunk * 64),
		Total: uint32(nchunks * 64), Payload: bytes.Repeat([]byte{byte(channel), byte(chunk)}, 32)}
	frame, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// tickSchedule is a few ticks of a three-channel broadcast: every tick
// carries, per channel, a catch-up run of two data chunks, the channels
// interleaved — so one batch holds several groups and several frames of
// one group.
func tickSchedule(t *testing.T, ticks int) [][]scheduled {
	t.Helper()
	const channels = 3
	var out [][]scheduled
	for tick := 0; tick < ticks; tick++ {
		var batch []scheduled
		for ch := 1; ch <= channels; ch++ {
			g := mcast.Group{Video: 2, Channel: ch}
			for c := 2 * tick; c < 2*tick+2; c++ {
				batch = append(batch, scheduled{g: g, seq: uint32(tick), offset: uint32(c * 64),
					frame: dataFrame(t, 2, uint16(ch), uint32(tick), c, 2*ticks)})
			}
		}
		out = append(out, batch)
	}
	return out
}

// TestFaultBatchMatchesSend: staging each tick through Stage and sending
// the batch puts on the wire, group by group, exactly the frame sequence
// that one Send per data chunk does, with the same counts — for every
// fault kind. The caller's frames and the arena a held frame was copied
// into are scribbled over as soon as each tick is sent, the way a shard
// reuses its arena, so a frame released later than the tick that held it
// must have been a copy. (Delayed frames are deferred by up to an hour:
// they reach neither wire during the test, and are compared by count.)
func TestFaultBatchMatchesSend(t *testing.T) {
	plans := map[string]Plan{
		"drop":      {Seed: 3, Drop: 0.2},
		"burst":     {Seed: 3, BurstEnter: 0.1, BurstExit: 0.3, BurstDrop: 0.9, ChunkBytes: 64},
		"duplicate": {Seed: 3, Duplicate: 0.3},
		"reorder":   {Seed: 3, Reorder: 0.3},
		// Every frame is held while the one before it is still held.
		"reorder-always": {Seed: 3, Reorder: 1},
		"delay":          {Seed: 3, Delay: 0.2, MaxDelay: time.Hour},
		"everything": {Seed: 3, Drop: 0.05, Duplicate: 0.1, Reorder: 0.15, Delay: 0.05, MaxDelay: time.Hour,
			BurstEnter: 0.05, BurstExit: 0.3, BurstDrop: 0.8, ChunkBytes: 64},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			perSend := newRecorder()
			in, err := New(perSend, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, tick := range tickSchedule(t, 40) {
				for _, f := range tick {
					if _, err := in.Send(f.g, f.frame); err != nil {
						t.Fatal(err)
					}
					scribble(f.frame)
				}
			}
			in.Flush()
			want := in.Counts()
			if want == (Counts{}) {
				t.Fatal("the plan injected nothing")
			}

			onWire := newBatchRecorder()
			in, err = New(onWire, plan)
			if err != nil {
				t.Fatal(err)
			}
			ticks := tickSchedule(t, 40)
			for _, tick := range ticks {
				var a tickArena
				if batch := stageTick(in, tick, &a); len(batch) > 0 {
					onWire.SendBatch(batch)
				}
				for _, f := range tick {
					scribble(f.frame)
				}
				scribble(a.bufs...)
			}
			in.Flush()
			if got := in.Counts(); got != want {
				t.Errorf("counts %+v from Stage, %+v from per-chunk Send", got, want)
			}
			if onWire.batches > len(ticks) {
				t.Errorf("%d batches for %d ticks", onWire.batches, len(ticks))
			}
			for g, frames := range perSend.frames {
				got := onWire.frames[g]
				if len(got) != len(frames) {
					t.Fatalf("%v got %d frames from Stage, %d from per-chunk Send", g, len(got), len(frames))
				}
				for i := range frames {
					if !bytes.Equal(got[i], frames[i]) {
						t.Fatalf("%v frame %d differs between Stage and per-chunk Send", g, i)
					}
				}
			}
			if len(onWire.frames) != len(perSend.frames) {
				t.Errorf("%d groups on the wire, want %d", len(onWire.frames), len(perSend.frames))
			}
		})
	}
}

// TestFaultStageCountsPinned pins the plan's counts for one seed over two
// repetitions of a 38-chunk fragment under a G=4 stripe (a two-chunk tail
// group), three frames a tick, the group heard for two ticks out of
// three. The numbers were recorded from the previous decision path — the
// heard ticks filtered by SendBatch at release, the unheard ones booked
// by Unheard at stage — and Stage must reproduce them: the plan is
// unchanged per seed. A frame held at the end of a heard tick is released
// behind the next tick's first frame.
func TestFaultStageCountsPinned(t *testing.T) {
	plan := Plan{Seed: 41, Drop: 0.08, Duplicate: 0.1, Reorder: 0.2, Delay: 0.05, MaxDelay: time.Hour,
		BurstEnter: 0.1, BurstExit: 0.4, BurstDrop: 0.9, ChunkBytes: 64}
	g := mcast.Group{Video: 3, Channel: 2}
	const nchunks, group, perTick = 38, 4, 3
	var steps []scheduled
	for seq := uint32(1); seq <= 2; seq++ {
		for c := 0; c < nchunks; c++ {
			steps = append(steps, scheduled{g: g, seq: seq, offset: uint32(c * 64)})
			if (c+1)%group == 0 || c == nchunks-1 {
				base := c / group * group
				covered := wire.ParityCount(uint32(base*64), nchunks*64, group, 64)
				steps = append(steps, scheduled{g: g, seq: seq, offset: uint32(base * 64), covered: covered})
			}
		}
	}
	rec := newBatchRecorder()
	in, err := New(rec, plan)
	if err != nil {
		t.Fatal(err)
	}
	crossings, holding := 0, false
	for tick := 0; tick*perTick < len(steps); tick++ {
		heard := (tick/2)%3 != 2
		part := steps[tick*perTick : min((tick+1)*perTick, len(steps))]
		for i := range part {
			part[i].frame = nil
			if !heard {
				continue
			}
			if part[i].covered > 0 {
				part[i].frame = parityFrame(t, 3, 2, int(part[i].offset/64), nchunks, part[i].seq)
			} else {
				part[i].frame = dataFrame(t, 3, 2, part[i].seq, int(part[i].offset/64), nchunks)
			}
		}
		var a tickArena
		if batch := stageTick(in, part, &a); len(batch) > 0 {
			rec.SendBatch(batch)
		}
		if heard && holding {
			crossings++ // this tick released the frame its predecessor held
		}
		in.mu.Lock()
		_, holding = in.held[g]
		in.mu.Unlock()
		holding = holding && heard
	}
	want := Counts{Dropped: 8, Duplicated: 4, Reordered: 16, Delayed: 12, BurstDropped: 20}
	if got := in.Counts(); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
	if n := len(rec.frames[g]); n != 40 {
		t.Errorf("%d frames on the wire, want 40", n)
	}
	if crossings == 0 {
		t.Error("no held frame crossed a tick; the schedule does not exercise the hold")
	}
}

// nullSender swallows everything, allocating nothing.
type nullSender struct{ n int }

func (s *nullSender) Send(mcast.Group, []byte) (int, error) { s.n++; return 1, nil }

// TestFaultDecideNoTraceZeroAlloc: with no trace buffer configured, an
// injected fault costs no allocation on either entry point, heard or
// unheard — the decision neither reads the clock nor formats an event
// nobody keeps. (A reordered frame's held copy comes from the pool.)
func TestFaultDecideNoTraceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc count is meaningless")
	}
	g := mcast.Group{Video: 1, Channel: 2}
	var frames [][]byte
	for c := 0; c < 8; c++ {
		frames = append(frames, dataFrame(t, 1, 2, 1, c, 8))
	}
	slab := make([]byte, 8*wire.EncodedSize(64))
	used := 0
	take := func(n int) []byte {
		b := slab[used : used+n]
		used += n
		return b
	}
	batch := make([]mcast.BatchEntry, 0, 32)
	for name, plan := range map[string]Plan{
		"drop":      {Seed: 1, Drop: 1},
		"burst":     {Seed: 1, BurstEnter: 1, BurstExit: 0.01, BurstDrop: 1, ChunkBytes: 64},
		"reorder":   {Seed: 1, Reorder: 1},
		"duplicate": {Seed: 1, Duplicate: 1},
	} {
		t.Run(name, func(t *testing.T) {
			in, err := New(&nullSender{}, plan)
			if err != nil {
				t.Fatal(err)
			}
			entryPoints := map[string]func(){
				"Send": func() {
					for _, f := range frames {
						in.Send(g, f)
					}
				},
				"Stage": func() {
					batch, used = batch[:0], 0
					for c, f := range frames {
						batch = in.Stage(batch, g, 1, uint32(c*64), 0, f, take)
					}
				},
				"Stage unheard": func() {
					for c := range frames {
						batch = in.Stage(batch[:0], g, 1, uint32(c*64), 0, nil, take)
					}
				},
			}
			for ep, fn := range entryPoints {
				fn() // warm the pools and the burst chain
				if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
					t.Errorf("%s: %v allocs per 8 faulted frames, want 0", ep, allocs)
				}
			}
			if c := in.Counts(); c == (Counts{}) {
				t.Error("the plan injected nothing")
			}
		})
	}
}
