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

// tickSchedule is a few ticks of a three-channel striped broadcast: every
// tick carries, per channel, a catch-up run of two data chunks with the
// parity frames that fall behind them, the channels interleaved — so one
// batch holds several groups, several frames of one group, and frames of
// two sizes.
func tickSchedule(t *testing.T, ticks int) [][]mcast.BatchEntry {
	t.Helper()
	const channels, fecGroup, chunkBytes = 3, 4, 64
	total := ticks * 2 * chunkBytes
	var out [][]mcast.BatchEntry
	for tick := 0; tick < ticks; tick++ {
		var batch []mcast.BatchEntry
		for ch := 1; ch <= channels; ch++ {
			g := mcast.Group{Video: 2, Channel: ch}
			for c := 2 * tick; c < 2*tick+2; c++ {
				payload := bytes.Repeat([]byte{byte(ch), byte(c)}, chunkBytes/2)
				chunk := wire.Chunk{Video: 2, Channel: uint16(ch), Seq: uint32(tick), Offset: uint32(c * chunkBytes),
					Total: uint32(total), Payload: payload}
				frame, err := chunk.Encode(nil)
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
				if (c+1)%fecGroup == 0 {
					for pi := uint8(0); pi < 2; pi++ {
						batch = append(batch, mcast.BatchEntry{Group: g,
							Frame: parityFrame(t, 2, uint16(ch), c+1-fecGroup, fecGroup, 2*ticks, pi)})
					}
				}
			}
		}
		out = append(out, batch)
	}
	return out
}

// TestFaultBatchMatchesSend: one SendBatch per tick puts on the wire, group
// by group, exactly the frame sequence that one Send per entry does, with
// the same counts — for every fault kind, with parity frames in the
// schedule, behind an inner sender that batches and one that does not.
// The caller's frames are scribbled over as soon as each call returns, the
// way a shard reuses its arena, so a frame released later than the call
// that held it must have been a copy. (Delayed frames are deferred by up
// to an hour: they reach neither wire during the test, and are compared by
// count.)
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
	scribble := func(batch []mcast.BatchEntry) {
		for _, e := range batch {
			for i := range e.Frame {
				e.Frame[i] = 0xFF
			}
		}
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			perSend := newRecorder()
			in, err := New(perSend, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range tickSchedule(t, 40) {
				for _, e := range batch {
					if _, err := in.Send(e.Group, e.Frame); err != nil {
						t.Fatal(err)
					}
					scribble([]mcast.BatchEntry{e})
				}
			}
			in.Flush()
			want := in.Counts()
			if want == (Counts{}) {
				t.Fatal("the plan injected nothing")
			}

			for _, inner := range []string{"batching", "plain"} {
				var rec *recorder
				var batched *batchRecorder
				var next mcast.Sender
				if inner == "batching" {
					batched = newBatchRecorder()
					rec, next = &batched.recorder, batched
				} else {
					rec = newRecorder()
					next = rec
				}
				in, err := New(next, plan)
				if err != nil {
					t.Fatal(err)
				}
				ticks := tickSchedule(t, 40)
				for _, batch := range ticks {
					if _, err := in.SendBatch(batch); err != nil {
						t.Fatal(err)
					}
					scribble(batch)
				}
				in.Flush()
				if got := in.Counts(); got != want {
					t.Errorf("%s inner: counts %+v from SendBatch, %+v from per-entry Send", inner, got, want)
				}
				if batched != nil && batched.batches > len(ticks) {
					t.Errorf("inner sender saw %d batches for %d SendBatch calls", batched.batches, len(ticks))
				}
				for g, frames := range perSend.frames {
					got := rec.frames[g]
					if len(got) != len(frames) {
						t.Fatalf("%s inner: %v got %d frames from SendBatch, %d from per-entry Send", inner, g, len(got), len(frames))
					}
					for i := range frames {
						if !bytes.Equal(got[i], frames[i]) {
							t.Fatalf("%s inner: %v frame %d differs between SendBatch and per-entry Send", inner, g, i)
						}
					}
				}
				if len(rec.frames) != len(perSend.frames) {
					t.Errorf("%s inner: %d groups on the wire, want %d", inner, len(rec.frames), len(perSend.frames))
				}
			}
			// Nothing scribbled ever reached a wire: every frame still parses.
			for g, frames := range perSend.frames {
				for i, f := range frames {
					if _, _, _, _, ok := wire.PeekID(f); !ok {
						t.Fatalf("%v frame %d on the wire was scribbled over", g, i)
					}
				}
			}
		})
	}
}

// nullSender swallows everything, allocating nothing.
type nullSender struct{ n int }

func (s *nullSender) Send(mcast.Group, []byte) (int, error) { s.n++; return 1, nil }
func (s *nullSender) SendBatch(entries []mcast.BatchEntry) (int, error) {
	s.n += len(entries)
	return len(entries), nil
}

// TestFaultDecideNoTraceZeroAlloc: with no trace buffer configured, an
// injected fault costs no allocation on any of the three entry points —
// the decision neither reads the clock nor formats an event nobody keeps.
// (A reordered frame's held copy comes from the pool.)
func TestFaultDecideNoTraceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc count is meaningless")
	}
	g := mcast.Group{Video: 1, Channel: 2}
	var batch []mcast.BatchEntry
	for c := 0; c < 8; c++ {
		chunk := wire.Chunk{Video: 1, Channel: 2, Seq: 1, Offset: uint32(c * 64), Total: 8 * 64, Payload: make([]byte, 64)}
		frame, err := chunk.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, mcast.BatchEntry{Group: g, Frame: frame})
	}
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
					for _, e := range batch {
						in.Send(e.Group, e.Frame)
					}
				},
				"SendBatch": func() { in.SendBatch(batch) },
				"Unheard": func() {
					for c := range batch {
						in.Unheard(g, 1, uint32(c*64), -1, 0)
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
