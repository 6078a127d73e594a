package server

import (
	"bytes"
	"testing"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/vod"
	"skyscraper/internal/wire"
)

const (
	testBytesPerUnit = 4096
	testChunkBytes   = 1024
)

func cacheScheme(t testing.TB, m, k int, w int64) *core.Scheme {
	t.Helper()
	cfg := vod.Config{ServerMbps: 1.5 * float64(m*k), Videos: m, LengthMin: 120, RateMbps: 1.5}
	sch, err := core.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if sch.K() != k {
		t.Fatalf("K = %d, want %d", sch.K(), k)
	}
	return sch
}

// seedEncode is the pre-cache broadcast path, reproduced verbatim as the
// golden reference: fill the chunk's payload from the content function and
// encode the frame from scratch, CRC and all, every time.
func seedEncode(dst, payload []byte, cc *channelCache, c int, seq uint32) []byte {
	off := c * testChunkBytes
	content.Fill(payload, int(cc.video), cc.base+int64(off))
	ch := wire.Chunk{
		Video:   cc.video,
		Channel: cc.channel,
		Seq:     seq,
		Offset:  uint32(off),
		Total:   cc.total,
		Payload: payload,
	}
	frame, err := ch.Encode(dst[:0])
	if err != nil {
		panic(err)
	}
	return frame
}

// TestMaterialiseGoldenEquivalence asserts materialise-on-send — payload
// filled in place behind a header written once, CRC from the cache — emits
// byte-identical frames to the seed's fill-and-encode path for every
// (video, channel, chunk, seq), whether the CRC word was cached (every
// pass after a chunk's first) or had to be computed, and that the cache
// keeps CRC words and nothing else.
func TestMaterialiseGoldenEquivalence(t *testing.T) {
	sch := cacheScheme(t, 2, 4, 2) // fragments 1,2,2,2 per video
	fc := newFrameCache(sch, testBytesPerUnit, testChunkBytes, 0)
	var arena frameArena
	payload := make([]byte, testChunkBytes)
	var golden []byte
	var chunksTotal int64
	for v := 0; v < sch.Config().Videos; v++ {
		for i := 1; i <= sch.K(); i++ {
			cc := fc.channel(v, i)
			chunks := int(cc.total) / testChunkBytes
			chunksTotal += int64(chunks)
			for c := 0; c < chunks; c++ {
				for seq := uint32(0); seq < 3; seq++ {
					golden = seedEncode(golden, payload, cc, c, seq)
					arena.reset()
					if got := fc.materialise(&arena, cc, c, seq); !bytes.Equal(got, golden) {
						t.Fatalf("video %d ch %d chunk %d seq %d: materialised frame differs from golden encode", v, i, c, seq)
					}
				}
			}
		}
	}
	want := CacheStats{Hits: 2 * chunksTotal, Misses: chunksTotal, Bytes: 8 * chunksTotal}
	if st := fc.stats(); st != want {
		t.Fatalf("stats after the sweep = %+v, want %+v (one CRC computed per chunk, 8 bytes kept for it)", st, want)
	}
}

// TestFrameArenaTickScope pins the arena's contract: frames taken in one
// tick are distinct memory and survive until reset; a tick that outgrows
// the slab is served from the heap and grows the slab once, at the next
// reset; from then on the same demand allocates nothing.
func TestFrameArenaTickScope(t *testing.T) {
	var a frameArena
	tick := func() [][]byte {
		a.reset()
		var frames [][]byte
		for i := 0; i < 5; i++ {
			f := a.take(100)
			for j := range f {
				f[j] = byte(i)
			}
			frames = append(frames, f)
		}
		return frames
	}
	for round := 0; round < 3; round++ {
		for i, f := range tick() {
			if len(f) != 100 || cap(f) != 100 {
				t.Fatalf("round %d frame %d: len %d cap %d, want 100/100 (a frame must not grow into its neighbour)", round, i, len(f), cap(f))
			}
			for _, b := range f {
				if b != byte(i) {
					t.Fatalf("round %d: frame %d was overwritten by a later take", round, i)
				}
			}
		}
	}
	if len(a.slab) < 500 || len(a.slab) > 2*500 {
		t.Errorf("slab = %d bytes after 500-byte ticks, want 500 plus bounded headroom", len(a.slab))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.reset()
		for i := 0; i < 5; i++ {
			a.take(100)
		}
	}); allocs != 0 {
		t.Errorf("steady-state tick allocates %v times, want 0", allocs)
	}
}

// TestMaterialiseZeroAlloc is the acceptance gate for the steady-state
// broadcast path: arena reset + materialise + hub Send must allocate
// nothing, CRC cached or not yet.
func TestMaterialiseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the hub's sync.Pool drops Puts under the race detector; alloc count is meaningless")
	}
	sch := cacheScheme(t, 1, 3, 2)
	fc := newFrameCache(sch, testBytesPerUnit, testChunkBytes, 0)
	var arena frameArena
	cc := fc.channel(0, 3)
	chunks := int(cc.total) / testChunkBytes
	fc.materialise(&arena, cc, 0, 0) // size the arena; CRC words stay cold but for chunk 0

	hub, err := mcast.NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	recv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	g := mcast.Group{Video: 0, Channel: 3}
	if err := hub.Join(g, recv.Addr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, wire.EncodedSize(testChunkBytes))
		for {
			if _, err := recv.Conn.Read(buf); err != nil {
				return
			}
		}
	}()

	seq := uint32(0)
	allocs := testing.AllocsPerRun(100, func() {
		arena.reset()
		frame := fc.materialise(&arena, cc, int(seq)%chunks, seq)
		seq++
		if _, err := hub.Send(g, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("materialise + send allocates %v times per chunk, want 0", allocs)
	}
	recv.Close()
	<-done
}

// TestParityGoldenEncode pins the parity encoder against an independent
// reference: for every group of every channel, the materialised parity
// frame must be byte-identical to wire.EncodeParityFrame over exactly the
// XOR of the group's content-function chunks — the tail group's short
// coverage included — whether its CRC word was computed or cached.
func TestParityGoldenEncode(t *testing.T) {
	sch := cacheScheme(t, 1, 3, 2)
	const fecGroup = 3 // channel 3 has 8 chunks: groups of 3, 3, 2
	fc := newFrameCache(sch, testBytesPerUnit, testChunkBytes, fecGroup)
	var arena frameArena
	payload := make([]byte, testChunkBytes)
	for pass := 0; pass < 2; pass++ { // CRC computed, then CRC cached
		for i := 1; i <= sch.K(); i++ {
			cc := fc.channel(0, i)
			chunks := int(cc.total) / testChunkBytes
			for g := 0; g*fecGroup < chunks; g++ {
				want := make([]byte, testChunkBytes)
				for c := g * fecGroup; c < min((g+1)*fecGroup, chunks); c++ {
					content.Fill(payload, 0, cc.base+int64(c*testChunkBytes))
					wire.XorAccum(want, payload)
				}
				arena.reset()
				frame := fc.materialiseParity(&arena, cc, g, 7)
				ref, err := wire.EncodeParityFrame(nil, cc.video, cc.channel, 7, uint32(g*fecGroup*testChunkBytes), cc.total, 0, want, wire.PayloadCRC(want))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(frame, ref) {
					t.Fatalf("ch %d group %d: materialised parity frame differs from the XOR of its chunks", i, g)
				}
			}
		}
	}
}

// TestParityFrameIsDataFrameSize: a parity frame is exactly as long as
// the data frames it rides between — the header and one chunk — for
// every group of every channel, tail groups included, at every stripe
// width and chunk size, so a stripe never ends a GSO run. It decodes, and
// the coverage the receiver computes from the geometry is the group's.
func TestParityFrameIsDataFrameSize(t *testing.T) {
	sch := cacheScheme(t, 1, 4, 2) // fragments of 1, 2, 2, 2 units
	for _, chunkBytes := range []int{1024, 4096, wire.MaxPayload} {
		for _, group := range []int{2, 4, 64} {
			// Five chunks a unit: fragments of 5 and 10 chunks, so every
			// width has a short tail group.
			fc := newFrameCache(sch, 5*chunkBytes, chunkBytes, group)
			var arena frameArena
			for i := 1; i <= sch.K(); i++ {
				cc := fc.channel(0, i)
				chunks := len(cc.crcs)
				for g := 0; g*group < chunks; g++ {
					arena.reset()
					data := fc.materialise(&arena, cc, g*group, 3)
					parity := fc.materialiseParity(&arena, cc, g, 3)
					if len(parity) != len(data) || len(data) != wire.EncodedSize(chunkBytes) {
						t.Fatalf("chunk %d G=%d ch %d group %d: parity frame %d bytes, data frame %d", chunkBytes, group, i, g, len(parity), len(data))
					}
					p, err := wire.DecodeParity(parity)
					if err != nil {
						t.Fatalf("chunk %d G=%d ch %d group %d: %v", chunkBytes, group, i, g, err)
					}
					want := min(group, chunks-g*group)
					if got := wire.ParityCount(p.Base, p.Total, group, chunkBytes); got != want {
						t.Fatalf("chunk %d G=%d ch %d group %d: coverage %d, want %d", chunkBytes, group, i, g, got, want)
					}
				}
			}
		}
	}
}

// TestParityMaterialiseZeroAlloc is the acceptance gate for the stripe's
// broadcast cost: building a parity frame — G fills folded in place —
// allocates nothing once the arena has seen one.
func TestParityMaterialiseZeroAlloc(t *testing.T) {
	sch := cacheScheme(t, 1, 3, 2)
	fc := newFrameCache(sch, testBytesPerUnit, testChunkBytes, 4)
	var arena frameArena
	cc := fc.channel(0, 3)
	fc.materialiseParity(&arena, cc, 0, 0) // size the arena
	seq := uint32(0)
	allocs := testing.AllocsPerRun(100, func() {
		arena.reset()
		fc.materialiseParity(&arena, cc, int(seq)%2, seq)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("materialise allocates %v times per group, want 0", allocs)
	}
}

// BenchmarkPaceEncode measures the per-chunk broadcast encoding cost:
// "seed" is the original path (content fill into a payload buffer, CRC,
// encode with a payload copy, per send), "materialise" what the server
// does now (fill in place behind the header + cached CRC).
func BenchmarkPaceEncode(b *testing.B) {
	sch := cacheScheme(b, 1, 3, 2)
	fc := newFrameCache(sch, testBytesPerUnit, testChunkBytes, 0)
	cc := fc.channel(0, 3)
	chunks := int(cc.total) / testChunkBytes

	b.Run("seed", func(b *testing.B) {
		payload := make([]byte, testChunkBytes)
		var frame []byte
		b.SetBytes(testChunkBytes)
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			frame = seedEncode(frame, payload, cc, n%chunks, uint32(n))
		}
	})
	b.Run("materialise", func(b *testing.B) {
		var arena frameArena
		for c := 0; c < chunks; c++ {
			fc.materialise(&arena, cc, c, 0) // warm the CRC words
		}
		b.SetBytes(testChunkBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			arena.reset()
			fc.materialise(&arena, cc, n%chunks, uint32(n))
		}
	})
}
