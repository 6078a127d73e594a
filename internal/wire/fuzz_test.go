package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary frames to the chunk decoder: it must never
// panic, and anything it accepts must re-encode to the identical frame.
// `go test` runs the seed corpus; `go test -fuzz=FuzzDecode` explores.
func FuzzDecode(f *testing.F) {
	good, err := (&Chunk{Video: 1, Channel: 2, Seq: 3, Offset: 4, Total: 99, Payload: []byte("seed")}).Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:headerSize])
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		re, err := c.Encode(nil)
		if err != nil {
			t.Fatalf("accepted chunk failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not idempotent:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzChunkDecode fuzzes the data-chunk decoder through the full cached-
// frame life cycle: any accepted frame must survive Encode → PatchSeq →
// Decode with only the Seq field changed — the property the server's
// repetition-invariant frame cache rests on. Seeds cover the boundary
// payload sizes (0, 1, MaxPayload) plus KindParity frames, which share
// the header layout: the data decoder must reject them (reserved byte),
// the parity decoder must accept them, and an accepted parity frame
// must survive the same encode → PatchSeq → decode cycle, since parity
// frames live in the same cache and ride the same batched egress.
func FuzzChunkDecode(f *testing.F) {
	for _, n := range []int{0, 1, MaxPayload} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		frame, err := (&Chunk{Video: 1, Channel: 2, Seq: 3, Offset: 4, Total: uint32(n), Payload: payload}).Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, uint32(n)*7)
	}
	for _, count := range []int{1, 8, MaxFecGroup} {
		payload := AppendParityPayload(nil, count, bytes.Repeat([]byte{0x5A}, 64))
		frame, err := EncodeParityFrame(nil, 1, 2, 3, 4096, 65536, 0, payload, PayloadCRC(payload))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, uint32(count)*11)
	}
	f.Add([]byte{}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xA5}, headerSize), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, seq uint32) {
		if p, err := DecodeParity(data); err == nil {
			if _, err := Decode(data); err == nil {
				t.Fatal("frame accepted as both data chunk and parity")
			}
			re, err := EncodeParityFrame(nil, p.Video, p.Channel, p.Seq, p.Base, p.Total, p.Index, data[headerSize:], PayloadCRC(data[headerSize:]))
			if err != nil {
				t.Fatalf("accepted parity failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("parity decode/encode not idempotent:\n in: %x\nout: %x", data, re)
			}
			if err := PatchSeq(re, seq); err != nil {
				t.Fatalf("PatchSeq on a fresh parity encode: %v", err)
			}
			got, err := DecodeParity(re)
			if err != nil {
				t.Fatalf("patched parity stopped decoding: %v", err)
			}
			if got.Seq != seq {
				t.Fatalf("patched parity Seq = %d, want %d", got.Seq, seq)
			}
			if got.Video != p.Video || got.Channel != p.Channel || got.Base != p.Base ||
				got.Total != p.Total || got.Index != p.Index || got.Count != p.Count ||
				!bytes.Equal(got.Bitmap, p.Bitmap) || !bytes.Equal(got.Block, p.Block) {
				t.Fatalf("PatchSeq disturbed a non-Seq parity field: %+v vs %+v", got, p)
			}
		}
		c, err := Decode(data)
		if err != nil {
			// Rejected frames must also be rejected by the patcher unless
			// only their payload is damaged (PatchSeq never reads it).
			return
		}
		if IsParity(data) {
			t.Fatal("data decoder accepted a parity-marked frame")
		}
		re, err := c.Encode(nil)
		if err != nil {
			t.Fatalf("accepted chunk failed to re-encode: %v", err)
		}
		if err := PatchSeq(re, seq); err != nil {
			t.Fatalf("PatchSeq on a fresh encode: %v", err)
		}
		got, err := Decode(re)
		if err != nil {
			t.Fatalf("patched frame stopped decoding: %v", err)
		}
		if got.Seq != seq {
			t.Fatalf("patched Seq = %d, want %d", got.Seq, seq)
		}
		if got.Video != c.Video || got.Channel != c.Channel || got.Offset != c.Offset ||
			got.Total != c.Total || !bytes.Equal(got.Payload, c.Payload) {
			t.Fatalf("PatchSeq disturbed a non-Seq field: %+v vs %+v", got, c)
		}
	})
}

// FuzzControlDecode fuzzes the control-verb parse path the server's
// handler loop runs on every request line, mirroring FuzzChunkDecode: any
// accepted message — truncated, garbage, or hostile field values — must
// survive a canonical re-encode (WriteControl) and re-decode to the
// identical message, so nothing a peer can say desynchronizes the two
// ends' view of a verb. Seeded with every control kind, including the
// Busy admission reply.
func FuzzControlDecode(f *testing.F) {
	seeds := []*Control{
		{Kind: KindHello},
		{Kind: KindWelcome, Welcome: &Welcome{Videos: 2, ChannelsPerVideo: 5, Width: 2,
			UnitNanos: 8e7, EpochUnixNano: 1234, SizeUnits: []int64{1, 2, 2, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024}},
		// KindParity is a data-plane frame kind, not a control verb, but
		// the capability that announces it travels here: seed the Welcome
		// that advertises each stripe mode.
		{Kind: KindWelcome, Welcome: &Welcome{Videos: 1, ChannelsPerVideo: 3, Width: 2,
			UnitNanos: 8e7, EpochUnixNano: 1234, SizeUnits: []int64{1, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024,
			NackRepair: true, FecGroup: 8, FecMode: FecModeXOR}},
		{Kind: KindWelcome, Welcome: &Welcome{Videos: 1, ChannelsPerVideo: 3, Width: 2,
			UnitNanos: 8e7, EpochUnixNano: 1234, SizeUnits: []int64{1, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024,
			NackRepair: true, FecGroup: 16, FecMode: FecModeRS}},
		{Kind: KindJoin, Video: 1, Channel: 2, Port: 45678},
		{Kind: KindJoined, Video: 1, Channel: 2},
		{Kind: KindLeave, Video: 1, Channel: 2},
		{Kind: KindError, Error: "join: no channel 9/9"},
		{Kind: KindBye},
		{Kind: KindStats},
		{Kind: KindStatsOK, Stats: &Stats{UptimeNanos: 5, DatagramsSent: 6, Channels: 7, Members: 8,
			RepairsServed: 9, RepairBytes: 10, BusyReplies: 11, StormResends: 12, SuppressedRepairs: 13,
			RepairTokens: 14, PacerRestarts: 15, PacerDriftEvents: 16, Draining: true}},
		{Kind: KindRepair, Repair: &Repair{Video: 1, Channel: 2, Seq: 7, Offset: 1024, Length: 512}},
		{Kind: KindRepairOK, Repair: &Repair{Video: 1, Channel: 2, Seq: 7, Offset: 1024, Length: 4, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}},
		{Kind: KindBusy, RetryAfterNanos: 25e6},
		{Kind: KindBusy}, // Busy(0): re-listen after a coalesced multicast re-send
		{Kind: KindNack, Nack: NackFromChunks(1, 2, 7, []int{3, 4, 9})},
		{Kind: KindNackOK, Nack: &Nack{Video: 1, Channel: 2, Seq: 7, BaseChunk: 3, Bitmap: []byte{0x43}}},
		{Kind: KindNackOK, Nack: &Nack{Video: 1, Channel: 2, Seq: 7, BaseChunk: 3, Bitmap: []byte{0, 0}}}, // nothing accepted
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteControl(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"kind":"busy","retryAfterNanos":-1}` + "\n"))
	f.Add([]byte(`{"kind":"repair"`)) // truncated mid-message
	f.Add([]byte(`{"kind":"repair","repair":{"offset":-9223372036854775808,"length":-1}}` + "\n"))
	// Malformed gap bitmaps: missing payload, empty, non-canonical
	// trailing zero, negative base, a base whose last chunk index overflows
	// (it once crashed the server), oversized. All must be rejected with a
	// typed error, never accepted or panicked on.
	f.Add([]byte(`{"kind":"nack"}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":1,"channel":2,"bitmap":""}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":1,"channel":2,"baseChunk":0,"bitmap":"AQA="}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"baseChunk":-1,"bitmap":"AQ=="}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":0,"channel":1,"baseChunk":9223372036854775800,"bitmap":"AAE="}}` + "\n"))
	f.Add([]byte(`{"kind":"nackok","nack":{"baseChunk":3,"bitmap":"AAA="}}` + "\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte("{}\n"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A binary KindParity frame arriving on the control line is garbage
	// to this parser; it must be rejected, never mis-parsed.
	parityPayload := AppendParityPayload(nil, 8, bytes.Repeat([]byte{0x5A}, 32))
	if parityFrame, err := EncodeParityFrame(nil, 1, 2, 3, 0, 65536, 0, parityPayload, PayloadCRC(parityPayload)); err == nil {
		f.Add(append(parityFrame, '\n'))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadControl(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if m.Kind == "" {
			t.Fatal("accepted a kindless control message")
		}
		var buf bytes.Buffer
		if err := WriteControl(&buf, m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		again, err := ReadControl(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("canonical re-encode stopped decoding: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decode/encode/decode not idempotent:\n 1st: %+v\n 2nd: %+v", m, again)
		}
	})
}

// FuzzReadControl feeds arbitrary lines to the control decoder: no panics,
// and accepted messages must carry a kind.
func FuzzReadControl(f *testing.F) {
	f.Add([]byte(`{"kind":"hello"}` + "\n"))
	f.Add([]byte(`{"kind":"join","video":1,"channel":2,"port":3}` + "\n"))
	f.Add([]byte(`{"kind":"repair","repair":{"video":1,"channel":2,"seq":7,"offset":1024,"length":512}}` + "\n"))
	f.Add([]byte(`{"kind":"repairok","repair":{"video":1,"channel":2,"seq":7,"offset":1024,"length":4,"data":"3q2+7w=="}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":1,"channel":2,"seq":7,"baseChunk":3,"bitmap":"Qw=="}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"baseChunk":-1,"bitmap":"AQ=="}}` + "\n"))
	f.Add([]byte(`{"kind":"repair","repair":{"offset":-9223372036854775808,"length":-1}}` + "\n"))
	f.Add([]byte(`{"kind":"repair"`)) // truncated mid-message
	f.Add([]byte("garbage\n"))
	f.Add([]byte("{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadControl(bufio.NewReader(bytes.NewReader(data)))
		if err == nil && m.Kind == "" {
			t.Fatal("accepted a kindless control message")
		}
	})
}
