package wire

import (
	"bufio"
	"bytes"
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
	for _, n := range []int{1, 8, 64} {
		block := bytes.Repeat([]byte{0x5A}, n)
		frame, err := EncodeParityFrame(nil, 1, 2, 3, 4096, 65536, 0, block, PayloadCRC(block))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, uint32(n)*11)
	}
	f.Add([]byte{}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xA5}, headerSize), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, seq uint32) {
		if p, err := DecodeParity(data); err == nil {
			if _, err := Decode(data); err == nil {
				t.Fatal("frame accepted as both data chunk and parity")
			}
			re, err := EncodeParityFrame(nil, p.Video, p.Channel, p.Seq, p.Base, p.Total, 0, p.Block, PayloadCRC(p.Block))
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
				got.Total != p.Total || !bytes.Equal(got.Block, p.Block) {
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
