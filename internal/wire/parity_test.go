package wire

import (
	"bytes"
	"errors"
	"testing"
)

func mustParityFrame(t testing.TB, block []byte) []byte {
	t.Helper()
	frame, err := EncodeParityFrame(nil, 3, 2, 7, 8192, 65536, 0, block, PayloadCRC(block))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestParityRoundTrip: a parity frame is the header and the block, as
// long as a data frame of the block's size, and decodes back to its
// fields.
func TestParityRoundTrip(t *testing.T) {
	block := bytes.Repeat([]byte{0xC3}, 1024)
	frame := mustParityFrame(t, block)
	if !IsParity(frame) {
		t.Fatal("IsParity = false on an encoded parity frame")
	}
	if len(frame) != EncodedSize(len(block)) {
		t.Fatalf("parity frame %d bytes, a data frame of its block %d", len(frame), EncodedSize(len(block)))
	}
	p, err := DecodeParity(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Video != 3 || p.Channel != 2 || p.Seq != 7 || p.Base != 8192 || p.Total != 65536 {
		t.Fatalf("header fields: %+v", p)
	}
	if !bytes.Equal(p.Block, block) {
		t.Fatalf("block: %d bytes back", len(p.Block))
	}
}

// TestParityRejectedByDataDecoder pins the compatibility story: a parity
// frame presented to the data-chunk decoder fails with ErrBadReserved
// (old receivers drop it as garbage rather than mis-parse it), and the
// identity peek the mux routes on still works.
func TestParityRejectedByDataDecoder(t *testing.T) {
	frame := mustParityFrame(t, make([]byte, 64))
	if _, err := Decode(frame); !errors.Is(err, ErrBadReserved) {
		t.Fatalf("Decode(parity) = %v, want ErrBadReserved", err)
	}
	video, channel, seq, offset, ok := PeekID(frame)
	if !ok || video != 3 || channel != 2 || seq != 7 || offset != 8192 {
		t.Fatalf("PeekID(parity) = %d/%d seq %d off %d ok %v", video, channel, seq, offset, ok)
	}
	if err := PatchSeq(frame, 42); err != nil {
		t.Fatal(err)
	}
	p, err := DecodeParity(frame)
	if err != nil || p.Seq != 42 {
		t.Fatalf("after PatchSeq: seq %d err %v", p.Seq, err)
	}
	if IsParity(make([]byte, HeaderSize)) {
		t.Fatal("IsParity accepted an all-zero header")
	}
}

// TestParityDecodeRejectsMalformed: the parity decoder checks what any
// frame's decoder checks — length and CRC — and that the parity index is
// 0; the encoder refuses any other index.
func TestParityDecodeRejectsMalformed(t *testing.T) {
	good := mustParityFrame(t, make([]byte, 32))
	cases := map[string]func() []byte{
		"parity index 1": func() []byte {
			f := append([]byte(nil), good...)
			f[3] = KindParity | 1
			return f
		},
		"parity index 15": func() []byte {
			f := append([]byte(nil), good...)
			f[3] = KindParity | 15
			return f
		},
		"length says more": func() []byte {
			f := append([]byte(nil), good...)
			f[23]++
			return f
		},
		"frame carries more": func() []byte { return append(append([]byte(nil), good...), 0) },
		"short header":       func() []byte { return good[:HeaderSize-1] },
		"bad crc": func() []byte {
			f := append([]byte(nil), good...)
			f[len(f)-1] ^= 1
			return f
		},
	}
	for name, mk := range cases {
		if _, err := DecodeParity(mk()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeParity(good); err != nil {
		t.Fatalf("the unaltered frame: %v", err)
	}
	if _, err := EncodeParityFrame(nil, 1, 1, 0, 0, 0, 1, []byte{1, 1, 0}, 0); err == nil {
		t.Error("encoder accepted parity index 1")
	}
}

// TestParityCount pins the coverage the sender and the receiver both
// derive from the stripe geometry: a full group is G chunks, the
// fragment's tail group what is left, and a base that is not a group
// start inside the fragment covers nothing.
func TestParityCount(t *testing.T) {
	for _, cb := range []int{1024, 4096, MaxPayload} {
		for _, g := range []int{2, 4, 64} {
			span := uint32(g * cb)
			for _, nchunks := range []int{1, g - 1, g, g + 1, 3*g + 1, 5 * g} {
				if nchunks <= 0 {
					continue
				}
				total := uint32(nchunks * cb)
				covered := 0
				for base := uint32(0); base < total; base += span {
					n := ParityCount(base, total, g, cb)
					if want := min(g, nchunks-int(base)/cb); n != want {
						t.Fatalf("cb %d G %d %d chunks: group at %d covers %d, want %d", cb, g, nchunks, base, n, want)
					}
					covered += n
				}
				if covered != nchunks {
					t.Fatalf("cb %d G %d: groups cover %d of %d chunks", cb, g, covered, nchunks)
				}
				for _, base := range []uint32{total, total + span, uint32(cb), span + uint32(cb)/2} {
					if base%span != 0 || base >= total {
						if n := ParityCount(base, total, g, cb); n != 0 {
							t.Fatalf("cb %d G %d %d chunks: base %d covers %d, want 0", cb, g, nchunks, base, n)
						}
					}
				}
			}
		}
	}
	if ParityCount(0, 4096, 0, 1024) != 0 || ParityCount(0, 4096, 4, 0) != 0 {
		t.Fatal("a degenerate geometry covers chunks")
	}
}

// TestXorAccum holds the word-at-a-time fold to a byte-wise reference.
func TestXorAccum(t *testing.T) {
	dst := make([]byte, 37) // odd length exercises the word/byte split
	src := make([]byte, 37)
	ref := make([]byte, 37)
	for i := range src {
		src[i] = byte(i * 7)
		dst[i] = byte(i * 13)
		ref[i] = dst[i] ^ src[i]
	}
	XorAccum(dst, src)
	if !bytes.Equal(dst, ref) {
		t.Fatal("XorAccum disagrees with byte-wise reference")
	}
}
