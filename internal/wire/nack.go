package wire

import (
	"fmt"
	"math"
)

// MaxNackBitmapBytes bounds the gap bitmap of one NACK. At 8 chunks per
// byte this covers 32768 chunks — far beyond any fragment the demo
// broadcasts — while keeping a hostile control line from ballooning the
// decode.
const MaxNackBitmapBytes = 4096

// ErrBadBitmap reports a NACK whose gap bitmap is malformed: empty,
// oversized, negative base, a base so large the bitmap's last chunk index
// would overflow, or (for a request) non-canonical with a trailing zero
// byte. It wraps ErrBadControl so existing callers that only distinguish
// truncation from garbage keep working.
var ErrBadBitmap = fmt.Errorf("%w: malformed nack gap bitmap", ErrBadControl)

// Nack reports a burst of losses on one channel in a single control
// message: a base chunk index plus a bitmap of missing chunks relative to
// it. One NACK replaces one KindRepair round trip per chunk, and the
// server answers the whole bitmap with multicast re-sends on the
// channel's broadcast group where it can.
type Nack struct {
	// Video and Channel identify the fragment, exactly as in a Join.
	Video   int `json:"video"`
	Channel int `json:"channel"`
	// Seq is the broadcast repetition the lost chunks belonged to; the
	// re-sends are patched to it so receivers filtering on their wanted
	// repetition accept them.
	Seq uint32 `json:"seq"`
	// BaseChunk is the fragment-relative index of bit 0 of the bitmap.
	BaseChunk int `json:"baseChunk"`
	// Bitmap marks missing chunks: bit i (LSB-first within each byte)
	// set means chunk BaseChunk+i is missing. In a KindNack request the
	// final byte must be non-zero (canonical form); a KindNackOK reply
	// reuses the shape to mark which chunks were accepted for multicast
	// re-send, and may be all zeros (nothing accepted: unicast fallback).
	Bitmap []byte `json:"bitmap"`
}

// validateNack enforces the bitmap invariants. Requests must be canonical
// (non-zero final byte) so two NACKs for the same gap set compare equal;
// replies may legitimately accept nothing.
func validateNack(n *Nack, request bool) error {
	switch {
	case n.BaseChunk < 0:
		return fmt.Errorf("%w: negative base chunk %d", ErrBadBitmap, n.BaseChunk)
	case len(n.Bitmap) == 0:
		return fmt.Errorf("%w: empty bitmap", ErrBadBitmap)
	case len(n.Bitmap) > MaxNackBitmapBytes:
		return fmt.Errorf("%w: %d bytes exceeds cap %d", ErrBadBitmap, len(n.Bitmap), MaxNackBitmapBytes)
	case n.BaseChunk > math.MaxInt-8*len(n.Bitmap):
		return fmt.Errorf("%w: base chunk %d overflows with a %d-byte bitmap", ErrBadBitmap, n.BaseChunk, len(n.Bitmap))
	case request && n.Bitmap[len(n.Bitmap)-1] == 0:
		return fmt.Errorf("%w: trailing zero byte (non-canonical)", ErrBadBitmap)
	}
	return nil
}

// NackFromChunks packs ascending fragment-relative chunk indices into a
// canonical Nack. The chunk list must be non-empty and sorted ascending;
// the bitmap is based at the first index so sparse gaps stay compact.
func NackFromChunks(video, channel int, seq uint32, chunks []int) *Nack {
	base := chunks[0]
	span := chunks[len(chunks)-1] - base + 1
	bm := make([]byte, (span+7)/8)
	for _, c := range chunks {
		off := c - base
		bm[off/8] |= 1 << (off % 8)
	}
	return &Nack{Video: video, Channel: channel, Seq: seq, BaseChunk: base, Bitmap: bm}
}

// Chunks expands the gap bitmap into absolute chunk indices, ascending.
func (n *Nack) Chunks() []int {
	var out []int
	for i, b := range n.Bitmap {
		for bit := 0; b != 0; bit, b = bit+1, b>>1 {
			if b&1 != 0 {
				out = append(out, n.BaseChunk+i*8+bit)
			}
		}
	}
	return out
}

// Has reports whether the bitmap marks the given absolute chunk index.
func (n *Nack) Has(chunk int) bool {
	off := chunk - n.BaseChunk
	if off < 0 || off/8 >= len(n.Bitmap) {
		return false
	}
	return n.Bitmap[off/8]&(1<<(off%8)) != 0
}

// Set marks the given absolute chunk index in the bitmap, if in range.
func (n *Nack) Set(chunk int) {
	off := chunk - n.BaseChunk
	if off < 0 || off/8 >= len(n.Bitmap) {
		return
	}
	n.Bitmap[off/8] |= 1 << (off % 8)
}
