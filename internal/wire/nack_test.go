package wire

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestNackChunksRoundTrip: packing a chunk list and expanding the bitmap
// are inverses, for dense bursts, sparse gaps, and byte-boundary spans.
func TestNackChunksRoundTrip(t *testing.T) {
	for _, chunks := range [][]int{
		{0},
		{5},
		{3, 4, 9},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 8},    // exactly two bytes
		{7, 8},    // straddles a byte boundary
		{10, 100}, // sparse: bitmap still based at the first index
	} {
		n := NackFromChunks(1, 2, 7, chunks)
		if n.BaseChunk != chunks[0] {
			t.Errorf("NackFromChunks(%v).BaseChunk = %d, want %d", chunks, n.BaseChunk, chunks[0])
		}
		if err := validateNack(n, true); err != nil {
			t.Errorf("NackFromChunks(%v) not canonical: %v", chunks, err)
		}
		if got := n.Chunks(); !reflect.DeepEqual(got, chunks) {
			t.Errorf("Chunks() = %v, want %v", got, chunks)
		}
		for _, c := range chunks {
			if !n.Has(c) {
				t.Errorf("Has(%d) = false after packing %v", c, chunks)
			}
		}
		if n.Has(chunks[0]-1) || n.Has(chunks[len(chunks)-1]+1) {
			t.Errorf("Has reports chunks outside %v", chunks)
		}
	}
}

// TestNackSet: Set marks in-range chunks and ignores out-of-range ones
// (the server builds its accepted reply this way on a zeroed same-shape
// bitmap).
func TestNackSet(t *testing.T) {
	n := &Nack{BaseChunk: 3, Bitmap: make([]byte, 2)}
	n.Set(3)
	n.Set(10)
	n.Set(2)  // below base: ignored
	n.Set(19) // past the bitmap: ignored
	if got, want := n.Chunks(), []int{3, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("Chunks() = %v, want %v", got, want)
	}
}

// TestNackDecodeRejectsMalformed: the control decoder rejects malformed
// gap bitmaps with the typed ErrBadBitmap, and ErrBadControl still covers
// them for callers that only classify.
func TestNackDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"missing payload", `{"kind":"nack"}`},
		{"empty bitmap", `{"kind":"nack","nack":{"video":1,"channel":2,"bitmap":""}}`},
		{"negative base", `{"kind":"nack","nack":{"baseChunk":-1,"bitmap":"AQ=="}}`},
		{"trailing zero", `{"kind":"nack","nack":{"baseChunk":0,"bitmap":"AQA="}}`},
		{"oversized", fmt.Sprintf(`{"kind":"nack","nack":{"baseChunk":0,"bitmap":"%s"}}`,
			base64Bytes(MaxNackBitmapBytes+1))},
		// MaxInt64-7 + bit 8: the last chunk index would wrap negative.
		{"overflowing base", `{"kind":"nack","nack":{"video":0,"channel":1,"baseChunk":9223372036854775800,"bitmap":"AAE="}}`},
		{"reply missing payload", `{"kind":"nackok"}`},
		{"reply negative base", `{"kind":"nackok","nack":{"baseChunk":-1,"bitmap":"AQ=="}}`},
	}
	for _, tc := range cases {
		_, err := ReadControl(bufio.NewReader(strings.NewReader(tc.line + "\n")))
		if err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.line)
			continue
		}
		if !errors.Is(err, ErrBadControl) {
			t.Errorf("%s: error %v does not wrap ErrBadControl", tc.name, err)
		}
		if tc.name != "missing payload" && tc.name != "reply missing payload" && !errors.Is(err, ErrBadBitmap) {
			t.Errorf("%s: error %v does not wrap ErrBadBitmap", tc.name, err)
		}
	}
}

// TestNackReplyAllZerosAccepted: a KindNackOK reply may accept nothing —
// the all-zero bitmap is the unicast-fallback signal, not an error.
func TestNackReplyAllZerosAccepted(t *testing.T) {
	var buf bytes.Buffer
	reply := &Control{Kind: KindNackOK, Nack: &Nack{Video: 1, Channel: 2, Seq: 7, BaseChunk: 3, Bitmap: []byte{0, 0}}}
	if err := WriteControl(&buf, reply); err != nil {
		t.Fatal(err)
	}
	m, err := ReadControl(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("all-zero accepted bitmap rejected: %v", err)
	}
	if len(m.Nack.Chunks()) != 0 {
		t.Errorf("all-zero bitmap expands to %v, want none", m.Nack.Chunks())
	}
	for _, c := range []int{2, 3, 4, 18} {
		if m.Nack.Has(c) {
			t.Errorf("Has(%d) = true on an all-zero bitmap", c)
		}
	}
}

// base64Bytes returns the standard-base64 encoding of n 0x01 bytes, for
// building oversized-bitmap JSON.
func base64Bytes(n int) string {
	return base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{1}, n))
}
