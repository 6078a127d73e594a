package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestChunkRoundTrip(t *testing.T) {
	c := Chunk{Video: 3, Channel: 7, Seq: 42, Offset: 1024, Total: 9000, Payload: []byte("fragment data")}
	frame, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != EncodedSize(len(c.Payload)) {
		t.Errorf("frame %d bytes, want %d", len(frame), EncodedSize(len(c.Payload)))
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Video != c.Video || got.Channel != c.Channel || got.Seq != c.Seq ||
		got.Offset != c.Offset || got.Total != c.Total || !bytes.Equal(got.Payload, c.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	f := func(video, channel uint16, seq, offset, total uint32, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		c := Chunk{Video: video, Channel: channel, Seq: seq, Offset: offset, Total: total, Payload: payload}
		frame, err := c.Encode(nil)
		if err != nil {
			return false
		}
		got, err := Decode(frame)
		if err != nil {
			return false
		}
		return got.Video == video && got.Channel == channel && got.Seq == seq &&
			got.Offset == offset && got.Total == total && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeAppends(t *testing.T) {
	c := Chunk{Payload: []byte("xyz")}
	prefix := []byte("prefix")
	frame, err := c.Encode(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(frame, []byte("prefix")) {
		t.Error("Encode did not append to dst")
	}
	if _, err := Decode(frame[len(prefix):]); err != nil {
		t.Errorf("appended frame does not decode: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := (&Chunk{Payload: []byte("data")}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Decode(good[:10]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame: %v", err)
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[2] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	// Corrupt payload byte: CRC must catch it.
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corruption: %v", err)
	}

	// Truncated payload: length disagreement.
	if _, err := Decode(good[:len(good)-2]); !errors.Is(err, ErrBadLength) {
		t.Errorf("truncation: %v", err)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	c := Chunk{Payload: make([]byte, MaxPayload+1)}
	if _, err := c.Encode(nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: %v", err)
	}
}

func TestControlRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Control{
		{Kind: KindHello},
		{Kind: KindWelcome, Welcome: &Welcome{
			Videos: 10, ChannelsPerVideo: 6, Width: 12,
			UnitNanos: 50e6, EpochUnixNano: 12345,
			SizeUnits: []int64{1, 2, 2, 5, 5, 12}, BytesPerUnit: 4096, ChunkBytes: 1024,
		}},
		{Kind: KindJoin, Video: 2, Channel: 3, Port: 40001},
		{Kind: KindJoined, Video: 2, Channel: 3},
		{Kind: KindLeave, Video: 2, Channel: 3},
		{Kind: KindError, Error: "no such video"},
		{Kind: KindBye},
	}
	for _, m := range msgs {
		if err := WriteControl(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := ReadControl(r)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Video != want.Video || got.Channel != want.Channel ||
			got.Port != want.Port || got.Error != want.Error {
			t.Errorf("message %d: %+v vs %+v", i, got, want)
		}
		if want.Welcome != nil {
			if got.Welcome == nil || got.Welcome.ChannelsPerVideo != 6 || len(got.Welcome.SizeUnits) != 6 {
				t.Errorf("welcome payload lost: %+v", got.Welcome)
			}
		}
	}
}

func TestReadControlRejectsGarbage(t *testing.T) {
	r := bufio.NewReader(bytes.NewBufferString("not json\n"))
	if _, err := ReadControl(r); !errors.Is(err, ErrBadControl) {
		t.Errorf("garbage: got %v, want ErrBadControl", err)
	}
	r = bufio.NewReader(bytes.NewBufferString("{}\n"))
	if _, err := ReadControl(r); !errors.Is(err, ErrBadControl) {
		t.Errorf("kindless message: got %v, want ErrBadControl", err)
	}
}

func TestReadControlTruncated(t *testing.T) {
	// A line cut off before its newline is a connection dying mid-message:
	// callers should see ErrTruncated, distinct from a clean EOF.
	r := bufio.NewReader(bytes.NewBufferString(`{"kind":"hel`))
	if _, err := ReadControl(r); !errors.Is(err, ErrTruncated) {
		t.Errorf("mid-line cut: got %v, want ErrTruncated", err)
	}
	// Clean EOF between messages passes through untouched.
	r = bufio.NewReader(bytes.NewBufferString(""))
	if _, err := ReadControl(r); !errors.Is(err, io.EOF) {
		t.Errorf("clean close: got %v, want io.EOF", err)
	}
}

// endlessLine is a peer that never sends a newline and refuses to be read
// past limit bytes, noting the attempt.
type endlessLine struct {
	read, limit int
	overRead    bool
}

func (e *endlessLine) Read(p []byte) (int, error) {
	if e.read >= e.limit {
		e.overRead = true
		return 0, errors.New("read past the control line cap plus one buffer")
	}
	n := min(len(p), e.limit-e.read)
	for i := range p[:n] {
		p[i] = 'x'
	}
	e.read += n
	return n, nil
}

// TestReadControlLineCap: a line with no newline in sight is cut off at
// MaxControlLine — read at most one buffer past it — as a connection
// error, not ErrBadControl: the stream's framing is lost. A line of
// exactly MaxControlLine bytes still decodes.
func TestReadControlLineCap(t *testing.T) {
	const buf = 4096
	peer := &endlessLine{limit: MaxControlLine + buf}
	_, err := ReadControl(bufio.NewReaderSize(peer, buf))
	if peer.overRead || !errors.Is(err, ErrControlTooLong) || errors.Is(err, ErrBadControl) {
		t.Fatalf("endless line: got %v after %d bytes, want ErrControlTooLong", err, peer.read)
	}
	hello := `{"kind":"hello"}`
	line := hello + strings.Repeat(" ", MaxControlLine-len(hello)-1) + "\n"
	if m, err := ReadControl(bufio.NewReader(strings.NewReader(line))); err != nil || m.Kind != KindHello {
		t.Fatalf("line of exactly MaxControlLine bytes: %v %v", m, err)
	}
	if _, err := ReadControl(bufio.NewReader(strings.NewReader(" " + line))); !errors.Is(err, ErrControlTooLong) {
		t.Fatalf("line one byte over the cap: %v, want ErrControlTooLong", err)
	}
}

func TestRepairRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Control{Kind: KindRepair, Repair: &Repair{
		Video: 4, Channel: 2, Seq: 17, Offset: 3072, Length: 1024,
	}}
	reply := &Control{Kind: KindRepairOK, Repair: &Repair{
		Video: 4, Channel: 2, Seq: 17, Offset: 3072, Length: 1024,
		Data: bytes.Repeat([]byte{0xAB, 0x5C}, 512),
	}}
	for _, m := range []*Control{req, reply} {
		if err := WriteControl(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range []*Control{req, reply} {
		got, err := ReadControl(r)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Repair == nil {
			t.Fatalf("message %d: %+v vs %+v", i, got, want)
		}
		gr, wr := got.Repair, want.Repair
		if gr.Video != wr.Video || gr.Channel != wr.Channel || gr.Seq != wr.Seq ||
			gr.Offset != wr.Offset || gr.Length != wr.Length || !bytes.Equal(gr.Data, wr.Data) {
			t.Errorf("message %d repair payload: %+v vs %+v", i, gr, wr)
		}
	}
}

func TestPeekID(t *testing.T) {
	c := Chunk{Video: 9, Channel: 3, Seq: 1234, Offset: 4096, Total: 8192, Payload: []byte("peek")}
	frame, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	video, channel, seq, offset, ok := PeekID(frame)
	if !ok || video != c.Video || channel != c.Channel || seq != c.Seq || offset != c.Offset {
		t.Errorf("PeekID = %d/%d seq %d off %d ok=%v, want %d/%d seq %d off %d",
			video, channel, seq, offset, ok, c.Video, c.Channel, c.Seq, c.Offset)
	}
	if _, _, _, _, ok := PeekID(frame[:headerSize-1]); ok {
		t.Error("PeekID accepted a short frame")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 0xFF
	if _, _, _, _, ok := PeekID(bad); ok {
		t.Error("PeekID accepted a bad magic")
	}
}

func TestPatchSeq(t *testing.T) {
	c := Chunk{Video: 5, Channel: 2, Seq: 0, Offset: 2048, Total: 8192, Payload: []byte("repetition-invariant")}
	frame, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint32{0, 1, 7, 1<<32 - 1} {
		if err := PatchSeq(frame, seq); err != nil {
			t.Fatalf("PatchSeq(%d): %v", seq, err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode after PatchSeq(%d): %v", seq, err)
		}
		if got.Seq != seq {
			t.Errorf("Seq = %d, want %d", got.Seq, seq)
		}
		// Everything but Seq is untouched.
		want := c
		want.Seq = seq
		ref, err := want.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, ref) {
			t.Errorf("patched frame diverges from a fresh encode at seq %d", seq)
		}
	}
}

func TestPatchSeqRejectsBadFrames(t *testing.T) {
	good, err := (&Chunk{Payload: []byte("x")}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchSeq(good[:headerSize-1], 1); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if err := PatchSeq(bad, 1); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[2] = 9
	if err := PatchSeq(bad, 1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

// TestPutHeaderMatchesEncode pins the in-place header encoder against the
// appending ones: a header written by PutHeader in front of a payload the
// caller placed itself is byte-identical to Encode / EncodeParityFrame of
// the same fields, for data and for parity, and costs no allocation.
func TestPutHeaderMatchesEncode(t *testing.T) {
	payload := []byte("built in place, behind its header")
	for _, kind := range []byte{KindData, KindParity} {
		for _, seq := range []uint32{0, 7, 1<<32 - 1} {
			var ref []byte
			var err error
			if kind == KindData {
				c := Chunk{Video: 5, Channel: 2, Seq: seq, Offset: 2048, Total: 8192, Payload: payload}
				ref, err = c.Encode(nil)
			} else {
				ref, err = EncodeParityFrame(nil, 5, 2, seq, 2048, 8192, 0, payload, PayloadCRC(payload))
			}
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, EncodedSize(len(payload)))
			copy(got[HeaderSize:], payload)
			PutHeader(got, kind, 5, 2, seq, 2048, 8192, len(payload), PayloadCRC(payload))
			if !bytes.Equal(got, ref) {
				t.Errorf("kind %#02x seq %d: in-place frame diverges from the appending encoder", kind, seq)
			}
		}
	}
	frame := make([]byte, EncodedSize(len(payload)))
	if allocs := testing.AllocsPerRun(100, func() {
		PutHeader(frame, KindData, 5, 2, 3, 2048, 8192, len(payload), 0)
	}); allocs != 0 {
		t.Errorf("PutHeader = %v allocs, want 0", allocs)
	}
}

func TestEncodeWithCRC(t *testing.T) {
	c := Chunk{Video: 1, Channel: 4, Seq: 3, Offset: 512, Total: 4096, Payload: []byte("cached crc")}
	ref, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EncodeWithCRC(nil, PayloadCRC(c.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("EncodeWithCRC(PayloadCRC(p)) differs from Encode")
	}
	// A stale CRC produces a frame the decoder rejects — the contract that
	// keeps cache bugs loud.
	stale, err := c.EncodeWithCRC(nil, PayloadCRC(c.Payload)+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(stale); !errors.Is(err, ErrBadCRC) {
		t.Errorf("mismatched CRC decoded: %v", err)
	}
	if _, err := c.EncodeWithCRC(nil, 0); err != nil {
		t.Fatal(err)
	}
	big := Chunk{Payload: make([]byte, MaxPayload+1)}
	if _, err := big.EncodeWithCRC(nil, 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: %v", err)
	}
}

func TestDecodeRejectsReservedByte(t *testing.T) {
	good, err := (&Chunk{Payload: []byte("x")}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[3] = 1
	if _, err := Decode(bad); !errors.Is(err, ErrBadReserved) {
		t.Errorf("reserved byte: %v", err)
	}
}
