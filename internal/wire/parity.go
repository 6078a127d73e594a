// Proactive FEC parity frames. The broadcast interleaves one parity
// frame per transmission group of G data chunks so a receiver heals a
// single lost datagram locally — no control round trip, no server
// re-send — and only burst loss that defeats the stripe escalates to
// the NACK ladder.
//
// A parity frame is a data frame in every dimension but one: the same
// 28-byte header, and a payload exactly one chunk long — the XOR of the
// payloads of the chunks its group covers. The reserved pad byte
// (frame[3]), which Decode requires to be zero for data chunks, is the
// frame-kind discriminator: KindParity. Offset carries the byte offset
// of the group's first data chunk (the group base), Total the fragment
// size, Length and CRC the block exactly as for data. Because PeekID
// ignores the reserved byte and the CRC excludes Seq, a parity frame
// enjoys the exact affordances of a data frame: one payload CRC that
// serves every repetition, identity peeking on the mux-routing path, a
// place in the same batched egress dispatch and — being the same length
// — in the same GSO super-frame as the data frames around it. Old
// receivers reject parity frames with ErrBadReserved rather than
// mis-parsing them as data.
//
// The frame does not say which chunks it covers: the sender and the
// receiver both know the group base, the fragment size, the stripe width
// and the chunk size, and ParityCount computes the coverage from them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// KindParity is the reserved header byte of a parity frame. IsParity
// matches its high nibble; the low nibble is the parity index, and only
// index 0, the XOR parity, is defined: DecodeParity rejects any other.
const KindParity = 0x50

// parityKindMask extracts the frame-kind nibble from the reserved byte.
const parityKindMask = 0xF0

// MaxFecGroup bounds the stripe width G: the receiver's stripe tracks a
// group's arrivals in one uint64 bitmap.
const MaxFecGroup = 64

// ErrBadParity reports a frame whose parity-kind byte is set but that is
// not a parity frame this package defines.
var ErrBadParity = errors.New("wire: malformed parity frame")

// Parity is one decoded parity frame.
type Parity struct {
	// Video and Channel identify the fragment, exactly as in a Chunk.
	Video   uint16
	Channel uint16
	// Seq is the broadcast repetition, patched per re-send like a data
	// chunk's.
	Seq uint32
	// Base is the byte offset of the group's first data chunk.
	Base uint32
	// Total is the full fragment size in bytes.
	Total uint32
	// Count is always 0: the frame does not carry its coverage, which
	// ParityCount computes. Kept for benchmark/harness, which reads it;
	// the harness follow-up of ROADMAP item 3(c) deletes it.
	Count int
	// Block is the XOR of the covered chunk payloads. Aliases the decoded
	// frame.
	Block []byte
}

// ParityCount is how many data chunks the parity frame of the stripe
// group starting at byte offset base covers, in a fragment of total bytes
// cut into chunkBytes-byte chunks under a stripe of width group: group,
// or what is left of the fragment for its tail group. It is 0 when base
// is not the start of a group inside the fragment — a frame no sender of
// that geometry emits.
func ParityCount(base, total uint32, group, chunkBytes int) int {
	if group <= 0 || chunkBytes <= 0 || base >= total || int64(base)%(int64(group)*int64(chunkBytes)) != 0 {
		return 0
	}
	return min(int((total-base)/uint32(chunkBytes)), group)
}

// ParityOverhead returns blockBytes: a parity frame's payload is its
// block alone. Kept for benchmark/harness, which sizes its receive
// buffer with it; the harness follow-up of ROADMAP item 3(c) deletes it.
func ParityOverhead(count, blockBytes int) int { return blockBytes }

// IsParity reports whether an encoded frame carries the parity kind
// marker. Like PeekID it trusts only magic and version; a true return
// means DecodeParity is the right parser, not that the frame is valid.
func IsParity(frame []byte) bool {
	return len(frame) >= headerSize &&
		binary.BigEndian.Uint16(frame[0:]) == Magic &&
		frame[2] == Version &&
		frame[3]&parityKindMask == KindParity
}

// EncodeParityFrame appends the wire form of a parity frame to dst; the
// payload is the parity block, and crc is PayloadCRC(payload),
// precomputed so re-sending the group costs no checksum work (same as
// Chunk.EncodeWithCRC). index must be 0. Kept with this signature for
// benchmark/harness; the harness follow-up of ROADMAP item 3(c) drops index.
func EncodeParityFrame(dst []byte, video, channel uint16, seq, base, total uint32, index uint8, payload []byte, crc uint32) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if index != 0 {
		return nil, fmt.Errorf("%w: parity index %d", ErrBadParity, index)
	}
	var h [headerSize]byte
	PutHeader(h[:], KindParity, video, channel, seq, base, total, len(payload), crc)
	dst = append(dst, h[:]...)
	return append(dst, payload...), nil
}

// AppendParityPayload appends the parity payload — the block itself — to
// dst; count is ignored. Kept for benchmark/harness; the harness
// follow-up of ROADMAP item 3(c) deletes it.
func AppendParityPayload(dst []byte, count int, block []byte) []byte {
	return append(dst, block...)
}

// DecodeParity parses a parity frame. The returned Block aliases frame;
// copy it if the buffer will be reused. It checks what Decode checks of
// any frame — magic, version, kind, length, CRC — and that the parity
// index is 0; whether the frame's geometry fits a stripe is the
// receiver's to check (ParityCount).
func DecodeParity(frame []byte) (Parity, error) {
	var p Parity
	if len(frame) < headerSize {
		return p, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(frame))
	}
	if binary.BigEndian.Uint16(frame[0:]) != Magic {
		return p, ErrBadMagic
	}
	if frame[2] != Version {
		return p, fmt.Errorf("%w: %d", ErrBadVersion, frame[2])
	}
	if frame[3] != KindParity {
		return p, fmt.Errorf("%w: reserved byte %#02x is not parity index 0", ErrBadParity, frame[3])
	}
	p.Video = binary.BigEndian.Uint16(frame[4:])
	p.Channel = binary.BigEndian.Uint16(frame[6:])
	p.Seq = binary.BigEndian.Uint32(frame[8:])
	p.Base = binary.BigEndian.Uint32(frame[12:])
	p.Total = binary.BigEndian.Uint32(frame[16:])
	n := binary.BigEndian.Uint32(frame[20:])
	if n > MaxPayload {
		return p, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if int(n) != len(frame)-headerSize {
		return p, fmt.Errorf("%w: header says %d, frame carries %d", ErrBadLength, n, len(frame)-headerSize)
	}
	p.Block = frame[headerSize:]
	if PayloadCRC(p.Block) != binary.BigEndian.Uint32(frame[24:]) {
		return p, ErrBadCRC
	}
	return p, nil
}

// XorAccum folds src into dst byte-wise (dst ^= src), word-at-a-time on
// the common aligned-length prefix. Lengths may differ; the shorter
// bound applies — callers accumulate fixed-size chunk payloads, so in
// practice the lengths match.
func XorAccum(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
