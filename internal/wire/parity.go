// Proactive FEC parity frames. The broadcast interleaves one parity
// frame per transmission group of G data chunks so a receiver heals a
// single lost datagram locally — no control round trip, no server
// re-send — and only burst loss that defeats the stripe escalates to
// the NACK ladder.
//
// A parity frame reuses the 28-byte chunk header verbatim. The reserved
// pad byte (frame[3]), which Decode requires to be zero for data
// chunks, becomes the frame-kind discriminator: its high nibble is
// KindParity and its low nibble selects the parity index within the
// stripe (0 = P, the plain XOR parity; 1 = Q, the GF(256)-weighted
// parity of the optional Reed-Solomon mode, which together with P heals
// two erasures). Because PeekID ignores the reserved byte and the CRC
// excludes Seq, a parity frame enjoys the exact affordances of a data
// frame: one payload CRC that serves every repetition, identity peeking
// on the fault-injection and mux-routing paths, and a place in the same
// batched egress dispatch. Old receivers reject parity frames with
// ErrBadReserved rather than mis-parsing them as data.
//
// Header field reuse: Offset carries the byte offset of the group's
// first data chunk (the group base), Total the fragment size, Length
// and CRC the parity payload exactly as for data. The payload is
//
//	[1 byte count][coverage bitmap, (count+7)/8 bytes][parity block]
//
// where count is the number of data chunks the stripe covers (the last
// group of a fragment may be short), the bitmap marks covered chunks
// LSB-first from the group base, and the parity block is the XOR (P)
// or GF-weighted sum (Q) of the covered chunk payloads. All of it is a
// pure function of (video, channel, group) — repetition-invariant —
// so the server's frame cache keeps each parity frame's CRC word beside
// those of the data chunks it protects.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// KindParity is the frame-kind marker in the high nibble of the
// reserved header byte. A zero reserved byte remains a data chunk;
// KindParity|index marks parity index 0 (P/XOR) or 1 (Q/RS).
const KindParity = 0x50

// parityKindMask extracts the frame-kind nibble from the reserved byte.
const parityKindMask = 0xF0

// MaxFecGroup bounds the stripe width G. 64 keeps the coverage bitmap
// in one word on the reassembly path and matches the egress batch run
// cap (wheelMaxRun / the UDP GSO segment limit), so one catch-up run
// never spans more than one full stripe per group boundary.
const MaxFecGroup = 64

// FEC stripe modes advertised in Welcome and configured on the server.
const (
	// FecModeXOR emits one P parity frame per group: heals any single
	// erasure among the covered chunks (or a lost P costs nothing).
	FecModeXOR = "xor"
	// FecModeRS emits P and Q parity frames per group: a 2-erasure
	// Reed-Solomon stripe (RAID-6 P+Q over GF(256), polynomial 0x11d).
	FecModeRS = "rs"
)

// ErrBadParity reports a frame whose parity-kind byte is set but whose
// payload violates the stripe layout (count, bitmap, or block bounds).
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
	// Index selects the parity within the stripe: 0 = P (XOR),
	// 1 = Q (GF-weighted).
	Index uint8
	// Count is the number of data chunks the stripe covers.
	Count int
	// Bitmap marks covered chunks, bit i (LSB-first) for the chunk at
	// Base + i*chunkBytes. Aliases the decoded frame.
	Bitmap []byte
	// Block is the parity bytes: XOR (P) or GF-weighted sum (Q) of the
	// covered chunk payloads. Aliases the decoded frame.
	Block []byte
}

// ParityOverhead is the payload size of a parity frame covering count
// chunks of blockBytes each: count byte + coverage bitmap + block.
func ParityOverhead(count, blockBytes int) int {
	return 1 + (count+7)/8 + blockBytes
}

// IsParity reports whether an encoded frame carries the parity kind
// marker. Like PeekID it trusts only magic and version; a true return
// means DecodeParity is the right parser, not that the frame is valid.
func IsParity(frame []byte) bool {
	return len(frame) >= headerSize &&
		binary.BigEndian.Uint16(frame[0:]) == Magic &&
		frame[2] == Version &&
		frame[3]&parityKindMask == KindParity
}

// ParityIndexOf returns the parity index (0 = P/XOR, 1 = Q/RS) of a
// frame IsParity accepted. It reads only the reserved byte; callers
// must have checked IsParity first.
func ParityIndexOf(frame []byte) int { return int(frame[3] &^ parityKindMask) }

// ParityCountOf returns the coverage count byte of a frame IsParity
// accepted, or 0 when the frame is too short to carry one. Like
// ParityIndexOf it is a peek, not a validation.
func ParityCountOf(frame []byte) int {
	if len(frame) <= headerSize {
		return 0
	}
	return int(frame[headerSize])
}

// EncodeParityFrame appends the wire form of a parity frame to dst. The
// payload must already be assembled in stripe layout (see
// AppendParityPayload); crc is PayloadCRC(payload), precomputed so
// re-sending the group costs no checksum work (same as
// Chunk.EncodeWithCRC).
func EncodeParityFrame(dst []byte, video, channel uint16, seq, base, total uint32, index uint8, payload []byte, crc uint32) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if index > 1 {
		return nil, fmt.Errorf("%w: parity index %d", ErrBadParity, index)
	}
	var h [headerSize]byte
	PutHeader(h[:], KindParity|index, video, channel, seq, base, total, len(payload), crc)
	dst = append(dst, h[:]...)
	return append(dst, payload...), nil
}

// AppendParityPayload appends the stripe payload prefix — count byte
// plus an all-ones coverage bitmap for chunks [0, count) — followed by
// the parity block. The proactive stripe always covers every chunk of
// its group; sparse coverage is representable on the wire but never
// emitted.
func AppendParityPayload(dst []byte, count int, block []byte) []byte {
	dst = append(dst, byte(count))
	bl := (count + 7) / 8
	for i := 0; i < bl; i++ {
		b := byte(0xFF)
		if rem := count - i*8; rem < 8 {
			b = byte(1<<rem - 1)
		}
		dst = append(dst, b)
	}
	return append(dst, block...)
}

// DecodeParity parses a parity frame. The returned Bitmap and Block
// alias frame; copy them if the buffer will be reused. Header checks
// mirror Decode; payload checks enforce the stripe layout, including
// canonical trailing-zero bits past count in the bitmap.
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
	if frame[3]&parityKindMask != KindParity {
		return p, fmt.Errorf("%w: reserved byte %#02x is not a parity kind", ErrBadParity, frame[3])
	}
	p.Index = frame[3] &^ parityKindMask
	if p.Index > 1 {
		return p, fmt.Errorf("%w: parity index %d", ErrBadParity, p.Index)
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
	payload := frame[headerSize:]
	if PayloadCRC(payload) != binary.BigEndian.Uint32(frame[24:]) {
		return p, ErrBadCRC
	}
	if len(payload) < 2 {
		return p, fmt.Errorf("%w: %d-byte payload", ErrBadParity, len(payload))
	}
	p.Count = int(payload[0])
	if p.Count == 0 || p.Count > MaxFecGroup {
		return p, fmt.Errorf("%w: stripe covers %d chunks (cap %d)", ErrBadParity, p.Count, MaxFecGroup)
	}
	bl := (p.Count + 7) / 8
	if len(payload) < 1+bl+1 {
		return p, fmt.Errorf("%w: payload too short for %d-chunk bitmap", ErrBadParity, p.Count)
	}
	p.Bitmap = payload[1 : 1+bl]
	if rem := p.Count % 8; rem != 0 && p.Bitmap[bl-1]&^byte(1<<rem-1) != 0 {
		return p, fmt.Errorf("%w: bitmap bits set past count %d", ErrBadParity, p.Count)
	}
	p.Block = payload[1+bl:]
	return p, nil
}

// Covers reports whether the stripe's coverage bitmap marks chunk i of
// the group (0-based from Base).
func (p *Parity) Covers(i int) bool {
	return i >= 0 && i < p.Count && p.Bitmap[i/8]&(1<<(i%8)) != 0
}

// GF(256) arithmetic for the Q parity, polynomial 0x11d (the RAID-6 /
// Reed-Solomon field). Log/exp tables cost 768 bytes and make every
// per-byte multiply two lookups and an add.
var (
	gfExp [510]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfExp[i+255] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
}

// GfExpPow returns alpha^i — the Q-parity coefficient of the chunk at
// stripe position i.
func GfExpPow(i int) byte { return gfExp[i%255] }

// GfMul multiplies in GF(256).
func GfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// GfDiv divides in GF(256). b must be non-zero.
func GfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
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

// GfMulAccum folds c·src into dst (dst ^= c·src in GF(256)). c == 0 is
// a no-op; c == 1 degenerates to XorAccum.
func GfMulAccum(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		XorAccum(dst, src)
		return
	}
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	lc := int(gfLog[c])
	for i := 0; i < n; i++ {
		if s := src[i]; s != 0 {
			dst[i] ^= gfExp[lc+int(gfLog[s])]
		}
	}
}
