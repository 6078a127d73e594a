// Package wire defines the on-the-wire representation of the live
// Skyscraper Broadcasting demo: a compact binary framing for video data
// chunks carried over UDP, and JSON-encoded control messages exchanged over
// TCP between a client and the broadcast server (the join/leave signalling
// a real deployment would delegate to IP multicast group management).
//
// Data chunks are self-describing — video, channel, broadcast repetition,
// byte offset — so a receiver can tune into any channel at a broadcast
// boundary and reassemble the fragment without per-packet state on the
// server, exactly the receiver model of Section 3.3.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies skyscraper data chunks; Version is the protocol
// revision.
const (
	Magic   = 0x5B5C // "skyscraper broadcast"
	Version = 1
)

// MaxPayload bounds chunk payloads so frames fit comfortably in a UDP
// datagram on loopback.
const MaxPayload = 32 * 1024

// HeaderSize is the fixed encoded size before the payload:
// magic(2) version(1) pad(1) video(2) channel(2) seq(4) offset(4) total(4)
// length(4) crc(4).
const HeaderSize = 28

const headerSize = HeaderSize

// seqOffset locates the 4-byte Seq field within an encoded header. Seq is
// the only header field that changes between broadcast repetitions, and it
// is deliberately excluded from the payload CRC, so the CRC of a chunk is
// computed once and serves every repetition (PutHeader).
const seqOffset = 8

// KindData is the frame-kind byte of a data chunk: the reserved header
// byte, zero. Parity frames carry KindParity|index there (parity.go).
const KindData = 0

// Chunk is one datagram's worth of a fragment broadcast.
type Chunk struct {
	// Video is the catalog index of the video.
	Video uint16
	// Channel is the 1-based logical channel (= fragment index).
	Channel uint16
	// Seq numbers the channel's broadcast repetitions from 0, so
	// receivers can detect tuning mid-broadcast.
	Seq uint32
	// Offset is the byte offset of Payload within the fragment.
	Offset uint32
	// Total is the full fragment size in bytes.
	Total uint32
	// Payload carries the fragment bytes at Offset.
	Payload []byte
}

// Errors returned by Decode.
var (
	ErrShortFrame  = errors.New("wire: frame shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadReserved = errors.New("wire: reserved header byte not zero")
	ErrBadLength   = errors.New("wire: length field disagrees with frame size")
	ErrBadCRC      = errors.New("wire: payload CRC mismatch")
	ErrTooLarge    = errors.New("wire: payload exceeds MaxPayload")
)

// PayloadCRC returns the checksum Encode stores in the header for the
// given payload. Exposed so a caller that broadcasts the same payload
// repeatedly (the server's frame cache) can compute it once and reuse it
// through EncodeWithCRC.
func PayloadCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// Encode appends the chunk's wire form to dst and returns the extended
// slice.
func (c *Chunk) Encode(dst []byte) ([]byte, error) {
	if len(c.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(c.Payload))
	}
	return c.appendFrame(dst, crc32.ChecksumIEEE(c.Payload)), nil
}

// EncodeWithCRC is Encode with a precomputed payload CRC (see PayloadCRC).
// The caller owns the invariant that crc matches c.Payload; a mismatch
// produces frames every receiver rejects with ErrBadCRC.
func (c *Chunk) EncodeWithCRC(dst []byte, crc uint32) ([]byte, error) {
	if len(c.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(c.Payload))
	}
	return c.appendFrame(dst, crc), nil
}

func (c *Chunk) appendFrame(dst []byte, crc uint32) []byte {
	var h [headerSize]byte
	PutHeader(h[:], KindData, c.Video, c.Channel, c.Seq, c.Offset, c.Total, len(c.Payload), crc)
	dst = append(dst, h[:]...)
	return append(dst, c.Payload...)
}

// PutHeader writes a frame header into h[:HeaderSize] in place, for a
// sender that builds the payload directly behind it (h[HeaderSize:]) rather
// than encoding from a separate payload buffer. kind is KindData or
// KindParity|index; for a parity frame offset carries the group base. crc
// is PayloadCRC of the n payload bytes, which the caller owns — the CRC
// excludes Seq, so one computed CRC serves every repetition of the chunk.
// h must hold at least HeaderSize bytes.
func PutHeader(h []byte, kind byte, video, channel uint16, seq, offset, total uint32, n int, crc uint32) {
	_ = h[headerSize-1]
	binary.BigEndian.PutUint16(h[0:], Magic)
	h[2] = Version
	h[3] = kind
	binary.BigEndian.PutUint16(h[4:], video)
	binary.BigEndian.PutUint16(h[6:], channel)
	binary.BigEndian.PutUint32(h[seqOffset:], seq)
	binary.BigEndian.PutUint32(h[12:], offset)
	binary.BigEndian.PutUint32(h[16:], total)
	binary.BigEndian.PutUint32(h[20:], uint32(n))
	binary.BigEndian.PutUint32(h[24:], crc)
}

// PatchSeq rewrites the Seq field of an encoded frame in place. The payload
// CRC covers only the payload, so a frame its caller owns can be re-sent
// under another repetition number with this 4-byte patch and no re-encode.
// The frame must start with a valid chunk header.
func PatchSeq(frame []byte, seq uint32) error {
	if len(frame) < headerSize {
		return fmt.Errorf("%w: %d bytes", ErrShortFrame, len(frame))
	}
	if binary.BigEndian.Uint16(frame[0:]) != Magic {
		return ErrBadMagic
	}
	if frame[2] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, frame[2])
	}
	binary.BigEndian.PutUint32(frame[seqOffset:], seq)
	return nil
}

// Decode parses a frame. The returned chunk's Payload aliases frame; copy
// it if the buffer will be reused.
func Decode(frame []byte) (Chunk, error) {
	var c Chunk
	if len(frame) < headerSize {
		return c, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(frame))
	}
	if binary.BigEndian.Uint16(frame[0:]) != Magic {
		return c, ErrBadMagic
	}
	if frame[2] != Version {
		return c, fmt.Errorf("%w: %d", ErrBadVersion, frame[2])
	}
	if frame[3] != 0 {
		return c, ErrBadReserved
	}
	c.Video = binary.BigEndian.Uint16(frame[4:])
	c.Channel = binary.BigEndian.Uint16(frame[6:])
	c.Seq = binary.BigEndian.Uint32(frame[8:])
	c.Offset = binary.BigEndian.Uint32(frame[12:])
	c.Total = binary.BigEndian.Uint32(frame[16:])
	n := binary.BigEndian.Uint32(frame[20:])
	if n > MaxPayload {
		return c, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if int(n) != len(frame)-headerSize {
		return c, fmt.Errorf("%w: header says %d, frame carries %d", ErrBadLength, n, len(frame)-headerSize)
	}
	c.Payload = frame[headerSize:]
	if crc32.ChecksumIEEE(c.Payload) != binary.BigEndian.Uint32(frame[24:]) {
		return c, ErrBadCRC
	}
	return c, nil
}

// EncodedSize returns the frame size for a payload of n bytes.
func EncodedSize(n int) int { return headerSize + n }

// PeekID extracts a chunk's identity — video, channel, broadcast
// repetition, fragment offset — from an encoded frame without touching the
// payload or its CRC. The fault injector (internal/faults) keys its
// per-chunk decisions on this, so injection costs no checksum work. ok is
// false when the frame is too short or carries the wrong magic or version.
func PeekID(frame []byte) (video, channel uint16, seq, offset uint32, ok bool) {
	if len(frame) < headerSize || binary.BigEndian.Uint16(frame[0:]) != Magic || frame[2] != Version {
		return 0, 0, 0, 0, false
	}
	return binary.BigEndian.Uint16(frame[4:]), binary.BigEndian.Uint16(frame[6:]),
		binary.BigEndian.Uint32(frame[8:]), binary.BigEndian.Uint32(frame[12:]), true
}
