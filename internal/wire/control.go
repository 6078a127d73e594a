package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Control message kinds exchanged over the TCP control connection.
const (
	KindHello    = "hello"
	KindWelcome  = "welcome"
	KindJoin     = "join"
	KindJoined   = "joined"
	KindLeave    = "leave"
	KindError    = "error"
	KindBye      = "bye"
	KindStats    = "stats"
	KindStatsOK  = "statsok"
	KindRepair   = "repair"
	KindRepairOK = "repairok"
	// KindBusy is the server's admission-control pushback: the repair
	// plane is over budget. RetryAfterNanos carries the earliest useful
	// retry time. A zero hint means "re-listen to the broadcast group" —
	// the answer is already in flight as a multicast re-send. Clients
	// honor it; this repository's server sends only budget hints.
	KindBusy = "busy"
	// KindNack reports a burst of losses on one channel as a compact gap
	// bitmap (see Nack); the server answers with KindNackOK whose bitmap
	// marks the chunks it accepted for a multicast re-send on the
	// channel's broadcast group. Chunks left unmarked were refused
	// (budget) and fall back to unicast KindRepair. A NACK for a
	// repetition no viewer can still be receiving gets KindError.
	KindNack   = "nack"
	KindNackOK = "nackok"
)

// Errors returned by ReadControl, so callers can distinguish a connection
// cut off mid-message (retryable after reconnect) from a peer speaking
// garbage (corruption; not retryable).
var (
	// ErrTruncated reports a control line that ended before its newline
	// delimiter: the connection died mid-message.
	ErrTruncated = errors.New("wire: truncated control message")
	// ErrBadControl reports a complete line that is not a valid control
	// message.
	ErrBadControl = errors.New("wire: malformed control message")
	// ErrControlTooLong reports a control line over MaxControlLine bytes.
	// The stream's framing is lost with it, so it ends the connection.
	ErrControlTooLong = fmt.Errorf("wire: control line over %d bytes", MaxControlLine)
)

// MaxControlLine bounds one control line, newline included. The longest
// legitimate line, a KindRepairOK carrying MaxPayload bytes, is about
// 43.7 KB in base64.
const MaxControlLine = 2 * MaxPayload

// Control is the envelope for every control message; unused fields are
// omitted from the JSON encoding.
type Control struct {
	Kind string `json:"kind"`
	// Error text for KindError.
	Error string `json:"error,omitempty"`
	// Welcome payload.
	Welcome *Welcome `json:"welcome,omitempty"`
	// Join/Joined/Leave payload.
	Video   int `json:"video,omitempty"`
	Channel int `json:"channel,omitempty"`
	// Port is the client's UDP port for Join.
	Port int `json:"port,omitempty"`
	// Stats is the KindStatsOK payload: the server's status document,
	// carried as opaque JSON (its schema is the server's, not the wire's).
	Stats json.RawMessage `json:"stats,omitempty"`
	// Repair payload for KindRepair/KindRepairOK.
	Repair *Repair `json:"repair,omitempty"`
	// Nack payload for KindNack/KindNackOK.
	Nack *Nack `json:"nack,omitempty"`
	// RetryAfterNanos is the KindBusy retry hint; zero means the request
	// was answered via a multicast re-send and the client should
	// re-listen instead of re-pulling.
	RetryAfterNanos int64 `json:"retryAfterNanos,omitempty"`
}

// Repair is a unicast chunk-repair round trip: a client that detected a
// gap in a channel's broadcast asks the server to retransmit one chunk
// over the control connection. The request leaves Data empty; the reply
// echoes the identifying fields and fills Data with the chunk bytes.
type Repair struct {
	// Video and Channel identify the fragment, exactly as in a Join.
	Video   int `json:"video"`
	Channel int `json:"channel"`
	// Seq is the broadcast repetition the lost chunk belonged to. Chunk
	// content is repetition-independent, but echoing it lets the client
	// match replies to the reception it is recovering.
	Seq uint32 `json:"seq"`
	// Offset is the byte offset of the chunk within the fragment.
	Offset int64 `json:"offset"`
	// Length is the number of chunk bytes requested.
	Length int `json:"length"`
	// Data carries the chunk bytes in a KindRepairOK reply (base64 in
	// the JSON encoding).
	Data []byte `json:"data,omitempty"`
}

// Welcome describes the broadcast the server is running, everything a
// client needs to compute its reception schedule locally: the SB
// parameters, the shared epoch, and the fragment layout.
type Welcome struct {
	// Videos is M; ChannelsPerVideo is K; Width is W.
	Videos           int   `json:"videos"`
	ChannelsPerVideo int   `json:"channelsPerVideo"`
	Width            int64 `json:"width"`
	// UnitNanos is the real-time duration of one D1 unit (the demo
	// compresses video minutes into short wall-clock intervals).
	UnitNanos int64 `json:"unitNanos"`
	// EpochUnixNano anchors all channels' broadcast grids: channel i's
	// broadcasts start at Epoch + n*Sizes[i-1]*Unit.
	EpochUnixNano int64 `json:"epochUnixNano"`
	// SizeUnits are the fragment sizes in D1 units, channel order.
	SizeUnits []int64 `json:"sizeUnits"`
	// BytesPerUnit is the fragment payload density: a fragment of s
	// units carries s*BytesPerUnit bytes.
	BytesPerUnit int `json:"bytesPerUnit"`
	// ChunkBytes is the data-chunk payload size the server uses.
	ChunkBytes int `json:"chunkBytes"`
	// NackRepair advertises the cohort-aware repair plane: the server
	// answers KindNack gap bitmaps with multicast re-sends. Clients only
	// send NACKs when this is set, so old servers (and test fakes) keep
	// seeing pure unicast KindRepair traffic.
	NackRepair bool `json:"nackRepair,omitempty"`
	// FecGroup advertises the proactive parity stripe: the broadcast
	// interleaves one parity frame per group of FecGroup data chunks
	// (see KindParity). Zero means no stripe — receivers then never see
	// parity frames and run the PR-8 reactive ladder unchanged.
	FecGroup int `json:"fecGroup,omitempty"`
}

// Validate rejects a Welcome no reception can be planned from: every
// count and size positive and mutually consistent, so a receiver can size
// its fragments and machines from it without dividing by zero, indexing
// past a layout or overflowing a byte count.
func (w *Welcome) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: malformed welcome: %s", ErrBadControl, fmt.Sprintf(format, args...))
	}
	switch {
	case w.Videos <= 0:
		return bad("%d videos", w.Videos)
	case w.ChannelsPerVideo <= 0 || len(w.SizeUnits) != w.ChannelsPerVideo:
		return bad("%d sizes for %d channels", len(w.SizeUnits), w.ChannelsPerVideo)
	case w.UnitNanos <= 0 || w.BytesPerUnit <= 0:
		return bad("unit of %d ns carrying %d bytes", w.UnitNanos, w.BytesPerUnit)
	case w.ChunkBytes <= 0 || w.ChunkBytes > MaxPayload:
		return bad("chunk size %d outside (0, %d]", w.ChunkBytes, MaxPayload)
	case w.FecGroup < 0 || w.FecGroup > MaxFecGroup:
		return bad("FEC group %d outside [0, %d]", w.FecGroup, MaxFecGroup)
	}
	budget := int64(math.MaxInt) / int64(w.BytesPerUnit) // units a video may span
	for i, s := range w.SizeUnits {
		if s <= 0 || s > budget {
			return bad("fragment %d of %d units (video bytes must fit an int)", i+1, s)
		}
		budget -= s
	}
	return nil
}

// WriteControl writes one newline-delimited JSON control message.
func WriteControl(w io.Writer, m *Control) error {
	buf, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: encoding control %q: %w", m.Kind, err)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: writing control %q: %w", m.Kind, err)
	}
	return nil
}

// ReadControl reads one newline-delimited JSON control message. A read
// that ends cleanly between messages returns the underlying error (io.EOF
// on an orderly close); one that ends mid-line returns ErrTruncated, a
// complete but undecodable line returns ErrBadControl, and a line longer
// than MaxControlLine returns ErrControlTooLong once at most one buffer
// past the cap has been read.
func ReadControl(r *bufio.Reader) (*Control, error) {
	var line []byte
	var err error
	for {
		var frag []byte
		frag, err = r.ReadSlice('\n')
		if len(line)+len(frag) > MaxControlLine {
			return nil, ErrControlTooLong
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			break
		}
	}
	if err != nil {
		if len(line) > 0 {
			return nil, fmt.Errorf("%w: %d bytes then %v", ErrTruncated, len(line), err)
		}
		return nil, err
	}
	var m Control
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadControl, err)
	}
	if m.Kind == "" {
		return nil, fmt.Errorf("%w: missing kind", ErrBadControl)
	}
	// Gap bitmaps are validated at decode so a malformed NACK surfaces as
	// a typed error here, not as a panic deep in the server's re-send table.
	switch m.Kind {
	case KindNack:
		if m.Nack == nil {
			return nil, fmt.Errorf("%w: nack without payload", ErrBadControl)
		}
		if err := validateNack(m.Nack, true); err != nil {
			return nil, err
		}
	case KindNackOK:
		if m.Nack == nil {
			return nil, fmt.Errorf("%w: nackok without payload", ErrBadControl)
		}
		if err := validateNack(m.Nack, false); err != nil {
			return nil, err
		}
	}
	return &m, nil
}
