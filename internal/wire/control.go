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
	// plane is over budget (or the request was coalesced into a multicast
	// re-send). RetryAfterNanos carries the earliest useful retry time; a
	// zero hint means "re-listen to the broadcast group" — the answer is
	// already in flight as a multicast re-send.
	KindBusy = "busy"
	// KindNack reports a burst of losses on one channel as a compact gap
	// bitmap (see Nack); the server answers with KindNackOK whose bitmap
	// marks the chunks it accepted for a multicast re-send on the
	// channel's broadcast group. Chunks left unmarked were refused
	// (budget) and fall back to unicast KindRepair.
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
)

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
	// Stats payload for KindStatsOK.
	Stats *Stats `json:"stats,omitempty"`
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

// Stats is the server's operational snapshot, returned for KindStats.
type Stats struct {
	// UptimeNanos is time since the broadcast epoch.
	UptimeNanos int64 `json:"uptimeNanos"`
	// DatagramsSent counts data chunks written to receivers.
	DatagramsSent int64 `json:"datagramsSent"`
	// Channels is the number of broadcast channels (videos × K).
	Channels int `json:"channels"`
	// Members is the current total group memberships.
	Members int `json:"members"`
	// RepairsServed counts unicast chunk repairs answered.
	RepairsServed int64 `json:"repairsServed,omitempty"`
	// RepairBytes counts the payload bytes those repairs carried.
	RepairBytes int64 `json:"repairBytes,omitempty"`
	// BusyReplies counts repair requests pushed back with KindBusy
	// (admission denials and storm suppressions combined).
	BusyReplies int64 `json:"busyReplies,omitempty"`
	// StormResends counts coalesced repair storms answered once via a
	// multicast re-send on the chunk's broadcast group;
	// SuppressedRepairs the individual unicast requests those re-sends
	// absorbed.
	StormResends      int64 `json:"stormResends,omitempty"`
	SuppressedRepairs int64 `json:"suppressedRepairs,omitempty"`
	// NacksServed counts gap-bitmap NACK messages answered; NackResends
	// the multicast re-sends those NACKs triggered; NackSuppressed the
	// NACKed chunks absorbed because a re-send within the storm window
	// was already in flight (the client just re-listens).
	NacksServed    int64 `json:"nacksServed,omitempty"`
	NackResends    int64 `json:"nackResends,omitempty"`
	NackSuppressed int64 `json:"nackSuppressed,omitempty"`
	// RepairDatagrams counts multicast repair re-sends (storm- and
	// NACK-triggered) put on the wire by the hub, so the egress ledger
	// distinguishes repair traffic from schedule traffic.
	RepairDatagrams int64 `json:"repairDatagrams,omitempty"`
	// RepairTokens is the current level of the repair token bucket in
	// bytes, -1 when the budget is unlimited.
	RepairTokens int64 `json:"repairTokens,omitempty"`
	// PacerRestarts counts egress shards restarted by the supervisor
	// after a panic; PacerDriftEvents counts broadcasts that missed
	// their absolute schedule by more than one unit.
	PacerRestarts    int64 `json:"pacerRestarts,omitempty"`
	PacerDriftEvents int64 `json:"pacerDriftEvents,omitempty"`
	// The egress ledger (absent on an idle server). EgressShards is how
	// many shard goroutines drive all channel schedules; EgressWakeups
	// their timer wakeups, each
	// dispatching every chunk due in its tick; EgressBatches the batched
	// hub dispatches and BatchedBytes the payload bytes they carried;
	// EgressSyscalls the kernel send invocations (sendmmsg calls on the
	// vectorized path, per-datagram writes otherwise), so
	// DatagramsSent/EgressSyscalls is the achieved batching factor.
	EgressShards   int   `json:"egressShards,omitempty"`
	EgressWakeups  int64 `json:"egressWakeups,omitempty"`
	EgressBatches  int64 `json:"egressBatches,omitempty"`
	BatchedBytes   int64 `json:"batchedBytes,omitempty"`
	EgressSyscalls int64 `json:"egressSyscalls,omitempty"`
	// The super-frame (UDP GSO) ledger. Superframes counts GSO
	// super-datagrams put on the wire — each one syscall slot the kernel
	// split into several wire datagrams; GSOSegments the wire datagrams
	// they carried, so GSOSegments/Superframes is the coalescing factor;
	// GSOFallbacks how many times the GSO path was declined or abandoned
	// (probe failure, kill-switch, runtime demotion).
	Superframes  int64 `json:"superframes,omitempty"`
	GSOSegments  int64 `json:"gsoSegments,omitempty"`
	GSOFallbacks int64 `json:"gsoFallbacks,omitempty"`
	// The proactive FEC ledger. ParityFrames counts parity frames put
	// on the wire alongside the broadcast schedule; ParityBytes their
	// total encoded bytes, so ParityBytes/BatchedBytes bounds the
	// stripe's bandwidth overhead (≤ 1/G by construction).
	ParityFrames int64 `json:"parityFrames,omitempty"`
	ParityBytes  int64 `json:"parityBytes,omitempty"`
	// The ingress ledger, summed over every shared receiver the process
	// has opened (absent on a process that never receives).
	// BatchedReads counts datagrams drained through the recvmmsg rung
	// (after GRO splitting); ReadSyscalls every kernel receive
	// invocation, so BatchedReads/ReadSyscalls is the achieved ingress
	// batching factor; GroSegments frames recovered from coalesced GRO
	// super-frames; GroFallbacks declines/demotions of the GRO rung;
	// ReadErrors failed socket reads.
	BatchedReads int64 `json:"batchedReads,omitempty"`
	ReadSyscalls int64 `json:"readSyscalls,omitempty"`
	GroSegments  int64 `json:"groSegments,omitempty"`
	GroFallbacks int64 `json:"groFallbacks,omitempty"`
	ReadErrors   int64 `json:"readErrors,omitempty"`
	// Draining reports a server in graceful shutdown: no new
	// connections, in-flight repairs finishing.
	Draining bool `json:"draining,omitempty"`
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
	// FecMode is the stripe kind: FecModeXOR (one P frame, heals one
	// erasure per group) or FecModeRS (P+Q, heals two). Empty when
	// FecGroup is zero.
	FecMode string `json:"fecMode,omitempty"`
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
	case w.FecGroup > 0 && w.FecMode != FecModeXOR && w.FecMode != FecModeRS:
		return bad("unknown FEC mode %q", w.FecMode)
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
// on an orderly close); one that ends mid-line returns ErrTruncated, and a
// complete but undecodable line returns ErrBadControl.
func ReadControl(r *bufio.Reader) (*Control, error) {
	line, err := r.ReadBytes('\n')
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
	// a typed error here, not as a panic deep in the storm table.
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
