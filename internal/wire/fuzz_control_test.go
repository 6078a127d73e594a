package wire_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/series"
	"skyscraper/internal/viewer"
	"skyscraper/internal/wire"
)

// FuzzControlDecode fuzzes the control-verb parse path the server's
// handler loop runs on every request line, mirroring FuzzChunkDecode: any
// accepted message — truncated, garbage, or hostile field values — must
// survive a canonical re-encode (WriteControl) and re-decode to the
// identical message, so nothing a peer can say desynchronizes the two
// ends' view of a verb; and a decoded Welcome that validates can be
// planned — transmission groups, reception schedule, a loader state
// machine per fragment — without panicking (a zero ChunkBytes once
// divided by zero there, on one line from the server). Seeded with every
// control kind, including the Busy admission reply. It lives in the
// external test package because the planner imports wire.
func FuzzControlDecode(f *testing.F) {
	seeds := []*wire.Control{
		{Kind: wire.KindHello},
		{Kind: wire.KindWelcome, Welcome: &wire.Welcome{Videos: 2, ChannelsPerVideo: 5, Width: 2,
			UnitNanos: 8e7, EpochUnixNano: 1234, SizeUnits: []int64{1, 2, 2, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024}},
		// KindParity is a data-plane frame kind, not a control verb, but
		// the capability that announces it travels here: seed Welcomes
		// that advertise a stripe, one of them at the widest one.
		{Kind: wire.KindWelcome, Welcome: &wire.Welcome{Videos: 1, ChannelsPerVideo: 3, Width: 2,
			UnitNanos: 8e7, EpochUnixNano: 1234, SizeUnits: []int64{1, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024,
			FecGroup: 8}},
		{Kind: wire.KindWelcome, Welcome: &wire.Welcome{Videos: 1, ChannelsPerVideo: 3, Width: 2,
			UnitNanos: 8e7, EpochUnixNano: 1234, SizeUnits: []int64{1, 2, 2}, BytesPerUnit: 4096, ChunkBytes: 1024,
			FecGroup: wire.MaxFecGroup}},
		{Kind: wire.KindJoin, Video: 1, Channel: 2, Port: 45678},
		{Kind: wire.KindJoined, Video: 1, Channel: 2},
		{Kind: wire.KindLeave, Video: 1, Channel: 2},
		{Kind: wire.KindError, Error: "join: no channel 9/9"},
		{Kind: wire.KindBye},
		{Kind: wire.KindStats},
		{Kind: wire.KindStatsOK, Stats: json.RawMessage(`{"videos":2,"datagramsSent":6,"memberships":8,"repairTokens":-1,` +
			`"frameCache":{"hits":1,"misses":2,"bytes":64},"egressTickSource":"timerfd","draining":true}`)},
		{Kind: wire.KindRepair, Repair: &wire.Repair{Video: 1, Channel: 2, Seq: 7, Offset: 1024, Length: 512}},
		{Kind: wire.KindRepairOK, Repair: &wire.Repair{Video: 1, Channel: 2, Seq: 7, Offset: 1024, Length: 4, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}},
		{Kind: wire.KindBusy, RetryAfterNanos: 25e6},
		{Kind: wire.KindBusy}, // no hint
		{Kind: wire.KindNack, Nack: wire.NackFromChunks(1, 2, 7, []int{3, 4, 9})},
		{Kind: wire.KindNackOK, Nack: &wire.Nack{Video: 1, Channel: 2, Seq: 7, BaseChunk: 3, Bitmap: []byte{0x43}}},
		{Kind: wire.KindNackOK, Nack: &wire.Nack{Video: 1, Channel: 2, Seq: 7, BaseChunk: 3, Bitmap: []byte{0, 0}}}, // nothing accepted
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := wire.WriteControl(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"kind":"busy","retryAfterNanos":-1}` + "\n"))
	f.Add([]byte(`{"kind":"repair"`)) // truncated mid-message
	f.Add([]byte(`{"kind":"repair","repair":{"offset":-9223372036854775808,"length":-1}}` + "\n"))
	// A stats payload with insignificant whitespace and an HTML-escapable
	// string: decoded as sent, re-encoded compact.
	f.Add([]byte(`{"kind":"statsok","stats":{ "controlAddr" : "<a&b>" , "sizeUnits" : [ 1, 2 ] }}` + "\n"))
	// Malformed gap bitmaps: missing payload, empty, non-canonical
	// trailing zero, negative base, a base whose last chunk index overflows
	// (it once crashed the server), oversized. All must be rejected with a
	// typed error, never accepted or panicked on.
	f.Add([]byte(`{"kind":"nack"}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":1,"channel":2,"bitmap":""}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":1,"channel":2,"baseChunk":0,"bitmap":"AQA="}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"baseChunk":-1,"bitmap":"AQ=="}}` + "\n"))
	f.Add([]byte(`{"kind":"nack","nack":{"video":0,"channel":1,"baseChunk":9223372036854775800,"bitmap":"AAE="}}` + "\n"))
	f.Add([]byte(`{"kind":"nackok","nack":{"baseChunk":3,"bitmap":"AAA="}}` + "\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte("{}\n"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A binary wire.KindParity frame arriving on the control line is garbage
	// to this parser; it must be rejected, never mis-parsed.
	parityBlock := bytes.Repeat([]byte{0x5A}, 32)
	if parityFrame, err := wire.EncodeParityFrame(nil, 1, 2, 3, 0, 65536, 0, parityBlock, wire.PayloadCRC(parityBlock)); err == nil {
		f.Add(append(parityFrame, '\n'))
	}
	// A Welcome that decodes but cannot be planned from: zero ChunkBytes.
	f.Add([]byte(`{"kind":"welcome","welcome":{"videos":1,"channelsPerVideo":2,"width":2,"unitNanos":80000000,"sizeUnits":[1,2],"bytesPerUnit":64,"chunkBytes":0}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.ReadControl(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if m.Kind == "" {
			t.Fatal("accepted a kindless control message")
		}
		var buf bytes.Buffer
		if err := wire.WriteControl(&buf, m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		again, err := wire.ReadControl(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("canonical re-encode stopped decoding: %v", err)
		}
		if m.Stats != nil {
			// The stats payload is opaque JSON, and json.Marshal compacts
			// (and HTML-escapes) a RawMessage: compare its canonical form.
			if m.Stats, err = json.Marshal(m.Stats); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decode/encode/decode not idempotent:\n 1st: %+v\n 2nd: %+v", m, again)
		}
		if m.Welcome != nil && m.Welcome.Validate() == nil {
			planWelcome(m.Welcome)
		}
	})
}

// planWelcome plans a whole reception from w the way a viewer does. Only
// layouts small enough to hold in a fuzz worker are planned: Validate
// bounds a video's bytes to an int, not to this process's memory.
func planWelcome(w *wire.Welcome) {
	chunks := int64(0)
	for _, s := range w.SizeUnits {
		chunks += s*int64(w.BytesPerUnit)/int64(w.ChunkBytes) + 1
	}
	if len(w.SizeUnits) > 64 || chunks > 1<<16 {
		return
	}
	groups := series.Groups(w.SizeUnits)
	plan, err := core.PlanForGroups(groups, 3)
	if err != nil {
		return // not a two-loader series: refused, not crashed on
	}
	for _, d := range plan.Downloads {
		for j := 0; j < d.Group.Count; j++ {
			viewer.NewMachine(viewer.FragmentParams{
				Channel: d.Group.First + j, Size: d.Group.Size, TuneUnit: d.FragmentStart(j),
				PlayUnit:   plan.PlayStartUnit + d.Group.StartUnit + int64(j)*d.Group.Size,
				TotalBytes: int(d.Group.Size) * w.BytesPerUnit, ChunkBytes: w.ChunkBytes, BytesPerUnit: w.BytesPerUnit,
				Epoch: time.Unix(0, w.EpochUnixNano), Unit: time.Duration(w.UnitNanos),
				FecGroup: w.FecGroup,
			})
		}
	}
}
