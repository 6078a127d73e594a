package server_test

import (
	"math"
	"testing"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/server"
	"skyscraper/internal/trace"
	"skyscraper/internal/wire"
)

// TestControlOverflowRejected sends the control lines whose index
// arithmetic once overflowed into the frame builder — a NACK whose last
// chunk index wraps negative, a repair whose Offset+Length wraps negative
// (once answered from outside the fragment, and once an unrecovered panic
// that took the broadcast down) — and their in-range-arithmetic
// neighbours. Each is answered with KindError on a connection that stays
// usable, while a viewer's session runs to completion beside it.
func TestControlOverflowRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	hostile := []struct {
		name string
		msg  wire.Control
	}{
		{"nack last chunk wraps", wire.Control{Kind: wire.KindNack,
			Nack: &wire.Nack{Video: 0, Channel: 1, BaseChunk: math.MaxInt64 - 7, Bitmap: []byte{0x00, 0x01}}}},
		{"nack huge base, no wrap", wire.Control{Kind: wire.KindNack,
			Nack: &wire.Nack{Video: 0, Channel: 1, BaseChunk: math.MaxInt64 - 16, Bitmap: []byte{0x01, 0x01}}}},
		{"repair range wraps", wire.Control{Kind: wire.KindRepair,
			Repair: &wire.Repair{Video: 0, Channel: 1, Offset: math.MaxInt64 &^ 1023, Length: 1024}}},
		{"repair huge offset, no wrap", wire.Control{Kind: wire.KindRepair,
			Repair: &wire.Repair{Video: 0, Channel: 1, Offset: math.MaxInt64 - 4096, Length: 1024}}},
	}
	sch := liveScheme(t, 1, 3, 2)
	srv := startChaosServer(t, sch, 50*time.Millisecond, server.Config{})
	tb := trace.New(256)
	watched := make(chan error, 1)
	go func() {
		_, err := client.Watch(chaosClient(srv.Addr(), 0, tb))
		watched <- err
	}()

	conn, r := dialRaw(t, srv.Addr())
	for _, tc := range hostile {
		if err := wire.WriteControl(conn, &tc.msg); err != nil {
			t.Fatal(err)
		}
		m, err := wire.ReadControl(r)
		if err != nil {
			t.Fatalf("%s: no reply: %v", tc.name, err)
		}
		if m.Kind != wire.KindError {
			t.Errorf("%s: answered %q, want %q", tc.name, m.Kind, wire.KindError)
		}
	}
	if err := <-watched; err != nil {
		dumpTrace(t, tb)
		t.Fatalf("watch beside the hostile connection: %v", err)
	}
}
