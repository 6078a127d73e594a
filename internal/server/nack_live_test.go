package server_test

import (
	"testing"
	"time"

	"skyscraper/internal/mcast"
	"skyscraper/internal/server"
	"skyscraper/internal/wire"
)

// TestNackMulticastResend drives the cohort repair verb at the protocol
// level: one gap bitmap is answered by a NackOK marking every chunk
// accepted, the re-sends land on the channel's broadcast group patched to
// the NACK's repetition, and a second NACK for the same chunks inside the
// storm window is absorbed without another re-send — the property that
// keeps repair work O(cohorts) instead of O(viewers).
func TestNackMulticastResend(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	srv := startChaosServer(t, sch, 50*time.Millisecond, server.Config{
		StormWindow: 2 * time.Second,
	})

	// A group member to witness the multicast re-sends. Channel 2's
	// fragment is 2 units x 4096 bytes = 8 chunks.
	rcv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	g := mcast.Group{Video: 0, Channel: 2}
	if err := srv.Hub().Join(g, rcv.Addr()); err != nil {
		t.Fatal(err)
	}

	// The cohort's aggregated NACK: chunks 1 and 3, one bitmap. Seq 777
	// cannot collide with the live schedule's repetitions within this test.
	conn, r := dialRaw(t, srv.Addr())
	defer conn.Close()
	req := wire.NackFromChunks(0, 2, 777, []int{1, 3})
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindNack, Nack: req}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadControl(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != wire.KindNackOK {
		t.Fatalf("NACK answered %q (%s), want %q", m.Kind, m.Error, wire.KindNackOK)
	}
	if !m.Nack.Has(1) || !m.Nack.Has(3) {
		t.Fatalf("accepted bitmap %v, want chunks 1 and 3", m.Nack.Chunks())
	}
	if got := srv.Status().NacksServed; got != 1 {
		t.Errorf("NacksServed = %d, want 1", got)
	}
	if got := srv.Status().NackResends; got != 2 {
		t.Errorf("NackResends = %d, want 2 (one per accepted chunk)", got)
	}

	// Both re-sends reach the group, tagged with the NACK's seq and
	// carrying the frame-cache bytes at the right offsets.
	want := map[uint32]bool{1 * 1024: false, 3 * 1024: false}
	deadline := time.Now().Add(3 * time.Second)
	for remaining := len(want); remaining > 0; {
		_ = rcv.Conn.SetReadDeadline(deadline)
		buf := make([]byte, wire.EncodedSize(wire.MaxPayload))
		n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("multicast re-sends never reached the group (still missing %d)", remaining)
		}
		c, err := wire.Decode(buf[:n])
		if err != nil || c.Seq != 777 {
			continue // a regular scheduled broadcast; keep looking
		}
		seen, ok := want[c.Offset]
		if !ok {
			t.Fatalf("re-send at unrequested offset %d", c.Offset)
		}
		if len(c.Payload) != 1024 {
			t.Fatalf("re-send at offset %d carries %d bytes, want 1024", c.Offset, len(c.Payload))
		}
		if !seen {
			want[c.Offset] = true
			remaining--
		}
	}

	// A second cohort NACKing the same chunks inside the window is told
	// "accepted" — its viewers keep re-listening — but triggers no second
	// re-send.
	conn2, r2 := dialRaw(t, srv.Addr())
	defer conn2.Close()
	if err := wire.WriteControl(conn2, &wire.Control{Kind: wire.KindNack, Nack: req}); err != nil {
		t.Fatal(err)
	}
	m2, err := wire.ReadControl(r2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Kind != wire.KindNackOK || !m2.Nack.Has(1) || !m2.Nack.Has(3) {
		t.Fatalf("suppressed NACK answered %+v, want NackOK accepting both chunks", m2)
	}
	if got := srv.Status().NackResends; got != 2 {
		t.Errorf("NackResends after suppressed NACK = %d, want still 2", got)
	}
	if got := srv.Status().NackSuppressed; got != 2 {
		t.Errorf("NackSuppressed = %d, want 2", got)
	}

	// A bitmap reaching past the fragment is rejected with a control
	// error, not a crash or a partial re-send.
	bad := wire.NackFromChunks(0, 2, 777, []int{5, 8})
	if err := wire.WriteControl(conn2, &wire.Control{Kind: wire.KindNack, Nack: bad}); err != nil {
		t.Fatal(err)
	}
	m3, err := wire.ReadControl(r2)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Kind != wire.KindError {
		t.Fatalf("out-of-range NACK answered %q, want %q", m3.Kind, wire.KindError)
	}
}

// TestNackRefusedOverBudget starves the repair byte budget and proves the
// degraded path: the NackOK's bitmap leaves the chunks unmarked — the
// client's cue to fall back to (equally budget-gated) unicast — and no
// re-send is dispatched.
func TestNackRefusedOverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	srv := startChaosServer(t, sch, 50*time.Millisecond, server.Config{
		// A one-byte budget with a one-byte burst can never cover a chunk.
		RepairBandwidth:  1,
		RepairBurstBytes: 1,
	})
	conn, r := dialRaw(t, srv.Addr())
	defer conn.Close()
	req := wire.NackFromChunks(0, 2, 777, []int{2})
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindNack, Nack: req}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadControl(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != wire.KindNackOK {
		t.Fatalf("NACK answered %q, want %q (refusal is in the bitmap, not an error)", m.Kind, wire.KindNackOK)
	}
	if m.Nack.Has(2) {
		t.Fatal("over-budget NACK still accepted the chunk")
	}
	if got := srv.Status().NackResends; got != 0 {
		t.Errorf("NackResends = %d, want 0 (budget refused)", got)
	}
}
