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
// re-send window (two units) is absorbed without another re-send — the
// property that keeps repair work O(cohorts) instead of O(viewers).
func TestNackMulticastResend(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	// A one-second unit: the two-unit re-send window spans the whole test.
	const unit = time.Second
	srv := startChaosServer(t, sch, unit, server.Config{})

	// A group member to witness the multicast re-sends. Channel 2's
	// fragment is 2 units x 4096 bytes = 8 chunks. It joins once
	// repetition 0 is over (a quarter unit after its last chunk was due),
	// so every repetition-0 frame it hears is a re-send.
	time.Sleep(time.Until(srv.Epoch().Add(2*unit + unit/4)))
	rcv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	g := mcast.Group{Video: 0, Channel: 2}
	if err := srv.Hub().Join(g, rcv.Addr()); err != nil {
		t.Fatal(err)
	}

	// The cohort's aggregated NACK for repetition 0: chunks 1 and 3, one
	// bitmap.
	conn, r := dialRaw(t, srv.Addr())
	defer conn.Close()
	req := wire.NackFromChunks(0, 2, 0, []int{1, 3})
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
		if err != nil || c.Seq != 0 {
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
	bad := wire.NackFromChunks(0, 2, 0, []int{5, 8})
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

	// So is a NACK for a repetition no viewer can be receiving: the
	// repetition keys the re-send table, and answering any Seq would let
	// one connection trigger re-sends without limit.
	far := wire.NackFromChunks(0, 2, 1<<20, []int{1, 3})
	if err := wire.WriteControl(conn2, &wire.Control{Kind: wire.KindNack, Nack: far}); err != nil {
		t.Fatal(err)
	}
	m4, err := wire.ReadControl(r2)
	if err != nil {
		t.Fatal(err)
	}
	if m4.Kind != wire.KindError {
		t.Fatalf("NACK for repetition %d answered %q, want %q", far.Seq, m4.Kind, wire.KindError)
	}
	if st := srv.Status(); st.NacksServed != 2 || st.NackResends != 2 {
		t.Errorf("after rejected NACKs: NacksServed %d, NackResends %d, want 2 and 2", st.NacksServed, st.NackResends)
	}
}

// TestNackResendPerRepetition: two cohorts NACK the same chunk position
// inside one re-send window, but for different repetitions. A receiver
// drops a frame of any repetition but the one it waits on, so one re-send
// cannot serve both: each NACK gets its own, under its own Seq. (Fault
// plans injure the same position in every repetition, and channel 1's
// period is shorter than the window, so this is the common case.)
func TestNackResendPerRepetition(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	// A one-second unit: the two-unit re-send window spans the whole test.
	const unit = time.Second
	srv := startChaosServer(t, sch, unit, server.Config{})

	// Channel 1 repeats every unit in 4 chunks. Halfway through repetition
	// 1, repetition 0 is over and repetition 1's chunk 1 was due a quarter
	// unit ago: a member joining now hears chunk 1 of either only as a
	// re-send.
	time.Sleep(time.Until(srv.Epoch().Add(unit + unit/2)))
	rcv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	if err := srv.Hub().Join(mcast.Group{Video: 0, Channel: 1}, rcv.Addr()); err != nil {
		t.Fatal(err)
	}

	for _, seq := range []uint32{0, 1} {
		conn, r := dialRaw(t, srv.Addr())
		req := wire.NackFromChunks(0, 1, seq, []int{1})
		if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindNack, Nack: req}); err != nil {
			t.Fatal(err)
		}
		m, err := wire.ReadControl(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.KindNackOK || !m.Nack.Has(1) {
			t.Fatalf("seq %d: NACK answered %+v, want NackOK accepting chunk 1", seq, m)
		}
	}
	if got := srv.Status().NackResends; got != 2 {
		t.Errorf("NackResends = %d, want 2 (one per repetition)", got)
	}
	if got := srv.Status().NackSuppressed; got != 0 {
		t.Errorf("NackSuppressed = %d, want 0", got)
	}

	want := map[uint32]bool{0: false, 1: false}
	deadline := time.Now().Add(3 * time.Second)
	for remaining := len(want); remaining > 0; {
		_ = rcv.Conn.SetReadDeadline(deadline)
		buf := make([]byte, wire.EncodedSize(wire.MaxPayload))
		n, _, err := rcv.Conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("re-sends missing from the group: %v", want)
		}
		c, err := wire.Decode(buf[:n])
		if err != nil || c.Offset != 1024 {
			continue // a regular scheduled broadcast; keep looking
		}
		if seen, ok := want[c.Seq]; ok && !seen {
			want[c.Seq] = true
			remaining--
		}
	}
}

// TestNackRefusedOverBudget starves the repair byte budget and proves the
// degraded path: the NackOK's bitmap leaves the chunks unmarked — the
// client's cue to fall back to (equally budget-gated) unicast — and no
// re-send is dispatched. A refused chunk opens no re-send window either: a
// second NACK for it is refused in turn, not told a re-send is in flight.
func TestNackRefusedOverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test")
	}
	sch := liveScheme(t, 1, 3, 2)
	srv := startChaosServer(t, sch, time.Second, server.Config{
		// A one-byte budget with a one-byte burst can never cover a chunk.
		RepairBandwidth:  1,
		RepairBurstBytes: 1,
	})
	conn, r := dialRaw(t, srv.Addr())
	defer conn.Close()
	req := wire.NackFromChunks(0, 2, 0, []int{2})
	for i := 0; i < 2; i++ {
		if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindNack, Nack: req}); err != nil {
			t.Fatal(err)
		}
		m, err := wire.ReadControl(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.KindNackOK {
			t.Fatalf("NACK %d answered %q, want %q (refusal is in the bitmap, not an error)", i, m.Kind, wire.KindNackOK)
		}
		if m.Nack.Has(2) {
			t.Fatalf("over-budget NACK %d still accepted the chunk", i)
		}
	}
	if got := srv.Status().NackResends; got != 0 {
		t.Errorf("NackResends = %d, want 0 (budget refused)", got)
	}
	if got := srv.Status().NackSuppressed; got != 0 {
		t.Errorf("NackSuppressed = %d, want 0 (no re-send was ever in flight)", got)
	}
}
