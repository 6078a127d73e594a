//go:build linux && (amd64 || arm64)

package mcast

import "testing"

// TestBatchShortestChainFirst pins the stager's send order on a mixed tick
// (mixedTick: a 22-group socket whose frames lead the batch, then two
// one-group sockets): the one-group sockets' messages are staged first, in
// the order their groups appear in the batch, and the 22-frame chain last.
// The order is read from the staged messages, not from arrival times, and
// every socket still receives exactly its own frames in batch order.
func TestBatchShortestChainFirst(t *testing.T) {
	for _, mode := range []string{"sendmmsg", "gso"} {
		t.Run(mode, func(t *testing.T) {
			hub, _ := newTestHub(t, nil, 0)
			if !setBatchPath(hub, mode) {
				t.Skipf("%s path unavailable on this platform/kernel", mode)
			}
			tc := mixedTick()
			rs := joinShared(t, hub, tc)
			entries := tc.entries()
			bb := new(batchBuf)
			if err := hub.writeDestsStaged(bb, hub.members.load(), entries); err != nil {
				t.Fatal(err)
			}
			heavy, light := addrPort(rs[0].Addr()), []*Receiver{rs[1], rs[2]}
			msgs := bb.stage.msgs
			wantMsgs := 2 + 1 // two plain datagrams, one 22-frame super-frame
			if mode == "sendmmsg" {
				wantMsgs = 2 + 22
			}
			if len(msgs) != wantMsgs {
				t.Fatalf("staged %d messages, want %d", len(msgs), wantMsgs)
			}
			for i, m := range msgs {
				got := bb.ds[m.lo].ap
				switch {
				case i < len(light):
					if want := addrPort(light[i].Addr()); got != want {
						t.Errorf("message %d goes to %v, want one-group socket %d (%v)", i, got, i, want)
					}
				case got != heavy:
					t.Errorf("message %d goes to %v, want the 22-group socket %v", i, got, heavy)
				}
			}
			for i, r := range rs {
				want := owed(entries, tc.shared[i])
				got := drainOrdered(t, r, len(want))
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("socket %d frame %d is %.12q, want %.12q", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}
