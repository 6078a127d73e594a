//go:build linux && (amd64 || arm64)

package mcast

import (
	"syscall"
	"testing"
)

// groPut stages message i of a handcrafted drained batch: payload in the
// buffer ring, kernel-reported length, and optionally a GRO cmsg naming
// the segment size (seg < 0 means no cmsg).
func groPut(rb *recvBuf, i int, payload []byte, seg int) {
	copy(rb.bufs[i*maxDatagram:], payload)
	rb.hdrs[i].n = uint32(len(payload))
	hdr := &rb.hdrs[i].hdr
	if seg >= 0 {
		c := &rb.ctrls[i]
		c.len = uint64(syscall.CmsgLen(4))
		c.level = solUDP
		c.typ = udpGRO
		c.size = int32(seg)
		hdr.Controllen = uint64(syscall.CmsgSpace(4))
	} else {
		rb.ctrls[i] = groCmsg{}
		hdr.Controllen = 0
	}
}

// pattern fills a payload with a per-message byte so split results stay
// attributable to their source buffers.
func pattern(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

// TestGROSplit is the deterministic unit gate on the userspace splitter:
// GRO coalescing on a live socket is timing-dependent, so the exact cmsg
// shapes — no cmsg, equal segments with a short tail, an exact multiple,
// and a segment size covering the whole payload — are pinned here on
// handcrafted headers instead.
func TestGROSplit(t *testing.T) {
	rb := &recvBuf{s: &SharedReceiver{}}
	rb.bufs = make([]byte, 4*maxDatagram)
	rb.frames = make([][]byte, 0, 8)

	groPut(rb, 0, pattern('p', 100), -1)   // plain datagram, no cmsg
	groPut(rb, 1, pattern('c', 1700), 500) // 3×500 + 200 tail
	groPut(rb, 2, pattern('e', 600), 300)  // exact multiple: 2×300
	groPut(rb, 3, pattern('w', 600), 600)  // seg covers payload: no split
	rb.n = 4

	frames := rb.split()
	wantLens := []int{100, 500, 500, 500, 200, 300, 300, 600}
	wantByte := []byte{'p', 'c', 'c', 'c', 'c', 'e', 'e', 'w'}
	if len(frames) != len(wantLens) {
		t.Fatalf("split produced %d frames, want %d", len(frames), len(wantLens))
	}
	for i, f := range frames {
		if len(f) != wantLens[i] {
			t.Errorf("frame %d is %d bytes, want %d", i, len(f), wantLens[i])
		}
		if f[0] != wantByte[i] || f[len(f)-1] != wantByte[i] {
			t.Errorf("frame %d carries %q…%q, want all %q", i, f[0], f[len(f)-1], wantByte[i])
		}
	}
	if got := rb.s.Stats().GROSegments; got != 6 {
		t.Errorf("GROSegments = %d, want 6 (4 from the tailed super-frame + 2 exact)", got)
	}

	// A foreign cmsg type must not trigger splitting.
	groPut(rb, 0, pattern('f', 900), 300)
	rb.ctrls[0].typ = udpGRO + 1
	rb.n = 1
	if frames := rb.split(); len(frames) != 1 || len(frames[0]) != 900 {
		t.Errorf("foreign cmsg split into %d frames, want 1 whole", len(frames))
	}
}

// TestRecvBatchedZeroAlloc is the alloc gate on the batched receive fast
// path: resetting the syscall arrays, splitting a drained batch, and
// handing it to the subscription adapter must not allocate. The batch is staged
// by hand (the syscall itself touches no Go heap), mirroring how
// TestSharedRecvZeroAlloc drives dispatch directly.
func TestRecvBatchedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	// The read loop stays on single reads: the gate drives a batch state
	// of its own from this goroutine.
	pickRecvRung(t, "single")
	s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Classify: testClassify})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g := Group{Video: 9, Channel: 2}
	sub, err := s.Subscribe(g, 32, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rb := &recvBuf{s: s, bufs: make([]byte, recvBatch*maxDatagram), frames: make([][]byte, 0, recvBatch)}
	const n = 16
	frame := testFrame(g, 1052)
	stage := func() {
		rb.prepare()
		for i := 0; i < n; i++ {
			copy(rb.bufs[i*maxDatagram:], frame)
			rb.hdrs[i].n = uint32(len(frame))
		}
		rb.n = n
	}
	stage() // warm the frame-view slice
	rb.split()

	allocs := testing.AllocsPerRun(100, func() {
		stage()
		frames := rb.split()
		s.handle(frames)
		for i := 0; i < n; i++ {
			sub.Release(<-sub.Ready())
		}
	})
	if allocs != 0 {
		t.Errorf("batched receive fast path allocates %v objects per drain, want 0", allocs)
	}
}
