package mcast

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// testClassify routes test datagrams by a 4-byte (video, channel) prefix —
// a stand-in for wire.PeekID that keeps this package's tests free of the
// framing dependency, exactly as production callers keep the dependency
// out of this package.
func testClassify(frame []byte) (Group, bool) {
	if len(frame) < 4 {
		return Group{}, false
	}
	return Group{
		Video:   int(binary.BigEndian.Uint16(frame[0:])),
		Channel: int(binary.BigEndian.Uint16(frame[2:])),
	}, true
}

func testFrame(g Group, size int) []byte {
	frame := make([]byte, size)
	binary.BigEndian.PutUint16(frame[0:], uint16(g.Video))
	binary.BigEndian.PutUint16(frame[2:], uint16(g.Channel))
	return frame
}

// drain receives one slot with a timeout, failing the test on silence.
func drain(t *testing.T, sub *Subscription) int {
	t.Helper()
	select {
	case slot, ok := <-sub.Ready():
		if !ok {
			t.Fatal("ready channel closed early")
		}
		return slot
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
	}
	return -1
}

// TestSharedReceiverRoutes: datagrams sent through a hub to the shared
// socket land on the subscription of their group, and only there.
func TestSharedReceiverRoutes(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ga, gb := Group{Video: 0, Channel: 1}, Group{Video: 0, Channel: 2}
	subA, err := s.Subscribe(ga, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := s.Subscribe(gb, 8, 256)
	if err != nil {
		t.Fatal(err)
	}

	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, g := range []Group{ga, gb} {
		if err := hub.Join(g, s.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	frameA := testFrame(ga, 100)
	frameA[50] = 0xAB
	if _, err := hub.Send(ga, frameA); err != nil {
		t.Fatal(err)
	}
	slot := drain(t, subA)
	got := subA.Frame(slot)
	if len(got) != 100 || got[50] != 0xAB {
		t.Fatalf("subscription A got %d bytes (byte 50 = %#x), want the 100-byte frame", len(got), got[50])
	}
	subA.Release(slot)

	if _, err := hub.Send(gb, testFrame(gb, 60)); err != nil {
		t.Fatal(err)
	}
	if slot := drain(t, subB); len(subB.Frame(slot)) != 60 {
		t.Fatalf("subscription B got %d bytes, want 60", len(subB.Frame(slot)))
	}
	select {
	case slot := <-subA.Ready():
		t.Fatalf("group B's datagram leaked to subscription A (%d bytes)", len(subA.Frame(slot)))
	default:
	}
	if st := s.Stats(); st.Delivered != 2 || st.Dropped != 0 || st.Unroutable != 0 {
		t.Errorf("counters: delivered=%d dropped=%d unroutable=%d, want 2/0/0",
			st.Delivered, st.Dropped, st.Unroutable)
	}
}

// TestSharedReceiverFanIn: two subscriptions on the same group each
// receive every datagram.
func TestSharedReceiverFanIn(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := Group{Video: 1, Channel: 3}
	sub1, _ := s.Subscribe(g, 4, 128)
	sub2, _ := s.Subscribe(g, 4, 128)

	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Join(g, s.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Send(g, testFrame(g, 64)); err != nil {
		t.Fatal(err)
	}
	for i, sub := range []*Subscription{sub1, sub2} {
		if slot := drain(t, sub); len(sub.Frame(slot)) != 64 {
			t.Fatalf("subscription %d got %d bytes, want 64", i+1, len(sub.Frame(slot)))
		}
	}
}

// TestSlotQuotaStallsOnlyItsSubscriber: a subscriber that stops draining
// loses its own excess datagrams at its slot quota — counted, never
// blocking the read loop — while a neighbour on the same group receives
// every one, each intact.
func TestSlotQuotaStallsOnlyItsSubscriber(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := Group{Video: 0, Channel: 1}
	stuck, _ := s.Subscribe(g, 2, 128) // never drained
	live, _ := s.Subscribe(g, 8, 128)

	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Join(g, s.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		frame := testFrame(g, 64)
		frame[4] = byte(i)
		if _, err := hub.Send(g, frame); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		slot := drain(t, live)
		if got := live.Frame(slot)[4]; got != byte(i) {
			t.Fatalf("live subscription's frame %d carries tag %d: its ring was overwritten", i, got)
		}
		live.Release(slot)
	}
	if got := stuck.Dropped(); got != 4 {
		t.Errorf("stuck subscription dropped %d datagrams, want 4 (quota 2 of 6 sent)", got)
	}
	if live.Dropped() != 0 {
		t.Errorf("draining subscription dropped %d datagrams, want 0", live.Dropped())
	}
	if st := s.Stats(); st.Delivered != 2+6 || st.Dropped != 4 {
		t.Errorf("delivered=%d dropped=%d, want 8/4", st.Delivered, st.Dropped)
	}
}

// TestSharedReceiverOversizeAndUnroutable: frames larger than the slot
// are dropped for that subscription; frames the classifier rejects are
// counted unroutable.
func TestSharedReceiverOversizeAndUnroutable(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := Group{Video: 0, Channel: 1}
	sub, _ := s.Subscribe(g, 4, 32)

	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Join(g, s.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Send(g, testFrame(g, 64)); err != nil { // oversize for the 32-byte slot
		t.Fatal(err)
	}
	if _, err := hub.Send(g, []byte{1, 2}); err != nil { // too short to classify
		t.Fatal(err)
	}
	if _, err := hub.Send(g, testFrame(g, 32)); err != nil { // fits
		t.Fatal(err)
	}
	if slot := drain(t, sub); len(sub.Frame(slot)) != 32 {
		t.Fatalf("got %d bytes, want the 32-byte frame", len(sub.Frame(slot)))
	}
	if sub.Dropped() != 1 || s.Stats().Unroutable != 1 {
		t.Errorf("dropped=%d unroutable=%d, want 1/1", sub.Dropped(), s.Stats().Unroutable)
	}
}

// TestSharedReceiverCloseWakesConsumers: Close closes every
// subscription's Ready channel so consumer loops terminate.
func TestSharedReceiverCloseWakesConsumers(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := s.Subscribe(Group{Video: 0, Channel: 1}, 4, 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Ready() {
		}
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer not woken by Close")
	}
	if _, err := s.Subscribe(Group{Video: 0, Channel: 2}, 4, 128); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
}

// TestSharedRecvZeroAlloc is the alloc gate for the subscription
// adapter, mirroring TestSendZeroAlloc: fanning a datagram out to a
// populated group — classify, snapshot load, a copy into each ring,
// handoff — must not allocate.
func TestSharedRecvZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := Group{Video: 0, Channel: 1}
	var subs []*Subscription
	for i := 0; i < 4; i++ {
		sub, err := s.Subscribe(g, 8, 2048)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	frames := [][]byte{testFrame(g, 1052)}
	allocs := testing.AllocsPerRun(100, func() {
		s.fanOut(frames)
		for _, sub := range subs {
			sub.Release(<-sub.Ready())
		}
	})
	if allocs != 0 {
		t.Errorf("fan-out allocates %v objects per datagram, want 0", allocs)
	}
}

// TestSubscriptionsCopyOneGroup: subscribing to, and leaving, a group that
// keeps a subscription replaces that group's list only, at a cost that
// does not grow with the groups the receiver serves.
func TestSubscriptionsCopyOneGroup(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for ch := range 500 {
		if _, err := s.Subscribe(Group{Video: 1, Channel: ch}, 4, 64); err != nil {
			t.Fatal(err)
		}
	}
	g := Group{Video: 1, Channel: 7}
	before := s.subs.m.Load()
	per := allocBytes(200, func() {
		sub, err := s.Subscribe(g, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		s.Unsubscribe(sub)
	})
	if s.subs.m.Load() != before {
		t.Error("a subscription inside a subscribed group replaced the group map")
	}
	if per > 1024 {
		t.Errorf("Subscribe+Unsubscribe inside a subscribed group of 500 allocates %d B, want <= 1024 (one group's list)", per)
	}
}

// TestRecvHandlerSeesEveryRead: a receiver built with a Handler hands it
// every datagram, in wire order, whichever rung reads them — a coalesced
// same-group batch included — and has no subscriptions to offer.
func TestRecvHandlerSeesEveryRead(t *testing.T) {
	got := make(chan string, 64)
	s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Logf: t.Logf, Handle: func(frames [][]byte) time.Time {
		for _, f := range frames {
			got <- recvTag(f)
		}
		return time.Time{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := Group{Video: 4, Channel: 1}
	if _, err := s.Subscribe(g, 4, 64); err == nil {
		t.Error("Subscribe succeeded on a receiver that routes through its handler")
	}
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if hub.SetVectorized(true) {
		hub.SetGSO(true)
	}
	if err := hub.Join(g, s.Addr()); err != nil {
		t.Fatal(err)
	}
	var entries []BatchEntry
	for i := 0; i < 8; i++ {
		entries = append(entries, BatchEntry{Group: g, Frame: recvGoldenFrame(g, fmt.Sprintf("h%05d", i), 1052)})
	}
	if _, err := hub.SendBatch(entries); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		select {
		case tag := <-got:
			if want := fmt.Sprintf("h%05d", i); tag != want {
				t.Fatalf("frame %d = %q, want %q", i, tag, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("handler saw %d of 8 frames within 5s", i)
		}
	}
}
