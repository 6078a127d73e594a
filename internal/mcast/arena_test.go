package mcast

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// arenaIntact fails the test unless every slot of every arena is back on
// its free stack exactly once: nothing leaked, nothing freed twice.
func arenaIntact(t *testing.T, s *SharedReceiver) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for size, a := range s.arenas {
		a.mu.Lock()
		total := 0
		if p := a.pages.Load(); p != nil {
			total = len(*p) * arenaPageSlots
		}
		free := append([]int(nil), a.free...)
		a.mu.Unlock()
		sort.Ints(free)
		for i, slot := range free {
			if slot != i {
				t.Fatalf("arena %d: free stack %v is not a permutation of 0..%d (slot leaked or freed twice)", size, free, total-1)
			}
		}
		if len(free) != total {
			t.Fatalf("arena %d: %d of %d slots free", size, len(free), total)
		}
	}
}

// TestArenaUnsubscribeWhileDelivering: subscribers come and go on a group
// that never stops receiving, some unsubscribing with frames still
// queued, some while still holding a slot. However a detach races the
// read loop's delivery, no slot may leak (slots in use returns to zero,
// every slot back on the free stack once), none may be handed to two
// holders at once (a held frame never changes under its reader), and the
// arena must stay sized to the frames in flight, not to the number of
// subscriptions that ever existed.
func TestArenaUnsubscribeWhileDelivering(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	g := Group{Video: 3, Channel: 7}
	if err := hub.Join(g, s.Addr()); err != nil {
		t.Fatal(err)
	}

	// Every datagram is its tag byte repeated, so a reader can tell a
	// frame that was overwritten while it held the slot.
	const frameLen, depth, subscribers, rounds = 96, 4, 6, 60
	send := func(tag byte) {
		frame := testFrame(g, frameLen)
		for i := 4; i < frameLen; i++ {
			frame[i] = tag
		}
		if _, err := hub.Send(g, frame); err != nil {
			t.Error(err)
		}
	}
	stop := make(chan struct{})
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		for tag := byte(1); ; tag++ {
			select {
			case <-stop:
				return
			default:
				send(tag)
			}
		}
	}()

	var torn atomic.Int64
	intact := func(frame []byte) bool {
		for _, b := range frame[4:] {
			if b != frame[4] {
				return false
			}
		}
		return len(frame) == frameLen
	}
	var wg sync.WaitGroup
	for w := 0; w < subscribers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sub, err := s.Subscribe(g, depth, 128)
				if err != nil {
					t.Error(err)
					return
				}
				held := -1
				for i := 0; i <= (w+r)%3; i++ {
					select {
					case slot := <-sub.Ready():
						if held >= 0 {
							sub.Release(held)
						}
						held = slot
						first := intact(sub.Frame(slot))
						time.Sleep(50 * time.Microsecond) // hold it across a few deliveries
						if !first || !intact(sub.Frame(slot)) {
							torn.Add(1)
						}
					case <-time.After(5 * time.Second):
						t.Error("no delivery within 5s")
						return
					}
				}
				// Detach with the queue likely non-empty; every other
				// round, with a slot still in hand.
				if r%2 == 0 && held >= 0 {
					sub.Release(held)
					held = -1
				}
				s.Unsubscribe(sub)
				if held >= 0 {
					sub.Release(held)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sender.Wait()
	if n := torn.Load(); n != 0 {
		t.Errorf("%d held frames changed under their reader: a slot was handed out twice", n)
	}

	// The read loop retires a detached subscription on its next pass, so
	// turn it with one more datagram per look.
	for deadline := time.Now().Add(5 * time.Second); s.SlotsInUse() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still in use with no subscription left", s.SlotsInUse())
		}
		send(0)
		time.Sleep(time.Millisecond)
	}
	arenaIntact(t, s)
	// Live subscriptions pin at most their quotas; detached ones keep
	// theirs only until the read loop's next pass, so a few generations
	// may overlap — never the 360 this test created.
	const bound = 3 * subscribers * depth
	if peak := s.SlotsPeak(); peak > bound {
		t.Errorf("slot peak %d, want <= %d (a few generations of %d subscriptions at quota %d)", peak, bound, subscribers, depth)
	}
	s.mu.Lock()
	pages := len(*s.arenas[128].pages.Load())
	s.mu.Unlock()
	if max := (bound + arenaPageSlots - 1) / arenaPageSlots; pages > max {
		t.Errorf("arena grew to %d pages over %d subscriptions; %d cover the peak", pages, subscribers*rounds, max)
	}
}
