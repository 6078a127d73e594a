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
	for deadline := time.Now().Add(5 * time.Second); s.Stats().SlotsInUse != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still in use with no subscription left", s.Stats().SlotsInUse)
		}
		send(0)
		time.Sleep(time.Millisecond)
	}
	arenaIntact(t, s)
	// Live subscriptions pin at most their quotas; detached ones keep
	// theirs only until the read loop's next pass, so a few generations
	// may overlap — never the 360 this test created.
	const bound = 3 * subscribers * depth
	if peak := s.Stats().SlotsPeak; peak > bound {
		t.Errorf("slot peak %d, want <= %d (a few generations of %d subscriptions at quota %d)", peak, bound, subscribers, depth)
	}
	s.mu.Lock()
	pages := len(*s.arenas[128].pages.Load())
	s.mu.Unlock()
	if max := (bound + arenaPageSlots - 1) / arenaPageSlots; pages > max {
		t.Errorf("arena grew to %d pages over %d subscriptions; %d cover the peak", pages, subscribers*rounds, max)
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestArenaSharedSlotRefcount pins the sharing contract: a datagram
// takes one slot per slot size among its group's subscriptions, not one
// per delivery — three subscriptions of one size share a slot index, a
// fourth of another size gets its own — and a shared slot goes back to
// its arena only on the last Release, whatever order the holders
// release in.
func TestArenaSharedSlotRefcount(t *testing.T) {
	s, err := NewSharedReceiver(0, testClassify)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := Group{Video: 2, Channel: 5}
	var subs []*Subscription
	for _, slotBytes := range []int{128, 128, 256, 128} {
		sub, err := s.Subscribe(g, 32, slotBytes)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	orders := permutations(len(subs)) // datagram k is released in order k
	for k := range orders {
		frame := testFrame(g, 96)
		frame[4] = byte(k)
		s.dispatch(frame)
	}
	n := int64(len(orders))
	if got := s.Stats().Delivered; got != n*int64(len(subs)) {
		t.Fatalf("delivered %d, want %d (one per datagram and subscription)", got, n*int64(len(subs)))
	}
	if st := s.Stats(); st.SlotsPeak != 2*n || st.SlotsInUse != 2*n {
		t.Fatalf("slot peak %d, in use %d; want %d each (one per datagram and slot size)", st.SlotsPeak, st.SlotsInUse, 2*n)
	}
	slots := make([][]int, len(subs))
	for i, sub := range subs {
		for k := 0; k < int(n); k++ {
			slots[i] = append(slots[i], drain(t, sub))
			if f := sub.Frame(slots[i][k]); len(f) != 96 || f[4] != byte(k) {
				t.Fatalf("subscription %d datagram %d: got %d bytes tagged %d", i, k, len(f), f[4])
			}
		}
	}
	for k := range orders {
		if slots[0][k] != slots[1][k] || slots[0][k] != slots[3][k] {
			t.Fatalf("datagram %d sits in slots %d/%d/%d of the shared 128-byte arena, want one", k, slots[0][k], slots[1][k], slots[3][k])
		}
	}

	want := 2 * n
	for k, order := range orders {
		left := map[*slotArena]int{subs[0].arena: 3, subs[2].arena: 1}
		for _, i := range order {
			subs[i].Release(slots[i][k])
			if left[subs[i].arena]--; left[subs[i].arena] == 0 {
				want--
			}
			if got := s.Stats().SlotsInUse; got != want {
				t.Fatalf("datagram %d, release order %v, after subscription %d: %d slots in use, want %d", k, order, i, got, want)
			}
		}
	}
	arenaIntact(t, s)
}

// TestArenaSharedHoldersOutOfStep is the torn-frame check for shared
// slots: three subscribers per group, on two groups, each holding a
// different number of frames and releasing them in a different order
// (oldest first, newest first, alternating), while the groups never stop
// receiving. A slot freed on any release but the last would be refilled
// under a holder still reading it; no held frame may change, and every
// slot must be back on its free stack once all are released.
func TestArenaSharedHoldersOutOfStep(t *testing.T) {
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
	groups := []Group{{Video: 4, Channel: 1}, {Video: 4, Channel: 2}}
	for _, g := range groups {
		if err := hub.Join(g, s.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	const frameLen, depth, perGroup, receipts = 96, 4, 3, 150
	type sub struct {
		*Subscription
		hold int // frames held at once
	}
	var all []sub
	for _, g := range groups {
		for w := 0; w < perGroup; w++ {
			ss, err := s.Subscribe(g, depth, 128)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, sub{ss, w + 1})
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
			}
			for _, g := range groups {
				frame := testFrame(g, frameLen)
				for i := 4; i < frameLen; i++ {
					frame[i] = tag
				}
				if _, err := hub.Send(g, frame); err != nil {
					t.Error(err)
				}
			}
		}
	}()

	var torn atomic.Int64
	type held struct {
		slot int
		tag  byte
	}
	check := func(sub sub, h held) {
		f := sub.Frame(h.slot)
		if len(f) != frameLen || f[4] != h.tag {
			torn.Add(1)
			return
		}
		for _, b := range f[4:] {
			if b != h.tag {
				torn.Add(1)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w, ss := range all {
		wg.Add(1)
		go func(w int, ss sub) {
			defer wg.Done()
			var window []held
			for r := 0; r < receipts; r++ {
				select {
				case slot := <-ss.Ready():
					window = append(window, held{slot, ss.Frame(slot)[4]})
					check(ss, window[len(window)-1])
				case <-time.After(5 * time.Second):
					t.Error("no delivery within 5s")
					return
				}
				time.Sleep(20 * time.Microsecond)
				if len(window) <= ss.hold {
					continue
				}
				at := 0 // oldest first
				switch {
				case w%3 == 1:
					at = len(window) - 1 // newest first
				case w%3 == 2 && r%2 == 1:
					at = len(window) / 2
				}
				check(ss, window[at])
				ss.Release(window[at].slot)
				window = append(window[:at], window[at+1:]...)
			}
			for _, h := range window {
				check(ss, h)
				ss.Release(h.slot)
			}
		}(w, ss)
	}
	wg.Wait()
	close(stop)
	sender.Wait()
	if n := torn.Load(); n != 0 {
		t.Errorf("%d held frames changed under their reader: a shared slot was refilled before its last Release", n)
	}
	for _, ss := range all {
		s.Unsubscribe(ss.Subscription)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().SlotsInUse != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still in use with no subscription left", s.Stats().SlotsInUse)
		}
		if _, err := hub.Send(groups[0], testFrame(groups[0], frameLen)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	arenaIntact(t, s)
}
