package mcast

import (
	"net"
	"testing"
	"time"
)

// rungs runs f once per read rung the platform offers: recvmmsg, then
// single reads (SetRecvBatched(false)).
func rungs(t *testing.T, f func(t *testing.T, batched bool)) {
	for _, batched := range []bool{true, false} {
		t.Run(map[bool]string{true: "recvmmsg", false: "single"}[batched], func(t *testing.T) {
			if batched && !recvCompiled {
				t.Skip("no recvmmsg rung in this build")
			}
			f(t, batched)
		})
	}
}

// wakeReceiver opens a receiver whose handler is h on the given rung.
func wakeReceiver(t *testing.T, batched bool, h Handler) *SharedReceiver {
	t.Helper()
	s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Handle: h, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if batched && !s.RecvBatched() {
		t.Skip("recvmmsg rung not live")
	}
	s.SetRecvBatched(batched)
	return s
}

// TestRecvWakeNeverLost: 10k Wakes, each issued while the loop is still
// inside the handler call the previous one caused or re-arming the
// deadline that call asked for (a new one each time, an hour out), each
// produce a handler call with no frames. A lost Wake would leave the
// loop waiting out the hour.
func TestRecvWakeNeverLost(t *testing.T) {
	rungs(t, func(t *testing.T, batched bool) {
		const wakes = 10000
		calls := make(chan struct{}, wakes+1)
		n := 0
		s := wakeReceiver(t, batched, func(frames [][]byte) time.Time {
			if frames == nil {
				n++
				calls <- struct{}{}
			}
			return time.Now().Add(time.Hour + time.Duration(n))
		})
		for i := range wakes {
			s.Wake()
			select {
			case <-calls:
			case <-time.After(5 * time.Second):
				t.Fatalf("Wake %d of %d produced no handler call within 5s", i+1, wakes)
			}
		}
		if st := s.Stats(); st.ReadErrors != 0 {
			t.Errorf("%d Wakes counted %d read errors, want 0", wakes, st.ReadErrors)
		}
	})
}

// TestRecvDeadlineIsNotAnError: a handler that asks to run again every
// millisecond is called with no frames at each instant, never before
// it, and the expiries move neither ReadErrors nor the error streak
// behind the backoff.
func TestRecvDeadlineIsNotAnError(t *testing.T) {
	rungs(t, func(t *testing.T, batched bool) {
		type call struct {
			early  bool
			streak int
		}
		calls := make(chan call, 1024)
		var next time.Time
		var s *SharedReceiver
		s = wakeReceiver(t, batched, func(frames [][]byte) time.Time {
			if frames == nil {
				select {
				case calls <- call{early: !next.IsZero() && time.Now().Before(next), streak: s.errStreak}:
				default:
				}
			}
			next = time.Now().Add(time.Millisecond)
			return next
		})
		s.Wake()
		for i := range 50 {
			select {
			case c := <-calls:
				if c.early {
					t.Fatalf("call %d came before the instant its handler asked for", i)
				}
				if c.streak != 0 {
					t.Fatalf("call %d: error streak %d after deadline expiries, want 0", i, c.streak)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of 50 deadline calls within 5s", i)
			}
		}
		if st := s.Stats(); st.ReadErrors != 0 {
			t.Errorf("50 deadline expiries counted %d read errors, want 0", st.ReadErrors)
		}
	})
}

// TestRecvDrainBeforeDeadline: datagrams that reach the socket while the
// handler is busy, past the instant it asked for, are handed to it
// before the call with no frames that instant causes. This is the
// ordering that keeps a paused audience from taking queued chunks for
// gaps.
func TestRecvDrainBeforeDeadline(t *testing.T) {
	rungs(t, func(t *testing.T, batched bool) {
		if !recvCompiled {
			t.Skip("the portable build reads nothing ahead")
		}
		const sent = 100
		tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		var to *net.UDPAddr
		log := make(chan int, 4*sent) // frames per call; -1 for a call with none
		nils := 0
		s := wakeReceiver(t, batched, func(frames [][]byte) time.Time {
			if frames != nil {
				log <- len(frames)
				return time.Time{}
			}
			log <- -1
			if nils++; nils > 1 {
				return time.Time{}
			}
			// Busy past the instant this call asks for, while the datagrams
			// land in the socket.
			for range sent {
				if _, err := tx.WriteToUDP([]byte("queued"), to); err != nil {
					t.Error(err)
				}
			}
			time.Sleep(20 * time.Millisecond)
			return time.Now().Add(-time.Millisecond)
		})
		to = s.Addr()
		s.Wake()
		if got := <-log; got != -1 {
			t.Fatalf("first call had %d frames, want the Wake's empty one", got)
		}
		heard := 0
		for heard < sent {
			select {
			case got := <-log:
				if got < 0 {
					t.Fatalf("the deadline call came after %d of %d queued datagrams", heard, sent)
				}
				heard += got
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d queued datagrams within 5s", heard, sent)
			}
		}
		select {
		case got := <-log:
			if got != -1 {
				t.Fatalf("after the queue, a call with %d frames; want the deadline's empty one", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no deadline call after the queued datagrams")
		}
	})
}
