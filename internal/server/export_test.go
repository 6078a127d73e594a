package server

import (
	"sync/atomic"
	"time"
)

// faultyClock is the wall clock with holds that panic: the first `panics`
// holds for an instant at least `after` past the server's epoch.
type faultyClock struct {
	wallClock
	srv    *Server
	after  time.Duration
	panics atomic.Int64
}

func (c *faultyClock) hold(at time.Time) time.Time {
	if at.Sub(c.srv.epoch) >= c.after && c.panics.Add(-1) >= 0 {
		panic("injected shard panic")
	}
	return c.wallClock.hold(at)
}

// PanicShards makes the first n egress-shard holds at least `after` past
// the epoch panic — the clock failing under a live server; call it
// between New and Start.
func PanicShards(s *Server, n int, after time.Duration) {
	c := &faultyClock{srv: s, after: after}
	c.panics.Store(int64(n))
	s.clock = c
}
