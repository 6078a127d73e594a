package server

import "time"

// clock is the server's one source of time: every reading and every wait
// it makes, socket deadlines aside, goes through it. wallClock is the one
// it runs on; the wheel's tests run the same tick loop on a virtual one.
type clock interface {
	// now reads the clock.
	now() time.Time
	// park waits on the shard's tick source until d from now (see
	// tickSource.wait).
	park(src tickSource, d time.Duration) (ticked bool, err error)
	// hold keeps the calling goroutine running until at and returns the
	// first reading at or after it.
	hold(at time.Time) time.Time
	// sleep waits d out; false if stop closes first.
	sleep(d time.Duration, stop <-chan struct{}) bool
}

// wallClock is the clock the server runs on.
type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) park(src tickSource, d time.Duration) (bool, error) { return src.wait(d) }

// hold spins: it is bounded by the shard's lead, at most a quarter of its
// tick, and a park for the rest could end past the instant.
func (wallClock) hold(at time.Time) time.Time {
	for {
		if now := time.Now(); !now.Before(at) {
			return now
		}
	}
}

func (wallClock) sleep(d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}
