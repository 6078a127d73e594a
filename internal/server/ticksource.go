// The wheel's tick source: what a shard goroutine parks on between ticks.
//
// The broadcast grid is exact — epoch + n·period + c·spacing — but a
// shard that sleeps on time.Timer does not wake on it. An idle Go process
// waits for its timers inside epoll_wait, whose timeout the runtime
// passes in whole milliseconds with any sub-millisecond remainder rounded
// up (runtime/netpoll_epoll.go), so a 17.5 ms sleep is epoll_wait(17) +
// epoll_wait(1) and ends at 18 ms: every tick leaves 0.3–1 ms late, and
// with it every datagram of the tick. On linux the shard therefore arms
// a timerfd and reads it through the netpoller (ticksource_linux.go): the
// kernel's hrtimer makes the fd readable at the instant asked for, that
// readiness event is what ends the epoll_wait, and the goroutine is
// parked meanwhile — it holds no P, so the control plane is not starved
// the way it is by a wait that is all nanosleep or spin. The shard does
// finish each wait with a hold on the clock, but one bounded by the wake
// latency and staging time it has measured (leadEstimator, together at
// most maxWakeLead), not by the length of the wait. Staging ends with the
// send-path warm (mcast.Hub.Warm) when anything is heard, so the staging
// time the lead covers includes it: a transmit path left idle for a tick
// is cold, and it is the warm, not the tick's first datagram, that pays
// for that before the instant.
//
// Everywhere else, and whenever the timerfd cannot be created or stops
// answering, the shard waits on time.Timer exactly as before. Which one
// is chosen from what the code can observe, never from configuration.
package server

import (
	"sync/atomic"
	"time"
)

// Tick source names, as /status reports them.
const (
	tickTimerfd = "timerfd"
	tickTimer   = "timer"
)

// tickSource is one shard's wait between ticks. wait and close belong to
// the shard goroutine; wake and poke may come from any goroutine.
type tickSource interface {
	// wait parks the calling goroutine until d has elapsed — never less,
	// unless poked; a non-positive d returns at once — and reports true.
	// It reports false when the server is stopping, and an error when the
	// source itself failed and the shard must fall back to another.
	wait(d time.Duration) (ticked bool, err error)
	// wake makes a wait in progress, and every later one, report false
	// promptly. The server calls it after closing its stop channel.
	wake()
	// poke ends a wait in progress at once, with a tick, or, with none
	// in progress, the next wait.
	poke()
	// close releases what the source holds.
	close()
}

// maxWakeLead bounds how far ahead of a grid instant a shard arms its tick
// source, and with it the hold on the clock that follows the park. A shard
// also never leads by more than a quarter of its quantum.
const maxWakeLead = 300 * time.Microsecond

// leadEstimator is a shard's estimate of one thing that stands between
// its park and the instant a tick leaves: its wake latency — how long
// after the instant its tick source was armed for the goroutine is
// running again — or its staging time — how long building the tick's
// batch takes. The shard arms the source the sum of the two ahead of each
// grid instant — what the ETF qdisc calls its delta — and holds on the
// clock for the rest. The estimate is an exponentially weighted mean
// (weight 1/8) of the measured durations, 0 until there is one. Both are
// skewed — mostly a little under their mean, now and then far over — so
// leading by the mean already has the batch built before the instant more
// often than not, and no margin is added on top: a margin is hold time,
// which is CPU. Every sample is clamped to the shard's bound first, so a
// descheduled process moves the estimate by an eighth of the bound and is
// forgotten within a few ticks.
//
// observe belongs to the shard goroutine; value may be read from any.
type leadEstimator struct {
	mean atomic.Int64 // nanoseconds; 0: no sample yet
}

// observe folds in one measured duration; max is the shard's bound. A
// negative duration — the source returned early — is no measurement.
func (l *leadEstimator) observe(d, max time.Duration) {
	if d < 0 {
		return
	}
	sample := int64(min(d, max))
	if mean := l.mean.Load(); mean != 0 {
		sample = mean + (sample-mean)/8
	}
	l.mean.Store(sample)
}

// value is the current estimate.
func (l *leadEstimator) value() time.Duration { return time.Duration(l.mean.Load()) }

// newFdTicks creates the timerfd source. A variable so a test can make
// creation fail, or hand out a broken source, and drive the fallback.
var newFdTicks = openTimerfd

// timerTicks is the portable source: the runtime timer the wheel has
// always slept on. The stop channel is its wake, poked (one slot) its poke.
type timerTicks struct {
	timer *time.Timer
	stop  <-chan struct{}
	poked chan struct{}
}

func newTimerTicks(stop <-chan struct{}) *timerTicks {
	return &timerTicks{timer: time.NewTimer(time.Hour), stop: stop, poked: make(chan struct{}, 1)}
}

func (t *timerTicks) wait(d time.Duration) (bool, error) {
	t.timer.Reset(d)
	select {
	case <-t.stop:
		return false, nil
	case <-t.timer.C:
		return true, nil
	case <-t.poked:
		if !t.timer.Stop() {
			select { // it fired meanwhile: the next wait must not see it
			case <-t.timer.C:
			default:
			}
		}
		return true, nil
	}
}

func (t *timerTicks) wake() {}

func (t *timerTicks) poke() {
	select {
	case t.poked <- struct{}{}:
	default:
	}
}

func (t *timerTicks) close() { t.timer.Stop() }
