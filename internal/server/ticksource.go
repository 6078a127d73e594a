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
// parked meanwhile — it holds no P, so the control plane is never
// starved the way it is by a wait that ends in nanosleep or a spin.
//
// Everywhere else, and whenever the timerfd cannot be created or stops
// answering, the shard waits on time.Timer exactly as before. Which one
// is chosen from what the code can observe, never from configuration.
package server

import "time"

// Tick source names, as /status reports them.
const (
	tickTimerfd = "timerfd"
	tickTimer   = "timer"
)

// tickSource is one shard's wait between ticks. wait and close belong to
// the shard goroutine; wake may come from any goroutine.
type tickSource interface {
	// wait parks the calling goroutine until d has elapsed — never less;
	// a non-positive d returns at once — and reports true. It reports
	// false when the server is stopping, and an error when the source
	// itself failed and the shard must fall back to another.
	wait(d time.Duration) (ticked bool, err error)
	// wake makes a wait in progress, and every later one, report false
	// promptly. The server calls it after closing its stop channel.
	wake()
	// close releases what the source holds.
	close()
}

// newFdTicks creates the timerfd source. A variable so a test can make
// creation fail, or hand out a broken source, and drive the fallback.
var newFdTicks = openTimerfd

// timerTicks is the portable source: the runtime timer the wheel has
// always slept on. The stop channel is its wake.
type timerTicks struct {
	timer *time.Timer
	stop  <-chan struct{}
}

func newTimerTicks(stop <-chan struct{}) *timerTicks {
	return &timerTicks{timer: time.NewTimer(time.Hour), stop: stop}
}

func (t *timerTicks) wait(d time.Duration) (bool, error) {
	t.timer.Reset(d)
	select {
	case <-t.stop:
		return false, nil
	case <-t.timer.C:
		return true, nil
	}
}

func (t *timerTicks) wake() {}

func (t *timerTicks) close() { t.timer.Stop() }
