package harness

import (
	"sync"
	"time"
)

// A shared VM is paused by its host: whole, or one vCPU at a time, for tens
// of milliseconds a few times a minute and, once in the 80 minutes of runs
// behind the README's tables, for longer than 400 ms. The broadcast runs on
// a wall-clock grid and a viewer's receive cutoff is 6 units past a
// fragment's end, so a pause that long costs most of a wave's sessions a
// chunk whatever the programs under test do (README, finding 8). Such a
// wave measures the host. The orchestrator therefore watches for pauses
// itself — from its own process, so that a stall inside the server or the
// audience (a collection, a held lock) is never mistaken for one — and
// RunLive runs a paused wave again.

const (
	// pauseLimit is the pause that voids a wave. Every workload sits out
	// shorter ones by construction (see Patience).
	pauseLimit = 200 * time.Millisecond
	// maxReruns bounds the waves one run may repeat, whatever the reason:
	// the run has to end inside the driver's time limit.
	maxReruns = 2

	pauseTick  = 5 * time.Millisecond
	pauseFloor = 2 * time.Millisecond // shorter oversleeps are timer slack, and are not kept
)

// pause is one oversleep of a watcher thread.
type pause struct {
	from time.Time
	d    time.Duration
}

// PauseWatch records how long the host kept this process's watcher
// threads, one pinned to each CPU, from running.
type PauseWatch struct {
	mu     sync.Mutex
	pauses []pause
}

// Longest is the longest pause that overlapped [from, to]; a nil watch
// (a platform without one) saw none.
func (w *PauseWatch) Longest(from, to time.Time) time.Duration {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var longest time.Duration
	for _, p := range w.pauses {
		if p.from.Before(to) && p.from.Add(p.d).After(from) {
			longest = max(longest, p.d)
		}
	}
	return longest
}
