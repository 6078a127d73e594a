package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"skyscraper/internal/des"
	"skyscraper/internal/metrics"
)

// SweepResult aggregates a population of simulated clients under one
// scheme.
type SweepResult struct {
	Scheme string
	// WaitMin, BufferMbit and Streams summarize per-client measurements.
	WaitMin    metrics.Summary
	BufferMbit metrics.Summary
	Streams    metrics.Summary
	// Clients is the population size.
	Clients int
}

// SweepOption configures Sweep.
type SweepOption func(*sweepConfig)

type sweepConfig struct{ workers int }

// Workers sets the sweep's worker-pool size. n <= 0 (and the default)
// selects runtime.GOMAXPROCS(0). The worker count never changes results:
// see the determinism contract on Sweep.
func Workers(n int) SweepOption {
	return func(c *sweepConfig) { c.workers = n }
}

// sweepShardSize is the number of clients accumulated per shard. Shard
// boundaries depend only on the population size — never on the worker
// count — and shard summaries are merged in index order, so the sequence
// of floating-point additions behind every statistic is identical for any
// pool size.
const sweepShardSize = 256

// shardAcc is one shard's private accumulator; workers never share one.
type shardAcc struct {
	wait, buffer, streams metrics.Summary
	err                   error
	errClient             int
}

// Sweep simulates n clients with arrival times drawn uniformly over
// [0, windowMin) and videos drawn uniformly over the broadcast set,
// reporting aggregate statistics. It fails fast on any protocol violation.
//
// The population is sharded across a worker pool (Workers option; default
// runtime.GOMAXPROCS(0)). Client i's arrival and video come from its own
// substream source, des.SubSeed(seed, i), so its draws do not depend on
// which worker plays it or in what order: for a given seed the result —
// every count, sum, min, max and quantile — is bit-identical across any
// worker count, including 1. On protocol violations the pool drains early
// and the violation with the lowest client index is returned, again
// independent of scheduling.
func Sweep(cs ClientSim, n int, windowMin float64, videos int, seed uint64, opts ...SweepOption) (*SweepResult, error) {
	if n <= 0 || !(windowMin > 0) || math.IsInf(windowMin, 1) || videos <= 0 {
		return nil, fmt.Errorf("sim: Sweep needs positive n, videos and a finite window (got %d, %v, %d)", n, windowMin, videos)
	}
	var cfg sweepConfig
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := (n + sweepShardSize - 1) / sweepShardSize
	if workers > shards {
		workers = shards
	}

	accs := make([]shardAcc, shards)
	var (
		next  atomic.Int64 // next unclaimed shard index
		errAt atomic.Int64 // lowest erroring client index seen so far
		wg    sync.WaitGroup
	)
	errAt.Store(int64(n))
	worker := func() {
		defer wg.Done()
		for {
			si := int(next.Add(1) - 1)
			if si >= shards {
				return
			}
			lo := si * sweepShardSize
			// Shards are claimed in ascending order, so once a shard
			// starts at or past the lowest known violation, every
			// remaining one does too.
			if int64(lo) >= errAt.Load() {
				return
			}
			hi := lo + sweepShardSize
			if hi > n {
				hi = n
			}
			acc := &accs[si]
			acc.wait.ReserveHint(hi - lo)
			acc.buffer.ReserveHint(hi - lo)
			acc.streams.ReserveHint(hi - lo)
			for i := lo; i < hi; i++ {
				// Clients below the lowest known violation must still be
				// played — one of them may violate at a lower index —
				// which is what makes the returned error deterministic.
				if int64(i) >= errAt.Load() {
					break
				}
				r := des.NewRand(des.SubSeed(seed, uint64(i)))
				arrival := r.Float64() * windowMin
				video := r.Intn(videos)
				cr, err := cs.Client(arrival, video)
				if err != nil {
					acc.err = fmt.Errorf("sim: client %d (arrival %.4f, video %d): %w", i, arrival, video, err)
					acc.errClient = i
					for {
						cur := errAt.Load()
						if int64(i) >= cur || errAt.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					break
				}
				acc.wait.Observe(cr.WaitMin)
				acc.buffer.Observe(cr.MaxBufferMbit)
				acc.streams.Observe(float64(cr.MaxStreams))
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	var firstErr error
	first := n
	for i := range accs {
		if accs[i].err != nil && accs[i].errClient < first {
			first, firstErr = accs[i].errClient, accs[i].err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	res := &SweepResult{Scheme: cs.Name(), Clients: n}
	res.WaitMin.ReserveHint(n)
	res.BufferMbit.ReserveHint(n)
	res.Streams.ReserveHint(n)
	for i := range accs {
		res.WaitMin.Merge(&accs[i].wait)
		res.BufferMbit.Merge(&accs[i].buffer)
		res.Streams.Merge(&accs[i].streams)
	}
	return res, nil
}
