package er

import (
	"runtime"
	"sync"
)

// The er kernels share one persistent worker pool, started lazily on first
// use and sized to GOMAXPROCS at that moment. It runs the batch MonteCarlo
// estimator's scenario chunks and MonteCarloInc's construction-time mask
// precompute; the incremental oracle's Gain and Add stay on the caller's
// goroutine.
//
// Determinism contract: the pool only ever executes *sharded* work whose
// results land in fixed per-index slots (a scenario's rank, a path's
// survival mask) and are folded on the caller's goroutine in index order,
// so results are bit-identical to a serial run regardless of which worker
// ran which shard (DESIGN.md §7).
var (
	poolOnce    sync.Once
	poolTasks   chan poolTask
	poolWorkers int
)

// poolTask carries the shard index alongside the shard function, so one
// function value serves every shard of a call.
type poolTask struct {
	fn    func(shard int)
	shard int
	wg    *sync.WaitGroup
}

func startPool() {
	poolWorkers = runtime.GOMAXPROCS(0)
	if poolWorkers < 1 {
		poolWorkers = 1
	}
	if poolWorkers == 1 {
		return // single-threaded: runShards executes everything inline
	}
	poolTasks = make(chan poolTask, 4*poolWorkers)
	for w := 0; w < poolWorkers-1; w++ {
		go func() {
			for t := range poolTasks {
				t.fn(t.shard)
				t.wg.Done()
			}
		}()
	}
}

// poolSize returns how many shards the pool can run concurrently (the
// calling goroutine counts as one worker).
func poolSize() int {
	poolOnce.Do(startPool)
	return poolWorkers
}

// runShards invokes fn(shard) for every shard in [0, shards) and waits for
// all of them. Shard 0 runs on the calling goroutine, the rest on pool
// workers. fn must not call runShards itself (single-level parallelism).
func runShards(shards int, fn func(shard int)) {
	poolOnce.Do(startPool)
	if shards <= 1 || poolTasks == nil {
		for s := 0; s < shards; s++ {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		poolTasks <- poolTask{fn: fn, shard: s, wg: &wg}
	}
	fn(0)
	wg.Wait()
}
