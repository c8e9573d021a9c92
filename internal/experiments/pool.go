package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: any value <= 0 means "one
// worker per logical CPU" (GOMAXPROCS). Every pool entry point applies it,
// so callers pass their configuration knob through untouched instead of
// each re-implementing the default.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ParallelFor runs fn(worker, i) for every i in [0, n) on up to workers
// goroutines (<= 0 means GOMAXPROCS, per Workers), handing indices out
// through one shared atomic counter so the pool is work-conserving: no
// worker idles while indices remain. The worker argument (in [0, workers))
// lets callers keep cheap worker-local state (caches, RNGs) without
// locking. ParallelFor returns when every index has been processed; fn
// must do its own synchronization on shared state.
//
// This is the one scheduling primitive behind the experiment grids
// (Sweep), the differential audit (internal/audit) and the analysis
// server (internal/server): every heavy sweep in the repository drains
// through it.
func ParallelFor(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
