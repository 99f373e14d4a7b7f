// Package parallel is the fork-join helper of the experiment harness:
// one function that spreads coarse, independent tasks (world builds,
// grid cells) over GOMAXPROCS goroutines.
//
// Determinism contract: ForEach guarantees nothing about *execution*
// order, only about *result placement* — a task writes only what its
// index owns. Callers that reduce floating-point partials must therefore
// reduce them in index order themselves; every caller in this repository
// does exactly that, which is why results are byte-identical at any
// GOMAXPROCS.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/georep/georep/internal/metrics"
)

// ForEach runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines and returns when every task has completed. Tasks are picked
// up dynamically (an atomic cursor), so uneven task costs balance across
// workers; with one worker or one task it runs inline. reg, when
// non-nil, receives parallel_runs_total (invocations),
// parallel_tasks_total (tasks executed) and parallel_serial_runs_total
// (invocations that ran inline).
func ForEach(n int, reg *metrics.Registry, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	reg.Counter("parallel_runs_total").Inc()
	reg.Counter("parallel_tasks_total").Add(int64(n))
	if w <= 1 {
		reg.Counter("parallel_serial_runs_total").Inc()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
