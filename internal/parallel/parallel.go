// Package parallel is a small fork-join helper shared by the compute
// kernels (weighted k-means assignment, experiment grids). It provides
// bounded worker pools with dynamic task pickup and chunking heuristics,
// plus a serial fallback below a size threshold so tiny inputs never pay
// goroutine overhead.
//
// Determinism contract: the helpers guarantee nothing about *execution*
// order, only about *result placement* — a task writes only what its
// index owns, and Chunks hands out the same boundaries regardless of
// scheduling. Callers that reduce floating-point partials must therefore
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

// minSerial is the default task count below which ForEach runs inline:
// spawning goroutines for a handful of microsecond tasks costs more than
// it saves.
const minSerial = 2

// Options configures a fork-join run.
type Options struct {
	// Workers caps the number of concurrent goroutines. Zero or negative
	// means runtime.GOMAXPROCS(0). One forces the serial path.
	Workers int
	// MinParallel is the task count below which the run stays serial even
	// when more workers are available (default 2).
	MinParallel int
	// Metrics, when non-nil, receives worker-pool accounting:
	// parallel_tasks_total (tasks executed), parallel_runs_total (fork-join
	// invocations), and parallel_serial_runs_total (invocations that took
	// the serial fallback).
	Metrics *metrics.Registry
}

// Workers resolves a requested parallelism degree: n <= 0 means
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), using at most opt.Workers
// goroutines. Tasks are picked up dynamically (an atomic cursor), so
// uneven task costs balance across workers. It returns when every task
// has completed.
func ForEach(n int, opt Options, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(opt.Workers)
	if w > n {
		w = n
	}
	min := opt.MinParallel
	if min <= 0 {
		min = minSerial
	}
	opt.Metrics.Counter("parallel_runs_total").Inc()
	opt.Metrics.Counter("parallel_tasks_total").Add(int64(n))
	if w <= 1 || n < min {
		opt.Metrics.Counter("parallel_serial_runs_total").Inc()
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

// Span is a contiguous half-open index range [Lo, Hi).
type Span struct {
	Lo, Hi int
}

// Chunks splits [0, n) into contiguous spans of at least minGrain items,
// targeting about four spans per worker so dynamic pickup can balance
// uneven chunk costs. The boundaries depend only on n, workers, and
// minGrain — never on scheduling — so chunk-indexed partial results can
// be reduced in a fixed order.
func Chunks(n, workers, minGrain int) []Span {
	if n <= 0 {
		return nil
	}
	if minGrain <= 0 {
		minGrain = 1
	}
	w := Workers(workers)
	grain := (n + 4*w - 1) / (4 * w)
	if grain < minGrain {
		grain = minGrain
	}
	spans := make([]Span, 0, (n+grain-1)/grain)
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		spans = append(spans, Span{Lo: lo, Hi: hi})
	}
	return spans
}
