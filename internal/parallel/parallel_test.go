package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/georep/georep/internal/metrics"
)

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 100, 1001} {
			hits := make([]atomic.Int32, n)
			ForEach(n, nil, func(i int) {
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: task %d ran %d times", procs, n, i, got)
				}
			}
		}
	}
}

func TestNilMetricsSafe(t *testing.T) {
	ForEach(5, nil, func(int) {}) // must not panic with nil registry
}

func TestMetricsAccounting(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	reg := metrics.NewRegistry()
	ForEach(10, reg, func(int) {})
	ForEach(1, reg, func(int) {}) // one task runs inline
	s := reg.Snapshot()
	if got := s.Counters["parallel_tasks_total"]; got != 11 {
		t.Fatalf("parallel_tasks_total = %d, want 11", got)
	}
	if got := s.Counters["parallel_runs_total"]; got != 2 {
		t.Fatalf("parallel_runs_total = %d, want 2", got)
	}
	if got := s.Counters["parallel_serial_runs_total"]; got != 1 {
		t.Fatalf("parallel_serial_runs_total = %d, want 1", got)
	}
}
