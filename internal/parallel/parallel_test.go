package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/georep/georep/internal/metrics"
)

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 2, 3, 100, 1001} {
			hits := make([]atomic.Int32, n)
			ForEach(n, Options{Workers: workers}, func(i int) {
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestWorkersResolvesDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestChunksCoverRangeExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, workers := range []int{1, 3, 8} {
			for _, grain := range []int{0, 1, 16, 2000} {
				spans := Chunks(n, workers, grain)
				next := 0
				for _, s := range spans {
					if s.Lo != next || s.Hi <= s.Lo {
						t.Fatalf("n=%d workers=%d grain=%d: bad span %+v after %d", n, workers, grain, s, next)
					}
					next = s.Hi
				}
				if next != n {
					t.Fatalf("n=%d workers=%d grain=%d: spans cover [0,%d), want [0,%d)", n, workers, grain, next, n)
				}
			}
		}
	}
}

func TestChunksDeterministicForFixedInputs(t *testing.T) {
	a := Chunks(1000, 4, 8)
	b := Chunks(1000, 4, 8)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	ForEach(10, Options{Workers: 4, Metrics: reg}, func(int) {})
	ForEach(1, Options{Workers: 4, Metrics: reg}, func(int) {}) // serial fallback
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

func TestNilMetricsSafe(t *testing.T) {
	ForEach(5, Options{}, func(int) {}) // must not panic with nil registry
}
