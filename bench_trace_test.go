package georep_test

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/trace"
)

// BenchmarkTraceOverhead measures what the tracing layer adds to a full
// manager epoch — 100 recorded accesses plus the collection/decision
// cycle — with the flight recorder off (nil tracer, every span call a
// no-op) and on. Tracing is per-epoch, not per-access, so the enabled
// run should stay within a few percent of disabled;
// scripts/bench_overhead.sh trace turns that expectation into a gate and
// records both numbers in BENCH_trace.json.
func BenchmarkTraceOverhead(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	candidates := make([]int, 20)
	for i := range candidates {
		candidates[i] = i
	}
	epoch := func(b *testing.B, tracer *trace.Tracer) {
		// Both variants start from a settled heap: the sub-benchmarks run
		// back to back in one process, and whichever runs second would
		// otherwise inherit the first one's garbage as pure bias.
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mgr, err := replica.NewManager(replica.Config{K: 3, M: 10, Dims: 3, Tracer: tracer},
				candidates, w.Coords, nil)
			if err != nil {
				b.Fatal(err)
			}
			for c := 20; c < 120; c++ {
				if _, err := mgr.Record(w.Coords[c], 1); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := mgr.EndEpoch(rand.New(rand.NewSource(3))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		epoch(b, nil)
	})
	b.Run("enabled", func(b *testing.B) {
		rec := trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
		epoch(b, trace.New(rec, "coord"))
		if rec.Len() == 0 {
			b.Fatal("enabled run recorded no traces")
		}
	})
}
