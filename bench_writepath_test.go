package georep_test

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/georep/georep/internal/replica"
)

// BenchmarkWritePathOverhead measures what enabling the leader-based
// write path adds to a read-dominated manager epoch — 100 recorded
// accesses plus the collection/decision cycle. Leader election and
// write-fanout costing run once per epoch, not per access, so the
// enabled run must stay within a few percent of disabled;
// scripts/bench_overhead.sh writepath turns that expectation into a gate
// and records both numbers in BENCH_writepath.json.
func BenchmarkWritePathOverhead(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	candidates := make([]int, 20)
	for i := range candidates {
		candidates[i] = i
	}
	epoch := func(b *testing.B, writeFraction float64) {
		// Both variants start from a settled heap: the sub-benchmarks run
		// back to back in one process, and whichever runs second would
		// otherwise inherit the first one's garbage as pure bias.
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mgr, err := replica.NewManager(replica.Config{K: 3, M: 10, Dims: 3, WriteFraction: writeFraction},
				candidates, w.Coords, nil)
			if err != nil {
				b.Fatal(err)
			}
			for c := 20; c < 120; c++ {
				if _, err := mgr.Record(w.Coords[c], 1); err != nil {
					b.Fatal(err)
				}
			}
			dec, err := mgr.EndEpoch(rand.New(rand.NewSource(3)))
			if err != nil {
				b.Fatal(err)
			}
			if writeFraction > 0 && dec.Leader < 0 {
				b.Fatal("write-enabled epoch elected no leader")
			}
			if writeFraction == 0 && dec.Leader != -1 {
				b.Fatal("write-disabled epoch leaked a leader")
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		epoch(b, 0)
	})
	b.Run("enabled", func(b *testing.B) {
		epoch(b, 0.3)
	})
}
