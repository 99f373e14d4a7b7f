package georep_test

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
)

// BenchmarkProvenanceOverhead measures what decision-provenance capture
// adds to the hot epoch path: a full manager epoch (100 recorded
// accesses plus the collection/decision cycle), with the enabled
// variant also attributing per-DC cost shares, scoring swap
// counterfactuals, and folding the record into the online regret
// estimator — exactly what every capture-enabled epoch does. The
// record's backing arrays are reused across epochs, so after warm-up
// the enabled side must stay within a few percent of disabled;
// scripts/bench_overhead.sh provenance turns that into a gate and
// records both numbers in BENCH_provenance.json.
func BenchmarkProvenanceOverhead(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	candidates := make([]int, 20)
	for i := range candidates {
		candidates[i] = i
	}

	epoch := func(b *testing.B, withProv bool) {
		reg := metrics.NewRegistry()
		cfg := replica.Config{K: 3, M: 10, Dims: 3, Metrics: reg}
		if withProv {
			cfg.Provenance = true
			cfg.BurnRate = func() float64 { return 0.25 }
		}
		mgr, err := replica.NewManager(cfg, candidates, w.Coords, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Both variants start from a settled heap: the sub-benchmarks run
		// back to back in one process, and whichever runs second would
		// otherwise inherit the first one's garbage as pure bias.
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
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
		epoch(b, false)
	})
	b.Run("enabled", func(b *testing.B) {
		epoch(b, true)
	})
}
