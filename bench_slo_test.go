package georep_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/slo"
)

// BenchmarkSLOOverhead measures what live SLO evaluation adds to the
// hot epoch path: a full manager epoch (100 recorded accesses plus the
// collection/decision cycle) against a wired metrics registry, with
// the disabled variant stopping there and the enabled variant also
// sampling the registry into the history ring and evaluating a
// two-objective burn-rate spec — exactly what the daemon sampler and
// the experiment harnesses do once per tick. Sampling is a snapshot
// into a preallocated ring and evaluation is a handful of windowed
// delta queries, so the enabled side must stay within a few percent;
// scripts/bench_overhead.sh slo turns that into a gate and records both
// numbers in BENCH_slo.json.
func BenchmarkSLOOverhead(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	candidates := make([]int, 20)
	for i := range candidates {
		candidates[i] = i
	}
	const spec = "availability ratio(bench_bad_total / bench_ops_total) <= 0.001; " +
		"latency p99(bench_delay_ms) <= 250 budget 0.02"

	epoch := func(b *testing.B, withSLO bool) {
		// Engine, history, and manager are built once — that is how every
		// caller runs them (daemon sampler, experiment harness) — so the
		// loop prices only the recurring per-epoch work.
		reg := metrics.NewRegistry()
		mgr, err := replica.NewManager(replica.Config{K: 3, M: 10, Dims: 3, Metrics: reg},
			candidates, w.Coords, nil)
		if err != nil {
			b.Fatal(err)
		}
		var (
			hist *metrics.History
			eng  *slo.Engine
			ops  = reg.Counter("bench_ops_total")
			bad  = reg.Counter("bench_bad_total")
			dh   = reg.Histogram("bench_delay_ms", []float64{50, 100, 250, 500})
		)
		if withSLO {
			sp, err := slo.Parse(spec)
			if err != nil {
				b.Fatal(err)
			}
			hist = metrics.NewHistory(reg, 64)
			if eng, err = slo.New(sp, slo.Config{History: hist}); err != nil {
				b.Fatal(err)
			}
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
				ops.Add(1)
				dh.Observe(float64(c))
			}
			bad.Add(0)
			if _, err := mgr.EndEpoch(rand.New(rand.NewSource(3))); err != nil {
				b.Fatal(err)
			}
			if withSLO {
				now := int64(i+1) * int64(10*time.Second)
				hist.Sample(now)
				eng.Evaluate(now)
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
