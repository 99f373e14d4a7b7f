package trace_test

import (
	"strconv"
	"testing"

	"github.com/georep/georep/internal/trace"
)

// BenchmarkEpochSpanTree prices the tracing layer in isolation: one
// epoch-shaped span tree (root + three collects + kmeans + decide,
// with the attrs the manager actually sets) minted and recorded into a
// FlightRecorder at steady-state retention. This is the absolute cost
// scripts/bench_overhead.sh trace measures relative to a full manager epoch.
func BenchmarkEpochSpanTree(b *testing.B) {
	rec := trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
	tr := trace.New(rec, "coord")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := tr.StartRoot("epoch", trace.KindEpoch)
		root.SetAttr("epoch", strconv.Itoa(i))
		root.SetAttr("k", "3")
		for r := 0; r < 3; r++ {
			sp := tr.Start(root.Context(), "collect", trace.KindCollect)
			sp.SetAttr("replica", strconv.Itoa(r))
			sp.SetAttr("bytes", "1234")
			sp.End()
		}
		km := tr.Start(root.Context(), "kmeans", trace.KindKMeans)
		km.SetAttr("micros", "40")
		km.End()
		ds := tr.Start(root.Context(), "decide", trace.KindDecide)
		ds.SetAttr("migrate", "false")
		ds.SetAttr("moved", "0")
		ds.SetAttr("gain_ms", "0.000")
		ds.End()
		root.End()
	}
}
