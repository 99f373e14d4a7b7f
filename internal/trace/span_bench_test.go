package trace_test

import (
	"runtime"
	"strconv"
	"testing"

	"github.com/georep/georep/internal/testenv"
	"github.com/georep/georep/internal/trace"
)

// epochSpanTree mints and records one epoch-shaped span tree: root +
// three collects + kmeans + decide, with the attrs the manager actually
// sets.
func epochSpanTree(tr *trace.Tracer, i int) {
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

// BenchmarkEpochSpanTree prices the tracing layer in isolation: one
// epoch-shaped span tree minted and recorded into a FlightRecorder at
// steady-state retention. This is the absolute cost
// scripts/bench_overhead.sh trace measures relative to a full manager epoch.
func BenchmarkEpochSpanTree(b *testing.B) {
	tr := trace.New(trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous), "coord")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epochSpanTree(tr, i)
	}
}

// TestEpochSpanTreeAllocs pins what one BenchmarkEpochSpanTree tree costs
// at steady-state retention: the root's two IDs in one string, one
// block for the six ActiveSpans and their attributes, five child IDs and
// the benchmark's own epoch number, with the span buffer an entry the
// recorder evicted.
func TestEpochSpanTreeAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		maxAllocs = 12
		maxBytes  = 2400
		trees     = 2000
	)
	tr := trace.New(trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous), "coord")
	i := 0
	for ; i < 2*trace.DefaultRecent; i++ {
		epochSpanTree(tr, i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for end := i + trees; i < end; i++ {
		epochSpanTree(tr, i)
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / trees
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / trees
	t.Logf("%.1f allocations, %.0f B per tree", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one epoch span tree costs %.1f allocations and %.0f B, want <= %d and <= %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
