package replica

import (
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/vec"
)

// benchManager builds a manager over synthetic coordinates, instrumented
// with reg (nil for the uninstrumented baseline), plus a pool of client
// coordinates to route.
func benchManager(b *testing.B, reg *metrics.Registry) (*Manager, []coord.Coordinate) {
	b.Helper()
	const (
		dims       = 3
		candidates = 16
		clients    = 256
	)
	rng := rand.New(rand.NewSource(42))
	randCoord := func() coord.Coordinate {
		c := coord.Coordinate{Pos: vec.New(dims)}
		for i := range c.Pos {
			c.Pos[i] = rng.NormFloat64() * 50
		}
		c.Height = rng.Float64() * 5
		return c
	}
	coords := make([]coord.Coordinate, candidates+clients)
	cand := make([]int, candidates)
	for i := range coords {
		coords[i] = randCoord()
	}
	for i := range cand {
		cand[i] = i
	}
	m, err := NewManager(Config{K: 3, M: 10, Dims: dims, Metrics: reg}, cand, coords, nil)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]coord.Coordinate, clients)
	copy(pool, coords[candidates:])
	return m, pool
}

// BenchmarkMetricsOverhead compares the hot Route+Record path with and
// without a live metrics registry. The instrumented path must stay within
// a few percent of the bare one — compare the bare and instrumented
// sub-benchmark ns/op.
func BenchmarkMetricsOverhead(b *testing.B) {
	cases := []struct {
		name string
		reg  *metrics.Registry
	}{
		{"bare", nil},
		{"instrumented", metrics.NewRegistry()},
	}
	for _, tc := range cases {
		b.Run("record/"+tc.name, func(b *testing.B) {
			m, pool := benchManager(b, tc.reg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Record(pool[i%len(pool)], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("route/"+tc.name, func(b *testing.B) {
			m, pool := benchManager(b, tc.reg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Route(pool[i%len(pool)])
			}
		})
	}
}

// BenchmarkRegistryPrimitives isolates the raw cost of one metric update,
// the unit the manager pays per instrumented event.
func BenchmarkRegistryPrimitives(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_counter")
	h := reg.Histogram("bench_hist", metrics.LatencyBuckets())
	b.Run("counter-inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 1000))
		}
	})
}
