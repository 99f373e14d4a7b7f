package georep_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
	"github.com/georep/georep/internal/workload"
)

// The scale benchmarks pin the planet-scale access engine's two load-
// bearing claims: the generate-and-ingest hot path allocates nothing in
// steady state, and its per-access cost stays flat as the client
// population grows from 10k to 1M (the population only sizes the
// sampling tables built at construction time; the per-access work is an
// O(1) alias draw plus an O(1) shard fold). scripts/bench_scale.sh
// turns both into a gate and records the numbers in BENCH_scale.json.

const (
	benchScaleNodes   = 64
	benchScaleRegions = 8
	benchScaleDims    = 3
	benchScaleShards  = 8
	benchScaleBudget  = 8
	benchScaleBatch   = 4096
)

// benchScalePositions builds the node-indexed coordinate table the
// ingest path looks client positions up in.
func benchScalePositions() []vec.Vec {
	r := rand.New(rand.NewSource(11))
	pos := make([]vec.Vec, benchScaleNodes)
	for i := range pos {
		p := make(vec.Vec, benchScaleDims)
		for d := range p {
			p[d] = r.NormFloat64() * 50
		}
		pos[i] = p
	}
	return pos
}

// benchScaleStream builds a seeded streaming generator over a synthetic
// population of the given size, spread across 64 PoP nodes in 8 regions.
func benchScaleStream(tb testing.TB, clients, rate int) *workload.Stream {
	tb.Helper()
	nodes := make([]int, benchScaleNodes)
	regions := make([]int, benchScaleNodes)
	for i := range nodes {
		nodes[i] = i
		regions[i] = i % benchScaleRegions
	}
	specs, err := workload.SynthClients(rand.New(rand.NewSource(7)), clients, nodes, regions)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := workload.NewStream(workload.StreamSpec{
		Clients:         clients,
		Regions:         benchScaleRegions,
		Objects:         16,
		ZipfExponent:    0.8,
		MeanObjectBytes: 1,
		BatchSize:       benchScaleBatch,
		Rate:            rate,
		Churn:           0.02,
		DiurnalPeriod:   8,
	}, specs)
	if err != nil {
		tb.Fatal(err)
	}
	s.Seed(42)
	return s
}

// benchScaleServer builds a sharded replica ingest server.
func benchScaleServer(tb testing.TB) *replica.Server {
	tb.Helper()
	srv, err := replica.NewShardedServer(benchScaleShards, benchScaleBudget, benchScaleDims)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// ingestBatch feeds one generated batch through the replica batch path,
// reusing the caller's scratch slices.
func ingestBatch(tb testing.TB, srv *replica.Server, pos []vec.Vec,
	batch []workload.Access, clients []int, weights []float64) ([]int, []float64) {
	clients = clients[:0]
	weights = weights[:0]
	for _, a := range batch {
		clients = append(clients, a.Client)
		weights = append(weights, a.Bytes)
	}
	if err := srv.RecordBatch(clients, pos, weights); err != nil {
		tb.Fatal(err)
	}
	return clients, weights
}

// TestScaleIngestSteadyStateZeroAlloc asserts the whole hot loop —
// drawing a batch from the stream and folding it into a sharded
// replica summary — allocates nothing once warm. This is the property
// that makes million-client epochs affordable; a single allocation per
// batch would show up here.
func TestScaleIngestSteadyStateZeroAlloc(t *testing.T) {
	stream := benchScaleStream(t, 50_000, 40_000)
	srv := benchScaleServer(t)
	pos := benchScalePositions()
	batch := make([]workload.Access, benchScaleBatch)
	clients := make([]int, 0, benchScaleBatch)
	weights := make([]float64, 0, benchScaleBatch)

	// Warm up: fill the shard summarizers to their budgets and size the
	// scratch slices so the measured runs are pure steady state.
	for i := 0; i < 8; i++ {
		clients, weights = ingestBatch(t, srv, pos, stream.Next(batch), clients, weights)
	}
	allocs := testing.AllocsPerRun(50, func() {
		clients, weights = ingestBatch(t, srv, pos, stream.Next(batch), clients, weights)
	})
	if allocs > 0 {
		t.Fatalf("steady-state generate+ingest allocates %.1f times per batch, want 0", allocs)
	}
	if ms, err := srv.ExportInto(nil); err != nil || len(ms) == 0 {
		t.Fatalf("ingest recorded nothing: %v", err)
	}
}

// TestScaleAdvanceZeroAlloc asserts the epoch boundary of the stream
// (churn drift + alias reweight) also stays allocation-free, so long
// simulations do not accrete garbage at epoch ticks.
func TestScaleAdvanceZeroAlloc(t *testing.T) {
	stream := benchScaleStream(t, 20_000, 10_000)
	batch := make([]workload.Access, benchScaleBatch)
	stream.Next(batch)
	if err := stream.Advance(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := stream.Advance(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("stream.Advance allocates %.1f times per epoch, want 0", allocs)
	}
}

// BenchmarkScaleIngest measures the per-access cost of the hot loop at
// growing population sizes. The ns/access metric must stay flat from
// 10k to 1M clients — population size only affects table construction,
// which happens outside the timer. scripts/bench_scale.sh gates on the
// ratio of the largest to the smallest population's minimum ns/access.
func BenchmarkScaleIngest(b *testing.B) {
	for _, clients := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			stream := benchScaleStream(b, clients, clients)
			srv := benchScaleServer(b)
			pos := benchScalePositions()
			batch := make([]workload.Access, benchScaleBatch)
			cs := make([]int, 0, benchScaleBatch)
			ws := make([]float64, 0, benchScaleBatch)
			for i := 0; i < 4; i++ {
				cs, ws = ingestBatch(b, srv, pos, stream.Next(batch), cs, ws)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs, ws = ingestBatch(b, srv, pos, stream.Next(batch), cs, ws)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchScaleBatch), "ns/access")
		})
	}
}

// BenchmarkObserveM25 times Summarizer.Observe at the decision
// workloads' budget (m=25, where the nearest-cluster scan and the
// closest-pair merge dominate) on a stream that mixes absorptions with
// new-cluster-then-merge steps: 40 hotspots, more than the budget holds.
func BenchmarkObserveM25(b *testing.B) {
	s, err := cluster.NewSummarizer(25, benchScaleDims)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	hot := make([]vec.Vec, 40)
	for i := range hot {
		hot[i] = vec.Vec{r.NormFloat64() * 80, r.NormFloat64() * 80, r.NormFloat64() * 80}
	}
	pts := make([]vec.Vec, 4096)
	for i := range pts {
		h := hot[r.Intn(len(hot))]
		pts[i] = vec.Vec{h[0] + r.NormFloat64()*4, h[1] + r.NormFloat64()*4, h[2] + r.NormFloat64()*4}
	}
	for _, p := range pts {
		if err := s.Observe(p, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Observe(pts[i%len(pts)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleEpoch compares a full epoch (generate + ingest + summary
// export) through the sharded and unsharded ingest paths on the same
// workload. Sharding pays a summary-time merge for contention-free
// ingest; this benchmark keeps that trade visible.
func BenchmarkScaleEpoch(b *testing.B) {
	const clients, rate = 100_000, 50_000
	variants := []struct {
		name  string
		build func(tb testing.TB) *replica.Server
	}{
		{"unsharded", func(tb testing.TB) *replica.Server {
			srv, err := replica.NewServer(benchScaleBudget, benchScaleDims)
			if err != nil {
				tb.Fatal(err)
			}
			return srv
		}},
		{"sharded", func(tb testing.TB) *replica.Server { return benchScaleServer(tb) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			stream := benchScaleStream(b, clients, rate)
			srv := v.build(b)
			pos := benchScalePositions()
			batch := make([]workload.Access, benchScaleBatch)
			cs := make([]int, 0, benchScaleBatch)
			ws := make([]float64, 0, benchScaleBatch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for bb := 0; bb < stream.EpochBatches(); bb++ {
					cs, ws = ingestBatch(b, srv, pos, stream.Next(batch), cs, ws)
				}
				got, err := srv.ExportInto(nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) == 0 {
					b.Fatal("empty summary")
				}
				if err := srv.Decay(0.5); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rate), "ns/access")
		})
	}
}
