// Benchmarks regenerating every figure and table of the paper's
// evaluation. Each benchmark measures the cost of producing one data
// point and additionally reports the reproduced metric itself (mean
// access delay in ms, or summary bytes) via b.ReportMetric, so
// `go test -bench .` re-derives the paper's numbers alongside timing.
//
// The full paper-scale run (226 nodes, 30 seeds) lives in
// cmd/replicasim; benchmarks use a reduced-but-representative setting so
// the whole suite completes in minutes.
package georep_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/georep/georep/internal/accesstrace"
	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/latency"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
)

// benchSetup is shared by the figure benchmarks: 4 worlds of 120 nodes.
var (
	benchOnce   sync.Once
	benchWorlds []*experiment.World
	benchErr    error
)

func worlds(b *testing.B) []*experiment.World {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiment.DefaultSetup()
		cfg.Nodes = 120
		cfg.CoordRounds = 200
		benchWorlds, benchErr = experiment.BuildWorlds(4, cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorlds
}

// reportDelays attaches each strategy's reproduced mean delay to the
// benchmark output.
func reportDelays(b *testing.B, cells []experiment.Cell) {
	b.Helper()
	for _, c := range cells {
		b.ReportMetric(c.MeanMs, "msDelay_"+c.Strategy)
	}
}

// BenchmarkFigure1DataCenters regenerates Figure 1: mean access delay as
// the number of candidate data centers grows (k=3), for the paper's four
// strategies.
func BenchmarkFigure1DataCenters(b *testing.B) {
	ws := worlds(b)
	for _, dcs := range []int{5, 10, 20, 30} {
		b.Run(benchName("dcs", dcs), func(b *testing.B) {
			var cells []experiment.Cell
			var err error
			for i := 0; i < b.N; i++ {
				cells, err = experiment.RunCell(ws, dcs, 3, experiment.PaperStrategies(10))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportDelays(b, cells)
		})
	}
}

// BenchmarkFigure2Replication regenerates Figure 2: mean access delay as
// the degree of replication grows (20 data centers).
func BenchmarkFigure2Replication(b *testing.B) {
	ws := worlds(b)
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7} {
		b.Run(benchName("k", k), func(b *testing.B) {
			var cells []experiment.Cell
			var err error
			for i := 0; i < b.N; i++ {
				cells, err = experiment.RunCell(ws, 20, k, experiment.PaperStrategies(10))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportDelays(b, cells)
		})
	}
}

// BenchmarkFigure3MicroClusters regenerates Figure 3: the online
// strategy's delay as its per-replica micro-cluster budget m varies
// (20 data centers, k=3).
func BenchmarkFigure3MicroClusters(b *testing.B) {
	ws := worlds(b)
	for _, m := range []int{1, 2, 4, 7, 11} {
		b.Run(benchName("m", m), func(b *testing.B) {
			strategies := []placement.Strategy{placement.Online{M: m, Rounds: 2, AccessesPerClient: 1}}
			var cells []experiment.Cell
			var err error
			for i := 0; i < b.N; i++ {
				cells, err = experiment.RunCell(ws, 20, 3, strategies)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cells[0].MeanMs, "msDelay")
		})
	}
}

// table2Points generates the client-coordinate stream both Table II
// benchmarks consume.
func table2Points(n, dims int) []vec.Vec {
	r := rand.New(rand.NewSource(int64(n)))
	centers := make([]vec.Vec, 12)
	for i := range centers {
		c := vec.New(dims)
		for d := range c {
			c[d] = r.NormFloat64() * 120
		}
		centers[i] = c
	}
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := centers[r.Intn(len(centers))].Clone()
		for d := range p {
			p[d] += r.NormFloat64() * 8
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkTable2OnlineClustering regenerates the online column of
// Table II: summarize n accesses into k·m micro-clusters and
// macro-cluster them. The reported summaryBytes metric is the bandwidth
// the approach ships (O(k·m), independent of n).
func BenchmarkTable2OnlineClustering(b *testing.B) {
	const k, m, dims = 3, 100, 3
	for _, n := range []int{1_000, 10_000, 100_000} {
		pts := table2Points(n, dims)
		b.Run(benchName("n", n), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				summarizers := make([]*cluster.Summarizer, k)
				for j := range summarizers {
					s, err := cluster.NewSummarizer(m, dims)
					if err != nil {
						b.Fatal(err)
					}
					summarizers[j] = s
				}
				for j, p := range pts {
					if err := summarizers[j%k].Observe(p, 1); err != nil {
						b.Fatal(err)
					}
				}
				var micros []cluster.Micro
				bytes = 0
				for _, s := range summarizers {
					enc, err := cluster.EncodeMicros(s.Clusters())
					if err != nil {
						b.Fatal(err)
					}
					bytes += len(enc)
					micros = append(micros, s.Clusters()...)
				}
				if _, err := cluster.MacroCluster(rand.New(rand.NewSource(1)), micros, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes), "summaryBytes")
		})
	}
}

// BenchmarkTable2OfflineClustering regenerates the offline column of
// Table II: ship all n raw coordinates and k-means them centrally. The
// reported summaryBytes metric grows linearly with n.
func BenchmarkTable2OfflineClustering(b *testing.B) {
	const k, dims = 3, 3
	for _, n := range []int{1_000, 10_000, 100_000} {
		pts := table2Points(n, dims)
		b.Run(benchName("n", n), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				enc, err := cluster.EncodeCoordinates(pts)
				if err != nil {
					b.Fatal(err)
				}
				bytes = len(enc)
				if _, err := cluster.KMeans(rand.New(rand.NewSource(1)), pts, k, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes), "summaryBytes")
		})
	}
}

// BenchmarkCoordEmbedding measures the §III-A substrate: embedding a
// 120-node testbed with each coordinate algorithm, reporting the
// resulting median relative prediction error.
func BenchmarkCoordEmbedding(b *testing.B) {
	cfg := latency.DefaultGenerateConfig()
	cfg.Nodes = 120
	m, _, err := latency.Generate(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []coord.Algorithm{coord.AlgorithmVivaldi, coord.AlgorithmRNP} {
		b.Run(algo.String(), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				emb, err := coord.Embed(rand.New(rand.NewSource(2)), m, coord.EmbedConfig{
					Algorithm: algo, Dims: 3, Rounds: 200, NoiseFrac: 0.1,
				})
				if err != nil {
					b.Fatal(err)
				}
				s, err := coord.EvalError(emb, m)
				if err != nil {
					b.Fatal(err)
				}
				rel = s.MedianRel
			}
			b.ReportMetric(rel, "medianRelErr")
		})
	}
}

// BenchmarkMicroClusterObserve measures the per-access summarization hot
// path (§III-B): one Observe call on a warm summarizer.
func BenchmarkMicroClusterObserve(b *testing.B) {
	for _, m := range []int{4, 16, 100} {
		b.Run(benchName("m", m), func(b *testing.B) {
			s, err := cluster.NewSummarizer(m, 3)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			pts := make([]vec.Vec, 4096)
			for i := range pts {
				pts[i] = vec.Vec{r.NormFloat64() * 100, r.NormFloat64() * 100, r.NormFloat64() * 10}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Observe(pts[i%len(pts)], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWeightedKMeans measures the coordinator's macro-clustering
// step over k·m pseudo-points (§III-C).
func BenchmarkWeightedKMeans(b *testing.B) {
	for _, n := range []int{30, 300, 3000} {
		b.Run(benchName("points", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			pts := make([]vec.Vec, n)
			ws := make([]float64, n)
			for i := range pts {
				pts[i] = vec.Vec{r.NormFloat64() * 100, r.NormFloat64() * 100, r.NormFloat64() * 10}
				ws[i] = r.Float64() * 10
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.WeightedKMeansOpt(rand.New(rand.NewSource(2)), pts, ws, 3,
					cluster.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimalSearch measures the exhaustive baseline the paper
// calls impractical: C(candidates, k) placements evaluated against all
// clients.
func BenchmarkOptimalSearch(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	for _, k := range []int{2, 3, 4} {
		b.Run(benchName("k", k), func(b *testing.B) {
			in, err := w.Instance(rand.New(rand.NewSource(1)), 20, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (placement.Optimal{}).Place(nil, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManagerEpoch measures a full live-system epoch: route and
// record 200 client accesses, then run the collection/decision cycle.
func BenchmarkManagerEpoch(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	candidates := make([]int, 20)
	for i := range candidates {
		candidates[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr, err := replica.NewManager(replica.Config{K: 3, M: 10, Dims: 3},
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

// BenchmarkLocalSearch measures the swap hill-climber ablation strategy
// at one Figure-2 point, reporting its reproduced delay next to the cost
// that makes it unscalable.
func BenchmarkLocalSearch(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	in, err := w.Instance(rand.New(rand.NewSource(1)), 20, 3)
	if err != nil {
		b.Fatal(err)
	}
	var delay float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := (placement.LocalSearch{}).Place(rand.New(rand.NewSource(2)), in)
		if err != nil {
			b.Fatal(err)
		}
		delay = placement.MeanAccessDelay(in, reps)
	}
	b.ReportMetric(delay, "msDelay")
}

// BenchmarkTraceReplay measures the full replay pipeline: 2000 accesses
// routed, summarized, and coordinated over 4 epochs.
func BenchmarkTraceReplay(b *testing.B) {
	ws := worlds(b)
	w := ws[0]
	candidates := make([]int, 15)
	for i := range candidates {
		candidates[i] = i
	}
	var events []accesstrace.Event
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		events = append(events, accesstrace.Event{
			TimeMs: float64(i),
			Client: 15 + r.Intn(105),
			Group:  "g",
			Bytes:  1,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm, err := replica.NewGroupManager(replica.Config{K: 3, M: 10, Dims: 3},
			candidates, w.Coords)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := accesstrace.Replay(events, gm, w.Coords, w.Matrix.RTT, accesstrace.ReplayConfig{
			EpochMs: 500,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(key string, v int) string {
	return key + "=" + strconv.Itoa(v)
}
