// Determinism matrix: every parallelized kernel must return
// byte-identical results regardless of GOMAXPROCS or the configured
// parallelism. The parallel layer's contract (internal/parallel) is that
// workers only place results at their own indices and every
// floating-point reduction happens serially in index order, so a run at
// GOMAXPROCS=8 with eight workers must be indistinguishable from the
// serial path — these tests pin that property for the kernels that ride
// the pool: weighted k-means and whole experiment cells. (The exhaustive
// optimal search is serial and has no row here.)
package georep_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/vec"
)

// execModes is the (GOMAXPROCS, parallelism) grid every kernel is
// checked against. Parallelism 0 means "all cores", 1 forces the serial
// path, 8 oversubscribes a single-core run.
var execModes = []struct{ procs, par int }{
	{1, 1}, {1, 8}, {8, 1}, {8, 2}, {8, 8}, {8, 0},
}

// runModes evaluates fp under every execution mode and fails the test on
// the first fingerprint that differs from the serial (1,1) reference.
func runModes(t *testing.T, name string, fp func(parallelism int) string) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want string
	for i, m := range execModes {
		runtime.GOMAXPROCS(m.procs)
		got := fp(m.par)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%s: GOMAXPROCS=%d parallelism=%d diverged from serial run:\n got  %s\n want %s",
				name, m.procs, m.par, got, want)
		}
	}
}

func TestWeightedKMeansDeterministicAcrossParallelism(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(400)
		pts := make([]vec.Vec, n)
		ws := make([]float64, n)
		for i := range pts {
			pts[i] = vec.Of(r.NormFloat64()*100, r.NormFloat64()*100, r.NormFloat64()*10)
			ws[i] = float64(r.Intn(8)) // integer weights, including zeros
		}
		k := 2 + r.Intn(5)
		runModes(t, fmt.Sprintf("kmeans seed=%d", seed), func(par int) string {
			res, err := cluster.WeightedKMeansOpt(rand.New(rand.NewSource(seed*31)), pts, ws, k,
				cluster.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%d %v %v %v", res.Iterations, res.Centroids, res.Assignment, res.Weights)
		})
	}
}

// TestScaleDeterministicAcrossParallelism pins the planet-scale path:
// the streaming generator, sharded batch ingest, and batched simnet
// delivery must all be execution-order independent, so the full scale
// experiment (stream digest, per-epoch measured delays, placements)
// fingerprints identically across the execution-mode grid.
func TestScaleDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds under six execution modes")
	}
	cfg := experiment.DefaultScaleConfig()
	cfg.Setup.Nodes = 50
	cfg.Setup.CoordRounds = 40
	cfg.NumDCs = 8
	cfg.Clients = 3000
	cfg.Rate = 2000
	cfg.BatchSize = 256
	cfg.Epochs = 4
	prevPar := experiment.Parallelism
	defer func() { experiment.Parallelism = prevPar }()
	runModes(t, "scale", func(par int) string {
		experiment.Parallelism = par
		res, err := experiment.Scale(5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := res.StreamHash
		for _, r := range res.Rows {
			fp += fmt.Sprintf("|%d:%.17g:%d:%d:%v:%v",
				r.Epoch, r.MeanMs, r.Accesses, r.Frames, r.Migrated, r.Replicas)
		}
		return fp
	})
}

// TestMultiObjectDeterministicAcrossParallelism pins the multi-object
// path: grouped solves, warm-started incremental k-means, capacity
// settlement, and the dual naive/amortized passes must all fingerprint
// identically across the execution-mode grid — grouping leaders draw
// their own seeded rand streams, so no scheduling order may leak into
// placements, solve counts, or measured delays.
func TestMultiObjectDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds under six execution modes")
	}
	cfg := experiment.DefaultMultiObjectConfig()
	cfg.Setup.Nodes = 40
	cfg.Setup.CoordRounds = 30
	cfg.NumDCs = 8
	cfg.Objects = 30
	cfg.AccessesPerObject = 20
	cfg.Epochs = 3
	prevPar := experiment.Parallelism
	defer func() { experiment.Parallelism = prevPar }()
	runModes(t, "multiobject", func(par int) string {
		experiment.Parallelism = par
		res, err := experiment.MultiObject(3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := fmt.Sprintf("%d/%d disp=%d", res.TotalSolves, res.TotalNaiveSolves, res.Displaced)
		for _, r := range res.Rows {
			fp += fmt.Sprintf("|%d:%d:%d:%d:%.17g:%.17g:%d:%d",
				r.Epoch, r.Groups, r.Solves, r.DriftSkips, r.NaiveMeanMs, r.MeanMs, r.Migrated, r.Displaced)
		}
		return fp
	})
}

func TestRunCellDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds under six execution modes")
	}
	cfg := experiment.DefaultSetup()
	cfg.Nodes = 40
	cfg.CoordRounds = 30
	strategies := []placement.Strategy{
		placement.Random{},
		placement.OfflineKMeans{},
		placement.Optimal{},
	}
	prevPar := experiment.Parallelism
	defer func() { experiment.Parallelism = prevPar }()
	runModes(t, "runcell", func(par int) string {
		experiment.Parallelism = par
		// Rebuilding the worlds inside the mode loop also pins
		// BuildWorlds itself: world generation must not depend on which
		// worker built which seed.
		worlds, err := experiment.BuildWorlds(3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := experiment.RunCell(worlds, 8, 2, strategies)
		if err != nil {
			t.Fatal(err)
		}
		fp := fmt.Sprintf("%v", worlds[0].Coords[:3])
		for _, c := range cells {
			fp += fmt.Sprintf(" %s=%.17g±%.17g/%d", c.Strategy, c.MeanMs, c.StdDevMs, c.Runs)
		}
		return fp
	})
}
