// Determinism matrix: every concurrent path must return byte-identical
// results regardless of GOMAXPROCS. The fork-join contract
// (internal/parallel) is that workers only place results at their own
// indices and every floating-point reduction happens serially in index
// order, so a run at GOMAXPROCS=8 must be indistinguishable from one at
// GOMAXPROCS=1 — these tests pin that property for what is concurrent:
// the experiment grid, world building and sharded ingest. (Weighted
// k-means and the exhaustive optimal search are serial; k-means is pinned
// by digest instead.)
package georep_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/vec"
)

// runModes evaluates fp at GOMAXPROCS 1 and 8 and fails the test if the
// two fingerprints differ.
func runModes(t *testing.T, name string, fp func() string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := fp()
	runtime.GOMAXPROCS(8)
	if got := fp(); got != want {
		t.Fatalf("%s: GOMAXPROCS=8 diverged from GOMAXPROCS=1:\n got  %s\n want %s", name, got, want)
	}
}

// TestWeightedKMeansDigestPinned pins the serial k-means result: the
// digest was computed at the last commit that had a parallel assignment
// path, with Parallelism: 1, over the inputs that commit's determinism
// row compared the two paths on.
func TestWeightedKMeansDigestPinned(t *testing.T) {
	const want = "a0621bea26a4ed3803ce5fe212d85bbbc26a360293899c2fee33f6ecee839264"
	h := sha256.New()
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(400)
		pts := make([]vec.Vec, n)
		ws := make([]float64, n)
		for i := range pts {
			pts[i] = vec.Vec{r.NormFloat64() * 100, r.NormFloat64() * 100, r.NormFloat64() * 10}
			ws[i] = float64(r.Intn(8)) // integer weights, including zeros
		}
		k := 2 + r.Intn(5)
		res, err := cluster.WeightedKMeansOpt(rand.New(rand.NewSource(seed*31)), pts, ws, k, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d %v %v %v\n", res.Iterations, res.Centroids, res.Assignment, res.Weights)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("k-means digest %s, want %s", got, want)
	}
}

// TestScaleDeterministicAcrossParallelism pins the planet-scale path:
// the streaming generator, sharded batch ingest, and batched simnet
// delivery must all be execution-order independent, so the full scale
// experiment (stream digest, per-epoch measured delays, placements)
// fingerprints identically at either GOMAXPROCS.
func TestScaleDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds twice")
	}
	cfg := experiment.DefaultScaleConfig()
	cfg.Setup.Nodes = 50
	cfg.Setup.CoordRounds = 40
	cfg.NumDCs = 8
	cfg.Clients = 3000
	cfg.Rate = 2000
	cfg.BatchSize = 256
	cfg.Epochs = 4
	runModes(t, "scale", func() string {
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
// identically at either GOMAXPROCS — grouping leaders draw their own
// seeded rand streams, so no scheduling order may leak into placements,
// solve counts, or measured delays.
func TestMultiObjectDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds twice")
	}
	cfg := experiment.DefaultMultiObjectConfig()
	cfg.Setup.Nodes = 40
	cfg.Setup.CoordRounds = 30
	cfg.NumDCs = 8
	cfg.Objects = 30
	cfg.AccessesPerObject = 20
	cfg.Epochs = 3
	runModes(t, "multiobject", func() string {
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
		t.Skip("builds worlds twice")
	}
	cfg := experiment.DefaultSetup()
	cfg.Nodes = 40
	cfg.CoordRounds = 30
	strategies := []placement.Strategy{
		placement.Random{},
		placement.OfflineKMeans{},
		placement.Optimal{},
	}
	runModes(t, "runcell", func() string {
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
