// The k-means digest pin. What is concurrent — the experiment grid,
// world building and sharded ingest — is pinned byte for byte at
// GOMAXPROCS 1 and 8 by the figure goldens (cmd/replicasim and
// cmd/georepctl, TestGolden); k-means is serial and is pinned here
// against inputs no figure reaches.
package georep_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/vec"
)

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
