package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/vec"
)

// KMeansResult is the output of a (weighted) k-means run.
type KMeansResult struct {
	// Centroids are the k cluster centers.
	Centroids []vec.Vec
	// Weights is the total point weight assigned to each centroid.
	Weights []float64
	// Assignment maps each input point index to its centroid index.
	Assignment []int
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// defaultKMeansIters bounds Lloyd iterations; k-means on a few hundred
// points converges in far fewer.
const defaultKMeansIters = 100

// Options tunes a k-means run beyond the iteration cap.
type Options struct {
	// MaxIter bounds Lloyd iterations; zero means defaultKMeansIters.
	MaxIter int
	// Parallelism is ignored: the run is serial. The field remains
	// because the frozen bench/probe/epoch.go sets it.
	Parallelism int
	// Metrics, when non-nil, receives cluster_kmeans_runs_total and
	// cluster_kmeans_iterations_total, once per run.
	Metrics *metrics.Registry
	// Scratch, when non-nil, supplies the run's working memory so a
	// caller solving every epoch reuses one set of buffers instead of
	// re-allocating centroid blocks and accumulators per call. The
	// returned result then ALIASES the scratch (Centroids, Assignment,
	// Weights) and is valid only until the next run with the same
	// scratch; copy anything that must outlive it. Arithmetic is
	// byte-identical with or without scratch.
	Scratch *KMeansScratch
	// Warm, when it holds exactly k centroids of the points'
	// dimensionality, seeds the Lloyd loop from these centroids instead
	// of k-means++ and consumes NO randomness from r. This is the
	// incremental path for demand that drifts slowly between epochs:
	// convergence typically takes one or two iterations from last
	// epoch's centroids. A mismatched Warm (wrong k or dims) falls back
	// to k-means++ seeding.
	Warm []vec.Vec
}

// KMeansScratch is the reusable working memory of WeightedKMeansOpt:
// centroid/accumulator blocks sized to (k, dims) plus the
// pseudo-point buffers MacroClusterOpt fills from micro-clusters. The
// zero value is ready to use; buffers grow to the largest (k, dims,
// points) seen and are reused afterwards.
type KMeansScratch struct {
	centroids []vec.Vec
	prev      []vec.Vec
	sums      []vec.Vec
	wsum      []float64
	counts    []int
	mean      vec.Vec
	assign    []int
	wout      []float64
	points    []vec.Vec
	pweights  []float64
	cbuf      []float64
	k, dims   int
}

// ensure resizes the (k, dims)-shaped buffers when the problem shape
// changes; same-shape calls reuse everything.
func (s *KMeansScratch) ensure(k, dims int) {
	if s.k != k || s.dims != dims || s.centroids == nil {
		s.centroids = vec.Block(k, dims)
		s.prev = vec.Block(k, dims)
		s.sums = vec.Block(k, dims)
		s.wsum = make([]float64, k)
		s.counts = make([]int, k)
		s.mean = vec.New(dims)
		s.wout = make([]float64, k)
		s.k, s.dims = k, dims
	}
}

// assignFor returns the assignment buffer resized to n points.
func (s *KMeansScratch) assignFor(n int) []int {
	if cap(s.assign) < n {
		s.assign = make([]int, n)
	}
	return s.assign[:n]
}

// WeightedKMeans clusters points into k groups minimizing the weighted
// within-cluster sum of squared distances, using k-means++ seeding and
// Lloyd iterations. This is Algorithm 1's macro-clustering step: each
// micro-cluster becomes a pseudo-point at its centroid carrying its
// weight (Aggarwal et al., VLDB 2003).
//
// Zero-weight points participate in assignment but exert no pull on
// centroids. If k >= len(points), each point becomes its own centroid.
func WeightedKMeans(r *rand.Rand, points []vec.Vec, weights []float64, k, maxIter int) (*KMeansResult, error) {
	return WeightedKMeansOpt(r, points, weights, k, Options{MaxIter: maxIter})
}

// WeightedKMeansOpt is WeightedKMeans with metrics, scratch and
// warm-start plumbing. The Lloyd loop is serial — the coordinator's
// input is k·m micro-clusters, tens of points, where a fork-join costs
// more than the distances it spreads — keeps centroids in one contiguous
// block for cache locality, and reuses the accumulation buffers across
// iterations. Float additions happen in point order, which is part of
// the determinism contract.
func WeightedKMeansOpt(r *rand.Rand, points []vec.Vec, weights []float64, k int, opt Options) (*KMeansResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if len(weights) != len(points) {
		return nil, fmt.Errorf("cluster: %d points but %d weights", len(points), len(weights))
	}
	dims := points[0].Dim()
	for i, p := range points {
		if p.Dim() != dims {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, p.Dim(), dims)
		}
		if !validWeight(weights[i]) {
			return nil, fmt.Errorf("%w at %d", weightError(weights[i]), i)
		}
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = defaultKMeansIters
	}

	if k >= len(points) {
		// Degenerate: every point is its own cluster.
		res := &KMeansResult{
			Centroids:  make([]vec.Vec, len(points)),
			Weights:    make([]float64, len(points)),
			Assignment: make([]int, len(points)),
		}
		for i, p := range points {
			res.Centroids[i] = p.Clone()
			res.Weights[i] = weights[i]
			res.Assignment[i] = i
		}
		return res, nil
	}

	// Centroids and per-iteration accumulators live in contiguous blocks
	// (vec.Block) allocated once — or borrowed from opt.Scratch — and
	// reused across iterations: the Lloyd loop itself allocates nothing.
	var centroids, prev, sums []vec.Vec
	var wsum []float64
	var counts []int
	var scratchMean vec.Vec
	var assign []int
	if sc := opt.Scratch; sc != nil {
		sc.ensure(k, dims)
		centroids, prev, sums = sc.centroids, sc.prev, sc.sums
		wsum, counts, scratchMean = sc.wsum, sc.counts, sc.mean
		assign = sc.assignFor(len(points))
	} else {
		centroids = vec.Block(k, dims)
		prev = vec.Block(k, dims)
		sums = vec.Block(k, dims)
		wsum = make([]float64, k)
		counts = make([]int, k)
		scratchMean = vec.New(dims)
		assign = make([]int, len(points))
	}
	if warmOK(opt.Warm, k, dims) {
		for c := range centroids {
			centroids[c].CopyFrom(opt.Warm[c])
		}
	} else {
		for c, seed := range seedPlusPlus(r, points, weights, k) {
			centroids[c].CopyFrom(seed)
		}
	}
	for i := range assign {
		assign[i] = -1
	}

	res := &KMeansResult{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		if !assignNearest(points, centroids, assign) {
			// No point moved: the previous iteration's centroids are
			// already the weighted means of these members.
			break
		}

		// Recompute centroids as weighted means of their members, summed
		// in point order.
		for c := range sums {
			for d := range sums[c] {
				sums[c][d] = 0
			}
			wsum[c] = 0
			counts[c] = 0
			prev[c].CopyFrom(centroids[c])
		}
		for i, p := range points {
			c := assign[i]
			w := weights[i]
			sums[c].AddScaled(w, p)
			wsum[c] += w
			counts[c]++
		}
		for c := range centroids {
			switch {
			case wsum[c] > 0:
				s := 1 / wsum[c]
				for d := range centroids[c] {
					centroids[c][d] = s * sums[c][d]
				}
			case counts[c] > 0:
				// Members exist but all carry zero weight: use the plain
				// mean so the cluster still represents them.
				for d := range scratchMean {
					scratchMean[d] = 0
				}
				n := 0
				for i, p := range points {
					if assign[i] == c {
						scratchMean.AddInPlace(p)
						n++
					}
				}
				scratchMean.ScaleInPlace(1 / float64(n))
				centroids[c].CopyFrom(scratchMean)
			default:
				// Empty cluster: reseed at the point farthest from its
				// current centroid, the standard fix for dead centroids.
				centroids[c].CopyFrom(farthestPoint(points, centroids, assign))
			}
		}

		moved := false
		for c := range centroids {
			if !centroids[c].Equal(prev[c]) {
				moved = true
				break
			}
		}
		if !moved {
			// Centroids are a fixed point, so the next assignment pass
			// could not change anything: converged inputs exit after one
			// recompute instead of paying a full extra assignment sweep.
			break
		}
	}
	opt.Metrics.Counter("cluster_kmeans_runs_total").Inc()
	opt.Metrics.Counter("cluster_kmeans_iterations_total").Add(int64(res.Iterations))

	res.Centroids = centroids
	res.Assignment = assign
	if sc := opt.Scratch; sc != nil {
		res.Weights = sc.wout
		for c := range res.Weights {
			res.Weights[c] = 0
		}
	} else {
		res.Weights = make([]float64, k)
	}
	for i := range points {
		res.Weights[assign[i]] += weights[i]
	}
	return res, nil
}

// assignNearest is the Lloyd assignment step: each point picks its
// nearest centroid, ties going to the lowest centroid index. It reports
// whether any assignment changed.
func assignNearest(points, centroids []vec.Vec, assign []int) (changed bool) {
	for i, p := range points {
		best, bestD2 := 0, math.Inf(1)
		for c, cent := range centroids {
			if d2 := p.Dist2(cent); d2 < bestD2 {
				best, bestD2 = c, d2
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// warmOK reports whether warm centroids can seed a (k, dims) run.
func warmOK(warm []vec.Vec, k, dims int) bool {
	if len(warm) != k {
		return false
	}
	for _, c := range warm {
		if c.Dim() != dims {
			return false
		}
	}
	return true
}

// KMeans is WeightedKMeans with unit weights — the offline baseline that
// clusters every recorded client coordinate directly.
func KMeans(r *rand.Rand, points []vec.Vec, k, maxIter int) (*KMeansResult, error) {
	weights := make([]float64, len(points))
	for i := range weights {
		weights[i] = 1
	}
	return WeightedKMeans(r, points, weights, k, maxIter)
}

// seedPlusPlus implements weighted k-means++ seeding: the first centroid
// is drawn weight-proportionally, each next one proportionally to
// weight × squared distance to the nearest chosen centroid.
func seedPlusPlus(r *rand.Rand, points []vec.Vec, weights []float64, k int) []vec.Vec {
	centroids := make([]vec.Vec, 0, k)
	centroids = append(centroids, points[drawWeighted(r, weights)].Clone())

	d2 := make([]float64, len(points))
	for len(centroids) < k {
		last := centroids[len(centroids)-1]
		var total float64
		for i, p := range points {
			d := p.Dist2(last)
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			w := weights[i]
			if w == 0 {
				w = 1e-12 // keep zero-weight points selectable as a last resort
			}
			total += w * d2[i]
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			centroids = append(centroids, points[r.Intn(len(points))].Clone())
			continue
		}
		u := r.Float64() * total
		pick := len(points) - 1
		for i := range points {
			w := weights[i]
			if w == 0 {
				w = 1e-12
			}
			u -= w * d2[i]
			if u < 0 {
				pick = i
				break
			}
		}
		centroids = append(centroids, points[pick].Clone())
	}
	return centroids
}

// drawWeighted samples an index proportionally to weights, treating an
// all-zero weight vector as uniform.
func drawWeighted(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// farthestPoint returns the point with the largest distance to its
// assigned centroid, used to revive empty clusters.
func farthestPoint(points []vec.Vec, centroids []vec.Vec, assign []int) vec.Vec {
	best, bestD2 := 0, -1.0
	for i, p := range points {
		if d2 := p.Dist2(centroids[assign[i]]); d2 > bestD2 {
			best, bestD2 = i, d2
		}
	}
	return points[best]
}

// MacroCluster runs the paper's Algorithm 1 step 2: collect micro-cluster
// pseudo-points and weighted-k-means them into k macro-clusters. Each
// micro-cluster contributes its centroid as position and its Weight
// (falling back to Count when no weights were recorded) as mass.
func MacroCluster(r *rand.Rand, micros []Micro, k int) (*KMeansResult, error) {
	return MacroClusterOpt(r, micros, k, Options{})
}

// MacroClusterOpt is MacroCluster with explicit metrics/scratch
// plumbing for coordinators that run many rebalance cycles.
func MacroClusterOpt(r *rand.Rand, micros []Micro, k int, opt Options) (*KMeansResult, error) {
	if len(micros) == 0 {
		return nil, fmt.Errorf("cluster: no micro-clusters to macro-cluster")
	}
	var points []vec.Vec
	var weights []float64
	if sc := opt.Scratch; sc != nil {
		// Pseudo-point positions live in one flat block sliced per micro,
		// so a coordinator solving every epoch computes centroids into
		// reused memory instead of allocating one vector per micro.
		dims := micros[0].Dims()
		if cap(sc.points) < len(micros) || len(sc.cbuf) != cap(sc.points)*dims {
			sc.points = make([]vec.Vec, 0, len(micros))
			sc.pweights = make([]float64, len(micros))
			sc.cbuf = make([]float64, len(micros)*dims)
		}
		points = sc.points[:len(micros)]
		weights = sc.pweights[:len(micros)]
		for i := range micros {
			points[i] = vec.Vec(sc.cbuf[i*dims : (i+1)*dims])
			micros[i].CentroidInto(points[i])
		}
	} else {
		points = make([]vec.Vec, len(micros))
		weights = make([]float64, len(micros))
		for i := range micros {
			points[i] = micros[i].Centroid()
		}
	}
	for i := range micros {
		weights[i] = micros[i].Weight
		if weights[i] == 0 {
			weights[i] = float64(micros[i].Count)
		}
	}
	return WeightedKMeansOpt(r, points, weights, k, opt)
}
