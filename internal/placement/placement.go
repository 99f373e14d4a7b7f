// Package placement implements the paper's replica-placement problem
// (§II-B) and every strategy the evaluation compares (§IV-A): random,
// offline k-means, the paper's online micro-clustering approach, and the
// exhaustive optimal. Two related-work baselines from §V — the greedy
// heuristic of Qiu et al. and the HotZone cell heuristic of Szymaniak et
// al. — are included for ablations.
package placement

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/vec"
)

// Instance is one placement problem: choose K of the candidate data
// centers to host replicas so that the mean client access delay is
// minimized. Node indices refer to a shared node universe (typically the
// rows of a latency matrix).
type Instance struct {
	// NumNodes is the size of the node universe.
	NumNodes int
	// RTT is the ground-truth round-trip oracle in milliseconds, used by
	// the evaluation metric and by the optimal strategy only.
	RTT func(i, j int) float64
	// Coords holds one network coordinate per node. Coordinate-based
	// strategies (offline k-means, online, greedy, hotzone) see only
	// these, never the true RTTs.
	Coords []coord.Coordinate
	// Candidates are node indices of data centers able to host replicas.
	Candidates []int
	// Clients are node indices of data-accessing users.
	Clients []int
	// K is the target degree of replication.
	K int
}

// Validate checks the instance is well-formed.
func (in *Instance) Validate() error {
	if in.NumNodes <= 0 {
		return fmt.Errorf("placement: NumNodes must be positive, got %d", in.NumNodes)
	}
	if in.RTT == nil {
		return fmt.Errorf("placement: RTT oracle is nil")
	}
	if len(in.Coords) != in.NumNodes {
		return fmt.Errorf("placement: %d coordinates for %d nodes", len(in.Coords), in.NumNodes)
	}
	if in.K <= 0 {
		return fmt.Errorf("placement: K must be positive, got %d", in.K)
	}
	if len(in.Candidates) < in.K {
		return fmt.Errorf("placement: %d candidates for K=%d", len(in.Candidates), in.K)
	}
	if len(in.Clients) == 0 {
		return fmt.Errorf("placement: no clients")
	}
	seen := make(map[int]bool, len(in.Candidates))
	for _, c := range in.Candidates {
		if c < 0 || c >= in.NumNodes {
			return fmt.Errorf("placement: candidate %d out of range", c)
		}
		if seen[c] {
			return fmt.Errorf("placement: duplicate candidate %d", c)
		}
		seen[c] = true
	}
	for _, c := range in.Clients {
		if c < 0 || c >= in.NumNodes {
			return fmt.Errorf("placement: client %d out of range", c)
		}
	}
	return nil
}

// MeanAccessDelay is the paper's objective l(o)/|U|: each client reads
// from its closest replica (true RTT), and the per-client delays are
// averaged. This uses ground truth — it is the judge, not a strategy.
func MeanAccessDelay(in *Instance, replicas []int) float64 {
	if len(replicas) == 0 || len(in.Clients) == 0 {
		return math.Inf(1)
	}
	var total float64
	for _, u := range in.Clients {
		best := math.Inf(1)
		for _, rep := range replicas {
			if d := in.RTT(u, rep); d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(in.Clients))
}

// PredictedDelay is the coordinate-space RTT estimate strategies use in
// place of measurements, per the paper's §III-A.
func (in *Instance) PredictedDelay(i, j int) float64 {
	return in.Coords[i].DistanceTo(in.Coords[j])
}

// ClosestReplicaPredicted returns the replica a client would pick using
// coordinate predictions only (§II-A: "a user may identify or estimate,
// before actual data transfer, a replica location").
func (in *Instance) ClosestReplicaPredicted(client int, replicas []int) int {
	best, bestD := replicas[0], math.Inf(1)
	for _, rep := range replicas {
		if d := in.PredictedDelay(client, rep); d < bestD {
			best, bestD = rep, d
		}
	}
	return best
}

// Strategy is a replica-placement algorithm.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Place returns K candidate node indices to host replicas.
	Place(r *rand.Rand, in *Instance) ([]int, error)
}

// Random places replicas at K uniformly random candidates — baseline 1 of
// the paper's evaluation.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Place implements Strategy.
func (Random) Place(r *rand.Rand, in *Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	perm := r.Perm(len(in.Candidates))
	out := make([]int, in.K)
	for i := 0; i < in.K; i++ {
		out[i] = in.Candidates[perm[i]]
	}
	return out, nil
}

// Optimal exhaustively evaluates every K-combination of candidates
// against the true RTTs and returns the best — the paper's impractical
// upper bound. It runs on exactSearch (clients at unit weight), which
// cuts subtrees with an admissible lower bound; the result is the
// lexicographically first combination with the lowest total delay, the
// one a naive in-order enumeration returns.
type Optimal struct {
	// MaxCombinations guards against accidental combinatorial blowups;
	// zero means DefaultMaxCombinations.
	MaxCombinations int
	// Parallelism is ignored: the search is serial. The field remains
	// only because the frozen bench/ harness sets it.
	Parallelism int
	// Metrics, when non-nil, receives search counters (combinations
	// visited/pruned).
	Metrics *metrics.Registry
}

// DefaultMaxCombinations bounds the exhaustive search; C(30,7) ≈ 2M
// placements remain comfortably below this.
const DefaultMaxCombinations = 10_000_000

// Name implements Strategy.
func (Optimal) Name() string { return "optimal" }

// Place implements Strategy.
func (o Optimal) Place(_ *rand.Rand, in *Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	limit := o.MaxCombinations
	if limit <= 0 {
		limit = DefaultMaxCombinations
	}
	combos := Binomial(len(in.Candidates), in.K)
	if combos > limit {
		return nil, fmt.Errorf("placement: optimal search needs %d combinations, limit %d", combos, limit)
	}
	// The oracle is outside data: hold it to the kernel's input contract
	// while the table is built.
	nm := len(in.Clients)
	wd := make([]float64, len(in.Candidates)*nm)
	for ci, cand := range in.Candidates {
		for i, cli := range in.Clients {
			d := in.RTT(cli, cand)
			if !(d >= 0) {
				return nil, fmt.Errorf("placement: optimal search: RTT from client %d to candidate %d is %v, want a non-negative delay", cli, cand, d)
			}
			wd[ci*nm+i] = d
		}
	}
	best, visited := ExactSubset(wd, in.Candidates, in.K)
	o.Metrics.Counter("placement_search_visited_total").Add(visited)
	o.Metrics.Counter("placement_search_pruned_total").Add(int64(combos) - visited)
	return best, nil
}

// Binomial returns C(n, k), saturating at math.MaxInt on overflow.
func Binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		// res * (n-i) may overflow; detect and saturate.
		next := res * (n - i)
		if next/(n-i) != res {
			return math.MaxInt
		}
		res = next / (i + 1)
	}
	return res
}

// nearestCandidate returns the unused candidate that would serve users
// at the target point with the lowest predicted latency (Algorithm 1,
// lines 3–5): position distance plus the candidate's height. Including
// the height is what lets coordinate-driven placement avoid data centers
// behind slow access links. Used candidates are skipped so the final
// placement has K distinct locations.
func nearestCandidate(in *Instance, target vec.Vec, used map[int]bool) int {
	best, bestD := -1, math.Inf(1)
	for _, c := range in.Candidates {
		if used[c] {
			continue
		}
		if d := in.Coords[c].Pos.Dist(target) + in.Coords[c].Height; d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// placeByCentroids maps macro-cluster centroids (heaviest first) to their
// nearest distinct candidates and fills any remainder with the candidates
// closest to the overall client mass.
func placeByCentroids(in *Instance, centroids []vec.Vec, weights []float64) []int {
	order := make([]int, len(centroids))
	for i := range order {
		order[i] = i
	}
	// Heaviest clusters choose first so dedup hurts the least mass.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if weights[order[j]] > weights[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	used := make(map[int]bool, in.K)
	var out []int
	for _, ci := range order {
		if len(out) == in.K {
			break
		}
		if c := nearestCandidate(in, centroids[ci], used); c >= 0 {
			used[c] = true
			out = append(out, c)
		}
	}
	// Degenerate macro-clustering (fewer distinct centroids than K):
	// fill with candidates nearest the global client centroid.
	if len(out) < in.K {
		var pts []vec.Vec
		for _, u := range in.Clients {
			pts = append(pts, in.Coords[u].Pos)
		}
		global := vec.Mean(pts)
		for len(out) < in.K {
			c := nearestCandidate(in, global, used)
			if c < 0 {
				break
			}
			used[c] = true
			out = append(out, c)
		}
	}
	return out
}
