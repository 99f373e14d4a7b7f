package coord

import (
	"fmt"
	"math/rand"

	"github.com/georep/georep/internal/latency"
	"github.com/georep/georep/internal/stats"
)

// EmbedConfig controls a decentralized embedding run over a latency
// matrix.
type EmbedConfig struct {
	// Algorithm selects Vivaldi or RNP.
	Algorithm Algorithm
	// Dims is the coordinate dimensionality. The Vivaldi paper found 2–5
	// dimensions (plus height) sufficient for Internet RTTs.
	Dims int
	// Rounds is the number of gossip rounds; in each round every node
	// measures one random neighbour and updates.
	Rounds int
	// NoiseFrac adds multiplicative measurement noise, modelling the
	// unstable conditions under which RNP claims its advantage.
	NoiseFrac float64
	// NeighborSet, when positive, restricts each node's contacts to a
	// fixed random subset of this size, matching deployed systems where
	// nodes gossip with a bounded neighbour set.
	NeighborSet int
	// LateJoinFrac, when positive, holds this fraction of nodes out of
	// the system for the first half of the run; they join with fresh
	// coordinates and must converge among already-settled peers —
	// PlanetLab-style churn. Late joiners still end with coordinates.
	LateJoinFrac float64
}

func (c EmbedConfig) validate() error {
	if c.Dims <= 0 {
		return fmt.Errorf("coord: dims must be positive, got %d", c.Dims)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("coord: rounds must be positive, got %d", c.Rounds)
	}
	if c.NoiseFrac < 0 || c.NoiseFrac > 0.5 {
		return fmt.Errorf("coord: noise fraction %v out of [0,0.5]", c.NoiseFrac)
	}
	if c.NeighborSet < 0 {
		return fmt.Errorf("coord: neighbor set %d must be non-negative", c.NeighborSet)
	}
	if c.LateJoinFrac < 0 || c.LateJoinFrac >= 1 {
		return fmt.Errorf("coord: late-join fraction %v out of [0,1)", c.LateJoinFrac)
	}
	return nil
}

// Embedding is the result of a coordinate run: one coordinate per node of
// the source matrix.
type Embedding struct {
	Coords []Coordinate
}

// Predict returns the RTT predicted between nodes i and j.
func (e *Embedding) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	return e.Coords[i].DistanceTo(e.Coords[j])
}

// N returns the number of embedded nodes.
func (e *Embedding) N() int { return len(e.Coords) }

// EmbedStats reports convergence behaviour of an embedding run.
type EmbedStats struct {
	// DriftMsPerRound is the mean per-node coordinate displacement per
	// round over the final quarter of the run. A converged, stable
	// system drifts little; an oscillating one keeps moving. RNP's
	// design goal is lower drift than Vivaldi under noisy measurements.
	DriftMsPerRound float64
	// MeanErrorEstimate is the average of the nodes' own relative error
	// estimates at the end of the run.
	MeanErrorEstimate float64
}

// Embed runs a decentralized embedding over the matrix: Rounds passes in
// which every node measures one random neighbour (with noise) and updates
// its coordinate. The result is deterministic for a given rand source.
func Embed(r *rand.Rand, m *latency.Matrix, cfg EmbedConfig) (*Embedding, error) {
	emb, _, err := EmbedWithStats(r, m, cfg)
	return emb, err
}

// EmbedWithStats is Embed plus convergence statistics.
func EmbedWithStats(r *rand.Rand, m *latency.Matrix, cfg EmbedConfig) (*Embedding, *EmbedStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	n := m.N()
	if cfg.NeighborSet > 0 && cfg.NeighborSet >= n {
		return nil, nil, fmt.Errorf("coord: neighbor set %d must be < node count %d", cfg.NeighborSet, n)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		node, err := NewNode(cfg.Algorithm, cfg.Dims, rand.New(rand.NewSource(r.Int63())))
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = node
	}

	var neighbors [][]int
	if cfg.NeighborSet > 0 {
		neighbors = make([][]int, n)
		for i := range neighbors {
			set := make([]int, 0, cfg.NeighborSet)
			for _, cand := range r.Perm(n) {
				if cand == i {
					continue
				}
				set = append(set, cand)
				if len(set) == cfg.NeighborSet {
					break
				}
			}
			neighbors[i] = set
		}
	}

	// Late joiners stay inactive (no measurements in either direction)
	// until halfway through the run.
	active := make([]bool, n)
	joinRound := make([]int, n)
	for i := range active {
		active[i] = true
	}
	if cfg.LateJoinFrac > 0 {
		joiners := int(float64(n) * cfg.LateJoinFrac)
		for _, i := range r.Perm(n)[:joiners] {
			active[i] = false
			joinRound[i] = cfg.Rounds / 2
		}
	}

	// Drift is measured over the final quarter of the run, when the
	// system should have converged; residual movement is oscillation.
	driftStart := cfg.Rounds * 3 / 4
	prev := make([]Coordinate, n)
	var driftSum float64
	var driftRounds int

	sampler := latency.NewSampler(m, cfg.NoiseFrac, r)
	for round := 0; round < cfg.Rounds; round++ {
		for i := range active {
			if !active[i] && round >= joinRound[i] {
				active[i] = true
			}
		}
		if round >= driftStart {
			for i := range nodes {
				prev[i] = nodes[i].Coordinate()
			}
		}
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			var j int
			if neighbors != nil {
				j = neighbors[i][r.Intn(len(neighbors[i]))]
			} else {
				j = r.Intn(n - 1)
				if j >= i {
					j++
				}
			}
			if !active[j] {
				continue // contacted a node that has not joined yet
			}
			rtt := sampler.Sample(i, j)
			remote := nodes[j].Coordinate()
			remoteErr := nodes[j].ErrorEstimate()
			if rnp, ok := nodes[i].(*RNP); ok {
				rnp.UpdateFrom(int64(j), remote, remoteErr, rtt)
			} else {
				nodes[i].Update(remote, remoteErr, rtt)
			}
		}
		if round >= driftStart {
			var roundDrift float64
			for i := range nodes {
				cur := nodes[i].Coordinate()
				roundDrift += cur.Pos.Dist(prev[i].Pos) + absFloat(cur.Height-prev[i].Height)
			}
			driftSum += roundDrift / float64(n)
			driftRounds++
		}
	}

	emb := &Embedding{Coords: make([]Coordinate, n)}
	stats := &EmbedStats{}
	for i, node := range nodes {
		emb.Coords[i] = node.Coordinate()
		stats.MeanErrorEstimate += node.ErrorEstimate()
	}
	stats.MeanErrorEstimate /= float64(n)
	if driftRounds > 0 {
		stats.DriftMsPerRound = driftSum / float64(driftRounds)
	}
	return emb, stats, nil
}

// ErrorSummary describes how well an embedding predicts the true matrix.
type ErrorSummary struct {
	// MedianAbsMs is the median of |predicted − actual| over all pairs.
	MedianAbsMs float64
	// P90AbsMs is the 90th percentile of the absolute error.
	P90AbsMs float64
	// MedianRel is the median of |predicted − actual| / actual.
	MedianRel float64
	// FracUnder10ms is the fraction of pairs predicted within 10 ms, the
	// accuracy bar the paper states RNP clears for a majority of pairs.
	FracUnder10ms float64
}

// EvalError compares an embedding's predictions to the ground-truth
// matrix over all node pairs.
func EvalError(e *Embedding, m *latency.Matrix) (ErrorSummary, error) {
	if e.N() != m.N() {
		return ErrorSummary{}, fmt.Errorf("coord: embedding has %d nodes, matrix %d", e.N(), m.N())
	}
	var absErrs, relErrs []float64
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			actual := m.RTT(i, j)
			pred := e.Predict(i, j)
			ae := absFloat(pred - actual)
			absErrs = append(absErrs, ae)
			if actual > 0 {
				relErrs = append(relErrs, ae/actual)
			}
		}
	}
	var s ErrorSummary
	var err error
	if s.MedianAbsMs, err = stats.Median(absErrs); err != nil {
		return s, err
	}
	if s.P90AbsMs, err = stats.Percentile(absErrs, 90); err != nil {
		return s, err
	}
	if s.MedianRel, err = stats.Median(relErrs); err != nil {
		return s, err
	}
	s.FracUnder10ms = stats.FractionBelow(absErrs, 10)
	return s, nil
}
