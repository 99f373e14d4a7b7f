// Package georep is a library for latency-driven data replication across
// data centers, reproducing Ping et al., "Towards Optimal Data
// Replication Across Data Centers" (ICDCS Workshops 2011).
//
// The system assigns every node a synthetic network coordinate, keeps a
// tiny micro-cluster summary of recent client accesses at each replica,
// periodically macro-clusters the summaries with weighted k-means, and
// migrates replicas toward the resulting population centroids when the
// estimated latency gain justifies the migration cost. The result is a
// replica placement whose mean client access delay tracks the true
// optimum while shipping only O(k·m) bytes of summary per decision,
// regardless of how many clients access the data.
//
// Three layers are exposed:
//
//   - Deployment: a set of nodes with pairwise RTTs (synthetic or loaded
//     from measurements) and network coordinates embedded over them.
//   - One-shot placement: Place runs a named strategy (random, offline
//     k-means, the paper's online algorithm, exhaustive optimal, greedy,
//     hotzone) and evaluates it against ground truth.
//   - Manager: the live system — route client accesses to the closest
//     replica, summarize them, and migrate at epoch boundaries.
//
// Everything is deterministic given explicit seeds, uses only the
// standard library, and runs at full paper scale (226 nodes, 30 runs) in
// seconds.
package georep

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/latency"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/vec"
)

// Coordinate is a network coordinate: a point in a low-dimensional
// Euclidean space plus a non-negative height modelling access-link delay.
// The predicted RTT between two nodes is the Euclidean distance between
// their positions plus both heights, in milliseconds.
type Coordinate struct {
	Pos    []float64
	Height float64
}

// DistanceTo predicts the RTT in milliseconds to another coordinate.
func (c Coordinate) DistanceTo(o Coordinate) float64 {
	return toInternal(c).DistanceTo(toInternal(o))
}

func toInternal(c Coordinate) coord.Coordinate {
	return coord.Coordinate{Pos: vec.Vec(c.Pos), Height: c.Height}
}

func fromInternal(c coord.Coordinate) Coordinate {
	return Coordinate{Pos: append([]float64(nil), c.Pos...), Height: c.Height}
}

// options collects deployment construction settings. err carries the
// first option-parse failure so construction can report it instead of a
// generic validation error.
type options struct {
	algorithm coord.Algorithm
	dims      int
	rounds    int
	noiseFrac float64
	nodes     int
	err       error
}

func defaultOptions() options {
	return options{
		algorithm: coord.AlgorithmRNP,
		dims:      3,
		rounds:    250,
		noiseFrac: 0.08,
		nodes:     226,
	}
}

// Option configures Simulate and Load.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithCoordinateAlgorithm selects the embedding algorithm: "rnp" (the
// paper's, default) or "vivaldi". An unknown name surfaces as an error
// from the constructor (Simulate, Load, LoadKing) naming the bad input.
func WithCoordinateAlgorithm(name string) Option {
	return optionFunc(func(o *options) {
		a, err := coord.ParseAlgorithm(name)
		if err != nil {
			if o.err == nil {
				o.err = fmt.Errorf("georep: coordinate algorithm: %w", err)
			}
			return
		}
		o.algorithm = a
	})
}

// WithDimensions sets the coordinate-space dimensionality (default 3).
func WithDimensions(d int) Option {
	return optionFunc(func(o *options) { o.dims = d })
}

// WithEmbeddingRounds sets how many gossip rounds the embedding runs
// (default 250).
func WithEmbeddingRounds(r int) Option {
	return optionFunc(func(o *options) { o.rounds = r })
}

// WithMeasurementNoise sets the relative RTT measurement noise during
// embedding (default 0.08).
func WithMeasurementNoise(frac float64) Option {
	return optionFunc(func(o *options) { o.noiseFrac = frac })
}

// WithNodes sets the simulated testbed size (default 226, the paper's).
// Ignored by Load, which takes the size from the matrix.
func WithNodes(n int) Option {
	return optionFunc(func(o *options) { o.nodes = n })
}

// Deployment is a fixed set of nodes with ground-truth RTTs and embedded
// network coordinates. It is immutable and safe for concurrent reads.
type Deployment struct {
	matrix *latency.Matrix
	coords []coord.Coordinate
	stats  coord.EmbedStats
}

// Simulate builds a deployment over a synthetic PlanetLab-like RTT matrix
// and embeds coordinates. The same seed and options always produce the
// same deployment.
func Simulate(seed int64, opts ...Option) (*Deployment, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.err != nil {
		return nil, fmt.Errorf("simulate: %w", o.err)
	}
	genCfg := latency.DefaultGenerateConfig()
	genCfg.Nodes = o.nodes
	m, _, err := latency.Generate(rand.New(rand.NewSource(seed)), genCfg)
	if err != nil {
		return nil, fmt.Errorf("georep: simulate: %w", err)
	}
	return embed(m, seed, o)
}

// Load builds a deployment from a measured RTT matrix in the text format
// of cmd/latgen: first line the node count n, then n rows of n
// space-separated millisecond values.
func Load(r io.Reader, seed int64, opts ...Option) (*Deployment, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.err != nil {
		return nil, fmt.Errorf("load: %w", o.err)
	}
	m, err := latency.Read(r)
	if err != nil {
		return nil, fmt.Errorf("georep: load: %w", err)
	}
	return embed(m, seed, o)
}

// LoadKing builds a deployment from a matrix in the "king"/p2psim
// format used by public RTT datasets: whitespace-separated microsecond
// integers, one row per line, negative entries marking failed
// measurements (repaired from row medians).
func LoadKing(r io.Reader, seed int64, opts ...Option) (*Deployment, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.err != nil {
		return nil, fmt.Errorf("load king: %w", o.err)
	}
	m, err := latency.ReadKing(r)
	if err != nil {
		return nil, fmt.Errorf("georep: load king: %w", err)
	}
	return embed(m, seed, o)
}

func embed(m *latency.Matrix, seed int64, o options) (*Deployment, error) {
	emb, st, err := coord.EmbedWithStats(rand.New(rand.NewSource(seed+1)), m, coord.EmbedConfig{
		Algorithm: o.algorithm,
		Dims:      o.dims,
		Rounds:    o.rounds,
		NoiseFrac: o.noiseFrac,
	})
	if err != nil {
		return nil, fmt.Errorf("georep: embed: %w", err)
	}
	return &Deployment{matrix: m, coords: emb.Coords, stats: *st}, nil
}

// EmbeddingStability describes convergence of the deployment's
// coordinate run.
type EmbeddingStability struct {
	// DriftMsPerRound is the mean per-node coordinate movement per round
	// over the final quarter of the embedding — residual oscillation.
	DriftMsPerRound float64
	// MeanErrorEstimate is the nodes' own average confidence (relative
	// error estimate) at the end of the run; lower is more confident.
	MeanErrorEstimate float64
}

// EmbeddingStability reports how settled the coordinate system was when
// the deployment's embedding finished.
func (d *Deployment) EmbeddingStability() EmbeddingStability {
	return EmbeddingStability{
		DriftMsPerRound:   d.stats.DriftMsPerRound,
		MeanErrorEstimate: d.stats.MeanErrorEstimate,
	}
}

// Nodes returns the number of nodes in the deployment.
func (d *Deployment) Nodes() int { return d.matrix.N() }

// RTT returns the ground-truth round-trip time between two nodes in
// milliseconds.
func (d *Deployment) RTT(i, j int) float64 { return d.matrix.RTT(i, j) }

// PredictedRTT returns the coordinate-predicted round-trip time between
// two nodes in milliseconds — what the placement algorithms actually see.
func (d *Deployment) PredictedRTT(i, j int) float64 {
	if i == j {
		return 0
	}
	return d.coords[i].DistanceTo(d.coords[j])
}

// Coordinate returns node i's network coordinate.
func (d *Deployment) Coordinate(i int) Coordinate { return fromInternal(d.coords[i]) }

// Strategy names a placement algorithm.
type Strategy string

// Available placement strategies.
const (
	// StrategyRandom places replicas at uniformly random candidates.
	StrategyRandom Strategy = "random"
	// StrategyOfflineKMeans clusters every client coordinate centrally.
	StrategyOfflineKMeans Strategy = "offline-kmeans"
	// StrategyOnline is the paper's micro-cluster algorithm.
	StrategyOnline Strategy = "online"
	// StrategyOptimal exhaustively searches all placements (ground truth).
	StrategyOptimal Strategy = "optimal"
	// StrategyGreedy adds the best candidate one at a time (Qiu et al.).
	StrategyGreedy Strategy = "greedy"
	// StrategyHotZone places replicas in the most crowded coordinate
	// cells (Szymaniak et al.).
	StrategyHotZone Strategy = "hotzone"
	// StrategyLocalSearch hill-climbs from the online placement by
	// single-replica swaps; much costlier, slightly better.
	StrategyLocalSearch Strategy = "local-search"
)

// Strategies lists every available strategy name.
func Strategies() []Strategy {
	return []Strategy{
		StrategyRandom, StrategyOfflineKMeans, StrategyOnline,
		StrategyOptimal, StrategyGreedy, StrategyHotZone,
		StrategyLocalSearch,
	}
}

// PlaceConfig parameterizes a one-shot placement.
type PlaceConfig struct {
	// K is the number of replicas to place.
	K int
	// Candidates are node indices eligible to host replicas.
	Candidates []int
	// Clients are node indices whose mean access delay is minimized.
	Clients []int
	// MicroClusters is the online strategy's per-replica budget m
	// (default 10). Other strategies ignore it.
	MicroClusters int
	// Seed drives the strategy's randomness.
	Seed int64
}

// Placement is the result of a one-shot placement run.
type Placement struct {
	// Strategy that produced the placement.
	Strategy Strategy
	// Replicas are the chosen data-center node indices.
	Replicas []int
	// MeanDelayMs is the ground-truth mean client access delay.
	MeanDelayMs float64
}

func newStrategy(name Strategy, microClusters int) (placement.Strategy, error) {
	switch name {
	case StrategyRandom:
		return placement.Random{}, nil
	case StrategyOfflineKMeans:
		return placement.OfflineKMeans{}, nil
	case StrategyOnline:
		m := microClusters
		if m <= 0 {
			m = 10
		}
		return placement.Online{M: m, Rounds: 2, AccessesPerClient: 1}, nil
	case StrategyOptimal:
		return placement.Optimal{}, nil
	case StrategyGreedy:
		return placement.Greedy{}, nil
	case StrategyHotZone:
		return placement.HotZone{}, nil
	case StrategyLocalSearch:
		m := microClusters
		if m <= 0 {
			m = 10
		}
		return placement.LocalSearch{
			Base: placement.Online{M: m, Rounds: 2, AccessesPerClient: 1},
		}, nil
	default:
		return nil, fmt.Errorf("georep: unknown strategy %q", name)
	}
}

// Place runs one placement strategy on the deployment and evaluates it
// against ground truth.
func (d *Deployment) Place(name Strategy, cfg PlaceConfig) (*Placement, error) {
	s, err := newStrategy(name, cfg.MicroClusters)
	if err != nil {
		return nil, err
	}
	in := &placement.Instance{
		NumNodes:   d.matrix.N(),
		RTT:        d.matrix.RTT,
		Coords:     d.coords,
		Candidates: cfg.Candidates,
		Clients:    cfg.Clients,
		K:          cfg.K,
	}
	reps, err := s.Place(rand.New(rand.NewSource(cfg.Seed)), in)
	if err != nil {
		return nil, fmt.Errorf("georep: place %s: %w", name, err)
	}
	return &Placement{
		Strategy:    name,
		Replicas:    reps,
		MeanDelayMs: placement.MeanAccessDelay(in, reps),
	}, nil
}

// EmbeddingAccuracy describes how well the deployment's coordinates
// predict its true RTTs.
type EmbeddingAccuracy struct {
	// MedianAbsMs is the median absolute prediction error over all pairs.
	MedianAbsMs float64
	// P90AbsMs is the 90th-percentile absolute error.
	P90AbsMs float64
	// MedianRel is the median relative error.
	MedianRel float64
	// FracUnder10ms is the fraction of pairs predicted within 10 ms —
	// the accuracy bar the paper states RNP clears for most pairs.
	FracUnder10ms float64
}

// EmbeddingAccuracy evaluates the deployment's coordinates against its
// ground-truth RTT matrix.
func (d *Deployment) EmbeddingAccuracy() (EmbeddingAccuracy, error) {
	emb := &coord.Embedding{Coords: d.coords}
	s, err := coord.EvalError(emb, d.matrix)
	if err != nil {
		return EmbeddingAccuracy{}, fmt.Errorf("georep: accuracy: %w", err)
	}
	return EmbeddingAccuracy{
		MedianAbsMs:   s.MedianAbsMs,
		P90AbsMs:      s.P90AbsMs,
		MedianRel:     s.MedianRel,
		FracUnder10ms: s.FracUnder10ms,
	}, nil
}

// MeanAccessDelay evaluates an arbitrary replica set against ground
// truth: the mean over clients of the RTT to the closest replica.
func (d *Deployment) MeanAccessDelay(clients, replicas []int) (float64, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("georep: no replicas")
	}
	if len(clients) == 0 {
		return 0, fmt.Errorf("georep: no clients")
	}
	n := d.matrix.N()
	for _, x := range append(append([]int(nil), clients...), replicas...) {
		if x < 0 || x >= n {
			return 0, fmt.Errorf("georep: node %d out of range [0,%d)", x, n)
		}
	}
	in := &placement.Instance{
		NumNodes: n,
		RTT:      d.matrix.RTT,
		Coords:   d.coords,
		Clients:  clients,
	}
	return placement.MeanAccessDelay(in, replicas), nil
}
