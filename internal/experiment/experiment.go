// Package experiment reproduces the paper's evaluation (§IV): it builds
// per-seed worlds (synthetic PlanetLab-like matrix + network coordinates),
// derives placement instances from them, runs every strategy, and formats
// the results as the paper's figures and tables. All results are averaged
// over independent seeds exactly as the paper averages over 30 runs.
package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/geo"
	"github.com/georep/georep/internal/latency"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/parallel"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/simnet"
	"github.com/georep/georep/internal/stats"
)

// SetupConfig describes how each seed's world is built.
type SetupConfig struct {
	// Nodes is the testbed size; the paper uses 226 PlanetLab nodes.
	Nodes int
	// CoordAlgorithm selects the coordinate system (RNP by default).
	CoordAlgorithm coord.Algorithm
	// CoordDims and CoordRounds parameterize the embedding.
	CoordDims   int
	CoordRounds int
	// NoiseFrac is the measurement noise during embedding.
	NoiseFrac float64
}

// DefaultSetup mirrors the paper's setting.
func DefaultSetup() SetupConfig {
	return SetupConfig{
		Nodes:          226,
		CoordAlgorithm: coord.AlgorithmRNP,
		CoordDims:      3,
		CoordRounds:    250,
		NoiseFrac:      0.08,
	}
}

// World is one seed's fixed environment: the RTT matrix and the
// coordinates every node ended up with. Candidate/client splits vary per
// experiment cell, the world does not.
type World struct {
	Seed       int64
	Matrix     *latency.Matrix
	Coords     []coord.Coordinate
	Placements []geo.Placement
}

// BuildWorld generates the matrix and runs the coordinate embedding for
// one seed.
func BuildWorld(seed int64, cfg SetupConfig) (*World, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("experiment: need at least 3 nodes, got %d", cfg.Nodes)
	}
	genCfg := latency.DefaultGenerateConfig()
	genCfg.Nodes = cfg.Nodes
	m, places, err := latency.Generate(rand.New(rand.NewSource(seed)), genCfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: matrix: %w", err)
	}
	emb, err := coord.Embed(rand.New(rand.NewSource(seed+1)), m, coord.EmbedConfig{
		Algorithm: cfg.CoordAlgorithm,
		Dims:      cfg.CoordDims,
		Rounds:    cfg.CoordRounds,
		NoiseFrac: cfg.NoiseFrac,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: embedding: %w", err)
	}
	return &World{Seed: seed, Matrix: m, Coords: emb.Coords, Placements: places}, nil
}

// BuildWorlds builds `runs` worlds with seeds 1..runs. Worlds are built
// concurrently (each seed's generation and embedding is self-contained),
// which is the dominant setup cost of every figure.
func BuildWorlds(runs int, cfg SetupConfig) ([]*World, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiment: runs must be positive, got %d", runs)
	}
	worlds := make([]*World, runs)
	errs := make([]error, runs)
	parallel.ForEach(runs, nil, func(i int) {
		worlds[i], errs[i] = BuildWorld(int64(i+1), cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return worlds, nil
}

// Instance derives a placement instance from the world: numDCs random
// nodes become candidate data centers ("since these nodes are dispersed
// at diverse geographic locations, each of them is assumed to represent a
// different data center"), every other node becomes a client.
func (w *World) Instance(r *rand.Rand, numDCs, k int) (*placement.Instance, error) {
	n := w.Matrix.N()
	if numDCs <= 0 || numDCs >= n {
		return nil, fmt.Errorf("experiment: numDCs %d out of (0,%d)", numDCs, n)
	}
	cand, clients := w.split(r, numDCs)
	in := &placement.Instance{
		NumNodes:   n,
		RTT:        w.Matrix.RTT,
		Coords:     w.Coords,
		Candidates: cand,
		Clients:    clients,
		K:          k,
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// split draws numDCs distinct nodes with r to be the candidate data
// centers and returns every other node, in id order, as a client. It
// consumes r only through one SampleWithoutReplacement: the draws each
// caller makes from r afterwards, and so its figure, depend on that.
func (w *World) split(r *rand.Rand, numDCs int) (cand, clients []int) {
	n := w.Matrix.N()
	cand = stats.SampleWithoutReplacement(r, n, numDCs)
	isCand := make([]bool, n)
	for _, c := range cand {
		isCand[c] = true
	}
	clients = make([]int, 0, n-numDCs)
	for i, c := range isCand {
		if !c {
			clients = append(clients, i)
		}
	}
	return cand, clients
}

// regions returns each client's region and the number of regions. Raw
// ids are the world's own: a region none of whose nodes is a client
// keeps its slot (drift's diurnal phases are spread over all of them).
// Dense ids renumber the regions that have clients from 0 in order of
// first appearance, which a workload stream spec requires.
func (w *World) regions(clients []int, dense bool) (ids []int, count int) {
	ids = make([]int, len(clients))
	remap := map[int]int{}
	for i, c := range clients {
		r := w.Placements[c].Region
		if dense {
			d, ok := remap[r]
			if !ok {
				d = len(remap)
				remap[r] = d
			}
			r = d
		}
		ids[i] = r
		count = max(count, r+1)
	}
	return ids, count
}

// network is a discrete-event simulator over the world's RTT matrix
// whose every node runs the same handlers.
func (w *World) network(onMessage simnet.MessageHandler, onRequest simnet.RequestHandler) (*simnet.Simulator, error) {
	sim := simnet.New(func(a, b simnet.NodeID) float64 {
		return w.Matrix.RTT(int(a), int(b))
	})
	for i := 0; i < w.Matrix.N(); i++ {
		if err := sim.AddNode(simnet.NodeID(i), onMessage, onRequest); err != nil {
			return nil, err
		}
	}
	return sim, nil
}

// echo answers a simulated call with its request: a read whose measured
// RTT is the access delay.
func echo(_ *simnet.Simulator, _ simnet.NodeID, req any) any { return req }

// validateShape checks the fields every single-world experiment shares:
// the candidate count fits the testbed, k fits the candidates, and the
// micro-cluster budget is positive.
func validateShape(name string, setup SetupConfig, numDCs, k, m int) error {
	if numDCs <= 0 || numDCs >= setup.Nodes {
		return fmt.Errorf("experiment: %s NumDCs %d out of (0,%d)", name, numDCs, setup.Nodes)
	}
	if k <= 0 || k > numDCs {
		return fmt.Errorf("experiment: %s K %d out of (0,%d]", name, k, numDCs)
	}
	if m <= 0 {
		return fmt.Errorf("experiment: %s M must be positive, got %d", name, m)
	}
	return nil
}

// Cell is one measured point: a strategy's mean access delay at fixed
// (numDCs, k), averaged over worlds.
type Cell struct {
	Strategy string
	MeanMs   float64
	StdDevMs float64
	Runs     int
}

// RunCell evaluates the strategies at one parameter point across all
// worlds. Each world contributes one run whose candidate set is drawn
// from a seed-derived RNG, so cells with equal parameters are comparable
// across strategies (identical instances).
func RunCell(worlds []*World, numDCs, k int, strategies []placement.Strategy) ([]Cell, error) {
	return RunCellObserved(worlds, numDCs, k, strategies, nil)
}

// RunCellObserved is RunCell with instrumentation: every run's mean
// access delay is also observed into reg as a per-strategy histogram
// (experiment_delay_ms_<strategy>), turning the cell averages into full
// placement-quality distributions with p50/p95/p99. A nil registry
// records nothing.
func RunCellObserved(worlds []*World, numDCs, k int, strategies []placement.Strategy, reg *metrics.Registry) ([]Cell, error) {
	if len(worlds) == 0 {
		return nil, fmt.Errorf("experiment: no worlds")
	}
	if len(strategies) == 0 {
		return nil, fmt.Errorf("experiment: no strategies")
	}
	// Derive each world's placement instance. The candidate split depends
	// only on the world seed and numDCs, never on evaluation order.
	ins := make([]*placement.Instance, len(worlds))
	errs := make([]error, len(worlds))
	parallel.ForEach(len(worlds), reg, func(wi int) {
		w := worlds[wi]
		ins[wi], errs[wi] = w.Instance(rand.New(rand.NewSource(w.Seed*1000+int64(numDCs))), numDCs, k)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Evaluate every (world × strategy) cell concurrently. Each cell gets
	// its own RNG seeded from (world seed, strategy index), so the grid
	// is reproducible regardless of which worker runs which cell.
	nS := len(strategies)
	grid := make([]float64, len(worlds)*nS)
	cellErrs := make([]error, len(worlds)*nS)
	parallel.ForEach(len(grid), reg, func(t int) {
		wi, si := t/nS, t%nS
		s := instrumented(strategies[si], reg)
		r := rand.New(rand.NewSource(worlds[wi].Seed*7919 + int64(si)))
		reps, err := s.Place(r, ins[wi])
		if err != nil {
			cellErrs[t] = fmt.Errorf("experiment: %s at dcs=%d k=%d: %w", s.Name(), numDCs, k, err)
			return
		}
		d := placement.MeanAccessDelay(ins[wi], reps)
		grid[t] = d
		reg.Counter("experiment_runs_total").Inc()
		reg.Histogram("experiment_delay_ms_"+s.Name(), metrics.LatencyBuckets()).Observe(d)
	})
	for _, err := range cellErrs {
		if err != nil {
			return nil, err
		}
	}

	// Reduce in world order — the same float summation order as the
	// serial loop, so cell means are byte-identical at any GOMAXPROCS.
	delays := make(map[string][]float64, nS)
	for wi := range worlds {
		for si, s := range strategies {
			delays[s.Name()] = append(delays[s.Name()], grid[wi*nS+si])
		}
	}
	cells := make([]Cell, 0, nS)
	for _, s := range strategies {
		xs := delays[s.Name()]
		cells = append(cells, Cell{
			Strategy: s.Name(),
			MeanMs:   stats.Mean(xs),
			StdDevMs: stats.StdDev(xs),
			Runs:     len(xs),
		})
	}
	return cells, nil
}

// instrumented threads the cell registry into strategies that expose
// search counters (the exhaustive optima), so combinations visited and
// pruned surface through the same Snapshot()/metrics paths as the delay
// histograms. Strategies that already carry a registry keep it.
func instrumented(s placement.Strategy, reg *metrics.Registry) placement.Strategy {
	if reg == nil {
		return s
	}
	switch t := s.(type) {
	case placement.Optimal:
		if t.Metrics == nil {
			t.Metrics = reg
		}
		return t
	case placement.OptimalPercentile:
		if t.Metrics == nil {
			t.Metrics = reg
		}
		return t
	}
	return s
}

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced paper figure as data plus a text rendering.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render formats the figure as an aligned text table, one row per X
// value and one column per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-28s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')

	// Collect the union of X values (they are identical across series in
	// practice, but stay safe).
	xset := make(map[float64]bool)
	for _, s := range f.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	for _, x := range xs {
		fmt.Fprintf(&b, "%-28g", x)
		for _, s := range f.Series {
			val := ""
			for i := range s.X {
				if s.X[i] == x {
					val = fmt.Sprintf("%.1f", s.Y[i])
					break
				}
			}
			fmt.Fprintf(&b, "%16s", val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with an x column and
// one column per series — ready for gnuplot/matplotlib.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	b.WriteByte('\n')

	xset := make(map[float64]bool)
	for _, s := range f.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteByte(',')
			for i := range s.X {
				if s.X[i] == x {
					fmt.Fprintf(&b, "%.4f", s.Y[i])
					break
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PaperStrategies returns the four approaches of §IV-A in the paper's
// order. m is the online approach's micro-cluster budget.
func PaperStrategies(m int) []placement.Strategy {
	return []placement.Strategy{
		placement.Random{},
		placement.OfflineKMeans{},
		placement.Online{M: m, Rounds: 2, AccessesPerClient: 1},
		placement.Optimal{},
	}
}

// AllStrategies returns every implemented placement heuristic plus the
// optimal bound — the ten-heuristic-comparison setting of Khan & Ahmad
// [12] applied to this problem. m is the online micro-cluster budget.
func AllStrategies(m int) []placement.Strategy {
	return []placement.Strategy{
		placement.Random{},
		placement.HotZone{},
		placement.OfflineKMeans{},
		placement.Online{M: m, Rounds: 2, AccessesPerClient: 1},
		placement.Greedy{},
		placement.LocalSearch{Base: placement.Online{M: m, Rounds: 2, AccessesPerClient: 1}},
		placement.Optimal{},
	}
}

// Figure1 reproduces "Impact of the number of data centers": mean access
// delay vs candidate DC count at fixed k, for the four paper strategies.
func Figure1(worlds []*World, dcCounts []int, k int, strategies []placement.Strategy) (*Figure, error) {
	if len(dcCounts) == 0 {
		return nil, fmt.Errorf("experiment: no DC counts")
	}
	fig := &Figure{
		Title:  fmt.Sprintf("Figure 1: impact of the number of data centers (%d replicas)", k),
		XLabel: "data centers",
		YLabel: "average access delay (ms)",
	}
	series := make(map[string]*Series, len(strategies))
	for _, s := range strategies {
		ser := &Series{Name: s.Name()}
		series[s.Name()] = ser
	}
	for _, dcs := range dcCounts {
		cells, err := RunCell(worlds, dcs, k, strategies)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			ser := series[c.Strategy]
			ser.X = append(ser.X, float64(dcs))
			ser.Y = append(ser.Y, c.MeanMs)
		}
	}
	for _, s := range strategies {
		fig.Series = append(fig.Series, *series[s.Name()])
	}
	return fig, nil
}

// Figure2 reproduces "Impact of the degree of replication": mean access
// delay vs k at a fixed DC count.
func Figure2(worlds []*World, numDCs int, ks []int, strategies []placement.Strategy) (*Figure, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("experiment: no replication degrees")
	}
	fig := &Figure{
		Title:  fmt.Sprintf("Figure 2: impact of the degree of replication (%d data centers)", numDCs),
		XLabel: "replicas",
		YLabel: "average access delay (ms)",
	}
	series := make(map[string]*Series, len(strategies))
	for _, s := range strategies {
		series[s.Name()] = &Series{Name: s.Name()}
	}
	for _, k := range ks {
		cells, err := RunCell(worlds, numDCs, k, strategies)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			ser := series[c.Strategy]
			ser.X = append(ser.X, float64(k))
			ser.Y = append(ser.Y, c.MeanMs)
		}
	}
	for _, s := range strategies {
		fig.Series = append(fig.Series, *series[s.Name()])
	}
	return fig, nil
}

// Figure3 reproduces "performance vs number of micro-clusters": the
// online strategy's delay vs k, one series per micro-cluster budget m.
func Figure3(worlds []*World, numDCs int, ks []int, ms []int) (*Figure, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("experiment: no micro-cluster budgets")
	}
	fig := &Figure{
		Title:  fmt.Sprintf("Figure 3: performance vs. number of micro-clusters (%d data centers)", numDCs),
		XLabel: "replicas",
		YLabel: "average access delay (ms)",
	}
	for _, m := range ms {
		strategies := []placement.Strategy{placement.Online{M: m, Rounds: 2, AccessesPerClient: 1}}
		ser := Series{Name: fmt.Sprintf("%d micro-clusters", m)}
		for _, k := range ks {
			cells, err := RunCell(worlds, numDCs, k, strategies)
			if err != nil {
				return nil, err
			}
			ser.X = append(ser.X, float64(k))
			ser.Y = append(ser.Y, cells[0].MeanMs)
		}
		fig.Series = append(fig.Series, ser)
	}
	return fig, nil
}
