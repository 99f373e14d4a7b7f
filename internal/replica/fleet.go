package replica

import (
	"fmt"
	"math"
	"strconv"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/vec"
)

// Fleet is the state every Manager placing objects over one world would
// otherwise hold an identical copy of: the configuration template, the
// world tables (candidates, their coordinates, every node's position),
// the metric handles, and the completion scratch. The multi-object
// service builds one and registers every object against it; NewManager
// builds a private one. Either way there is one Manager code path.
//
// The completion scratch is live only inside one CompleteEpoch, so
// managers sharing a Fleet must not complete epochs concurrently (the
// service completes its objects one at a time under its lock). The
// record path reads only the immutable tables and the atomic metric
// handles, so it may run beside another manager's epoch.
type Fleet struct {
	cfg        Config // defaults filled; ObjectID and Class are per manager
	candidates []int
	coords     []coord.Coordinate
	// positions aliases coords' position vectors, indexed by node, so the
	// batch ingest path resolves a client id to its coordinate with one
	// slice read and no allocation.
	positions []vec.Vec
	// candCoords is coords[candidates[i]]: the ledger's candidate table.
	candCoords []coord.Coordinate
	// collectNames[i] is the collect span name of candidates[i] (with a
	// tracer only).
	collectNames []string
	met          managerMetrics
	provEst      *provenance.Estimator
	sc           completeScratch
}

// completeScratch is the working memory of one CompleteEpoch, reused
// across epochs and objects: the per-micro cache, the k-means working
// set, and the provenance capture's swap probe and per-DC accumulators.
// None of it outlives the call.
type completeScratch struct {
	// The epoch's weighted micros, computed once per CompleteEpoch:
	// flattened centroids (dims each), weights and their total. A micro
	// of zero weight is left out, as every estimate leaves it out.
	cent []float64
	w    []float64
	mass float64
	dims int
	// Per-micro costs of the current placement and of the sorted
	// proposal; the adopted one feeds attribution and the swap probes.
	old, new placementCost
	sorted   []int

	km   cluster.KMeansScratch
	swap []int
	dcw  []float64
	dcd  []float64
	// provMass is the attributed weight the swap probes divide by.
	provMass float64
}

// placementCost is one placement priced over the micro cache: per
// micro, the nearest replica's cost and slot and the runner-up's cost
// (what a micro pays if its nearest is swapped away). n is the number
// of micros priced; zero when the estimate failed or has not run this
// epoch.
type placementCost struct {
	best, best2 []float64
	owner       []int
	n           int
}

// fillMicros computes the epoch's per-micro cache. It also forgets the
// per-micro costs of the last epoch the scratch served — this object's
// or another's — so an epoch that prices nothing attributes nothing.
func (sc *completeScratch) fillMicros(micros []cluster.Micro) {
	sc.cent, sc.w, sc.mass = sc.cent[:0], sc.w[:0], 0
	sc.old.n, sc.new.n = 0, 0
	for i := range micros {
		w := micros[i].Weight
		if w == 0 {
			w = float64(micros[i].Count)
		}
		if w == 0 {
			continue
		}
		start := len(sc.cent)
		sc.cent = append(sc.cent, micros[i].Sum...)
		sc.dims = len(micros[i].Sum)
		micros[i].CentroidInto(sc.cent[start:])
		sc.w = append(sc.w, w)
		sc.mass += w
	}
}

// estimate returns the access-weighted mean predicted delay of serving
// the cached micros from reps (EstimateMeanDelay's objective: the same
// distances summed in the same order), recording each micro's costs in
// pc with slots indexing reps.
func (sc *completeScratch) estimate(pc *placementCost, reps []int, coords []coord.Coordinate) (float64, error) {
	pc.n = 0
	if len(reps) == 0 {
		return 0, fmt.Errorf("replica: no replicas to estimate against")
	}
	n := len(sc.w)
	if n == 0 {
		return 0, nil
	}
	for _, rep := range reps {
		if rep < 0 || rep >= len(coords) {
			return 0, fmt.Errorf("replica: replica node %d out of coordinate range", rep)
		}
	}
	if cap(pc.best) < n {
		pc.best = make([]float64, n)
		pc.best2 = make([]float64, n)
		pc.owner = make([]int, n)
	}
	best, best2, owner := pc.best[:n], pc.best2[:n], pc.owner[:n]
	dims := sc.dims
	var total float64
	for i := range best {
		c := vec.Vec(sc.cent[i*dims : (i+1)*dims])
		b, b2, bj := math.Inf(1), math.Inf(1), -1
		for j, rep := range reps {
			// Predicted serving latency includes the replica's height
			// (access-link delay); the clients' own heights are unknown
			// from the summary but shift every placement equally.
			d := coords[rep].Pos.Dist(c) + coords[rep].Height
			if d < b {
				b2 = b
				b, bj = d, j
			} else if d < b2 {
				b2 = d
			}
		}
		best[i], best2[i], owner[i] = b, b2, bj
		total += sc.w[i] * b
	}
	pc.n = n
	if sc.mass == 0 {
		return 0, nil
	}
	return total / sc.mass, nil
}

// NewFleet validates cfg and the world once and builds the shared
// tables. coords must cover every node index that will ever be routed or
// hosted. cfg.ObjectID and cfg.Class are ignored: each manager is named
// at NewManager.
func NewFleet(cfg Config, candidates []int, coords []coord.Coordinate) (*Fleet, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(candidates) < cfg.KPolicy.Max {
		return nil, fmt.Errorf("replica: %d candidates but KPolicy.Max=%d", len(candidates), cfg.KPolicy.Max)
	}
	seen := make(map[int]bool, len(candidates))
	for _, c := range candidates {
		if c < 0 || c >= len(coords) {
			return nil, fmt.Errorf("replica: candidate %d outside coordinate range", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("replica: duplicate candidate %d", c)
		}
		seen[c] = true
	}
	cfg.ObjectID, cfg.Class = "", ""
	f := &Fleet{
		cfg:        cfg,
		candidates: append([]int(nil), candidates...),
		coords:     coords,
		positions:  make([]vec.Vec, len(coords)),
		candCoords: make([]coord.Coordinate, len(candidates)),
		met:        newManagerMetrics(cfg.Metrics),
	}
	for i := range coords {
		f.positions[i] = coords[i].Pos
	}
	for i, c := range candidates {
		f.candCoords[i] = coords[c]
	}
	if cfg.Tracer != nil {
		f.collectNames = make([]string, len(candidates))
		for i, c := range candidates {
			f.collectNames[i] = "collect " + strconv.Itoa(c)
		}
	}
	if cfg.Provenance && cfg.Metrics != nil {
		f.provEst = provenance.NewEstimator(cfg.Metrics)
	}
	return f, nil
}

// candIndex returns node's index among the candidates, or -1.
func (f *Fleet) candIndex(node int) int {
	for i, c := range f.candidates {
		if c == node {
			return i
		}
	}
	return -1
}

// NewManager creates a manager over the fleet's world under the fleet's
// configuration, stamping objectID and class into its ledger records.
// initial lists the starting replica locations; nil places the first K
// candidates.
func (f *Fleet) NewManager(objectID, class string, initial []int) (*Manager, error) {
	k := f.cfg.K
	if initial == nil {
		initial = f.candidates[:k]
	}
	if len(initial) != k {
		return nil, fmt.Errorf("replica: %d initial replicas for K=%d", len(initial), k)
	}
	for _, rep := range initial {
		if f.candIndex(rep) < 0 {
			return nil, fmt.Errorf("replica: initial replica %d is not a candidate", rep)
		}
	}
	m := &Manager{
		f:        f,
		objectID: objectID,
		class:    class,
		k:        k,
		replicas: append([]int(nil), initial...),
		slots:    make([]replicaSlot, k),
	}
	f.met.k.Set(float64(k))
	for i := range m.slots {
		srv, err := f.cfg.newServer()
		if err != nil {
			return nil, err
		}
		m.slots[i].srv = srv
	}
	return m, nil
}
