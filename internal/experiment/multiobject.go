package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/stats"
)

// The multiobject experiment measures what demand-signature grouping
// buys a fleet: the same seeded multi-object workload runs twice, once
// through a naive service (every object solves its own placement every
// epoch — GroupEpsilon 0, no warm start, no drift skips) and once
// through the amortized service, and the figure compares the placement
// quality both deliver against the solve work each dispatched. Objects
// belong to a small number of workload classes (regional hotspot
// archetypes), so most of the fleet is redundant from the solver's point
// of view — the situation the grouping exploits.

// MultiObjectConfig parameterizes the multi-object experiment.
type MultiObjectConfig struct {
	// Setup builds the world (matrix + coordinates).
	Setup SetupConfig
	// NumDCs candidate data centers are drawn from the world's nodes.
	NumDCs int
	// K replicas per object, M micro-clusters per replica.
	K, M int
	// Objects is the fleet size; Classes the number of workload
	// archetypes the objects cycle through (object i gets class
	// i mod Classes).
	Objects, Classes int
	// AccessesPerObject accesses are generated per object per epoch:
	// HotFraction of them from the class's home region, the rest
	// uniform.
	AccessesPerObject int
	HotFraction       float64
	// Epochs is the number of placement epochs simulated.
	Epochs int
	// GroupEpsilon / DriftThreshold / WarmStart configure the amortized
	// pass (the naive pass always runs exact).
	GroupEpsilon   float64
	DriftThreshold float64
	WarmStart      bool
	// CapacityFactor, when > 0, gives each DC a slot budget of
	// ceil(Objects*K*CapacityFactor/NumDCs) so placements compete and
	// displacement shows up in the figure and the ledger. 0 disables
	// capacity accounting.
	CapacityFactor float64
	// Ledger, when non-nil, records the amortized pass's per-object
	// epoch decisions (audit with georepctl audit: per-class regret).
	Ledger *ledger.Ledger
}

// DefaultMultiObjectConfig returns a 200-object, 4-class scenario that
// runs in a few seconds.
func DefaultMultiObjectConfig() MultiObjectConfig {
	setup := DefaultSetup()
	setup.Nodes = 80
	return MultiObjectConfig{
		Setup:             setup,
		NumDCs:            12,
		K:                 3,
		M:                 8,
		Objects:           200,
		Classes:           4,
		AccessesPerObject: 40,
		HotFraction:       0.85,
		Epochs:            6,
		GroupEpsilon:      0.25,
		DriftThreshold:    0.05,
		WarmStart:         true,
		CapacityFactor:    1.25,
	}
}

func (c MultiObjectConfig) validate() error {
	if err := validateShape("multiobject", c.Setup, c.NumDCs, c.K, c.M); err != nil {
		return err
	}
	if c.Objects <= 0 || c.Classes <= 0 || c.AccessesPerObject <= 0 || c.Epochs <= 0 {
		return fmt.Errorf("experiment: multiobject needs positive Objects/Classes/Accesses/Epochs")
	}
	if c.Classes > c.Objects {
		return fmt.Errorf("experiment: multiobject Classes %d exceeds Objects %d", c.Classes, c.Objects)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("experiment: multiobject HotFraction %g out of [0,1]", c.HotFraction)
	}
	return nil
}

// MultiObjectRow is one epoch of the comparison.
type MultiObjectRow struct {
	Epoch int
	// NaiveSolves is the exact pass's solve count (== decided objects);
	// Groups/Solves/DriftSkips are the amortized pass's dispatch stats.
	NaiveSolves int
	Groups      int
	Solves      int
	DriftSkips  int
	// NaiveMeanMs / MeanMs are the ground-truth mean access delays the
	// two passes delivered this epoch.
	NaiveMeanMs float64
	MeanMs      float64
	// Migrated / Displaced are the amortized pass's fleet counts.
	Migrated  int
	Displaced int
	// MeanRegretMs is the amortized fleet's mean live regret this epoch
	// (each object's chosen cost vs the best counterfactual its solve
	// scored); Counterfactuals totals the scored alternatives.
	MeanRegretMs    float64
	Counterfactuals int
}

// MultiObjectResult aggregates the experiment.
type MultiObjectResult struct {
	Rows []MultiObjectRow
	// TotalNaiveSolves / TotalSolves are the passes' solve bills;
	// Amortization is their ratio (how many objects each dispatched
	// solve effectively served, drift skips included).
	TotalNaiveSolves int
	TotalSolves      int
	Amortization     float64
	// NaiveMeanMs / MeanMs average the per-epoch delays; DeltaMs is the
	// quality the grouping gave up (positive: amortized pass slower).
	NaiveMeanMs float64
	MeanMs      float64
	DeltaMs     float64
	// Displaced totals the amortized pass's capacity displacements.
	Displaced int
}

// multiObjectPass drives one service (naive or amortized) over the
// seeded workload. Both passes see byte-identical access sequences: all
// randomness derives from (seed, epoch, object), never from service
// state.
type multiObjectPass struct {
	svc  *placement.Service
	objs []*placement.Object
}

// MultiObject runs the experiment for one seed.
func MultiObject(seed int64, cfg MultiObjectConfig) (*MultiObjectResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := BuildWorld(seed, cfg.Setup)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed * 53))
	cand, clients := w.split(rng, cfg.NumDCs)

	// Class archetypes: each class is anchored at a client node and its
	// home set is the third of client nodes with the lowest RTT to the
	// anchor — a regional hotspot.
	anchorIdx := stats.SampleWithoutReplacement(rng, len(clients), cfg.Classes)
	homes := make([][]int, cfg.Classes)
	homeSize := len(clients) / 3
	if homeSize == 0 {
		homeSize = 1
	}
	for c, ai := range anchorIdx {
		anchor := clients[ai]
		byRTT := append([]int(nil), clients...)
		sort.Slice(byRTT, func(i, j int) bool {
			ri, rj := w.Matrix.RTT(byRTT[i], anchor), w.Matrix.RTT(byRTT[j], anchor)
			if ri != rj {
				return ri < rj
			}
			return byRTT[i] < byRTT[j]
		})
		homes[c] = byRTT[:homeSize]
	}

	var capacity []int
	if cfg.CapacityFactor > 0 {
		slots := (cfg.Objects*cfg.K*int(cfg.CapacityFactor*100) + 100*cfg.NumDCs - 1) / (100 * cfg.NumDCs)
		capacity = make([]int, cfg.NumDCs)
		for i := range capacity {
			capacity[i] = slots
		}
	}

	newPass := func(eps, drift float64, warm bool, led *ledger.Ledger, prov bool) (*multiObjectPass, error) {
		svc, err := placement.NewService(placement.ServiceConfig{
			Object: replica.Config{
				K: cfg.K, M: cfg.M, Dims: cfg.Setup.CoordDims,
				Ledger:     led,
				Provenance: prov,
			},
			Candidates:     cand,
			Coords:         w.Coords,
			GroupEpsilon:   eps,
			DriftThreshold: drift,
			WarmStart:      warm,
			Capacity:       capacity,
			Seed:           seed * 71,
		})
		if err != nil {
			return nil, err
		}
		p := &multiObjectPass{svc: svc}
		for i := 0; i < cfg.Objects; i++ {
			o, err := svc.Register(fmt.Sprintf("obj-%04d", i), fmt.Sprintf("class-%d", i%cfg.Classes))
			if err != nil {
				return nil, err
			}
			p.objs = append(p.objs, o)
		}
		return p, nil
	}
	naive, err := newPass(0, 0, false, nil, false)
	if err != nil {
		return nil, err
	}
	amortized, err := newPass(cfg.GroupEpsilon, cfg.DriftThreshold, cfg.WarmStart, cfg.Ledger, true)
	if err != nil {
		return nil, err
	}

	// epochDelay replays epoch's accesses into a pass and returns the
	// ground-truth mean delay. The access stream depends only on (seed,
	// epoch, object) so both passes replay identical demand.
	epochDelay := func(p *multiObjectPass, epoch int) (float64, error) {
		var acc stats.Accumulator
		for i, o := range p.objs {
			r := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)*int64(cfg.Objects) + int64(i)))
			home := homes[i%cfg.Classes]
			mean := 0.0
			var n int64
			for a := 0; a < cfg.AccessesPerObject; a++ {
				var client int
				if r.Float64() < cfg.HotFraction {
					client = home[r.Intn(len(home))]
				} else {
					client = clients[r.Intn(len(clients))]
				}
				rep, err := o.Record(w.Coords[client], 1)
				if err != nil {
					return 0, err
				}
				rtt := w.Matrix.RTT(client, rep)
				acc.Add(rtt)
				mean += rtt
				n++
			}
			o.RecordObserved(mean/float64(n), n)
		}
		return acc.Mean(), nil
	}

	res := &MultiObjectResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		naiveMs, err := epochDelay(naive, epoch)
		if err != nil {
			return nil, err
		}
		nst, err := naive.svc.EndEpoch()
		if err != nil {
			return nil, err
		}
		amortMs, err := epochDelay(amortized, epoch)
		if err != nil {
			return nil, err
		}
		ast, err := amortized.svc.EndEpoch()
		if err != nil {
			return nil, err
		}
		row := MultiObjectRow{
			Epoch:       epoch,
			NaiveSolves: nst.Solves,
			Groups:      ast.Groups,
			Solves:      ast.Solves,
			DriftSkips:  ast.DriftSkips,
			NaiveMeanMs: naiveMs,
			MeanMs:      amortMs,
			Migrated:    ast.Migrated,
			Displaced:   ast.Displaced,
		}
		var regretSum float64
		var provObjs int
		for _, o := range amortized.objs {
			if prov := o.LastProvenance(); prov != nil {
				regretSum += prov.RegretMs
				row.Counterfactuals += len(prov.Counterfactuals)
				provObjs++
			}
		}
		if provObjs > 0 {
			row.MeanRegretMs = regretSum / float64(provObjs)
		}
		res.Rows = append(res.Rows, row)
		res.TotalNaiveSolves += row.NaiveSolves
		res.TotalSolves += row.Solves
		res.NaiveMeanMs += row.NaiveMeanMs
		res.MeanMs += row.MeanMs
		res.Displaced += row.Displaced
	}
	n := float64(cfg.Epochs)
	res.NaiveMeanMs /= n
	res.MeanMs /= n
	res.DeltaMs = res.MeanMs - res.NaiveMeanMs
	if res.TotalSolves > 0 {
		res.Amortization = float64(res.TotalNaiveSolves) / float64(res.TotalSolves)
	}
	return res, nil
}

// RenderMultiObject formats the comparison as aligned text.
func RenderMultiObject(res *MultiObjectResult) string {
	var b strings.Builder
	b.WriteString("Multi-object: per-object solves vs demand-signature grouping\n")
	fmt.Fprintf(&b, "%-8s%12s%8s%8s%8s%12s%12s%10s%10s%10s%6s\n",
		"epoch", "naive-solve", "groups", "solves", "skips", "naive ms", "grouped ms", "migrated", "displaced", "regret", "cf")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-8d%12d%8d%8d%8d%12.1f%12.1f%10d%10d%10.3f%6d\n",
			r.Epoch, r.NaiveSolves, r.Groups, r.Solves, r.DriftSkips,
			r.NaiveMeanMs, r.MeanMs, r.Migrated, r.Displaced, r.MeanRegretMs, r.Counterfactuals)
	}
	fmt.Fprintf(&b, "solves: %d naive vs %d grouped — %.1fx amortization\n",
		res.TotalNaiveSolves, res.TotalSolves, res.Amortization)
	fmt.Fprintf(&b, "delay: naive %.1f ms, grouped %.1f ms (delta %+.2f ms)\n",
		res.NaiveMeanMs, res.MeanMs, res.DeltaMs)
	if res.Displaced > 0 {
		fmt.Fprintf(&b, "capacity: %d replicas displaced\n", res.Displaced)
	}
	return b.String()
}
