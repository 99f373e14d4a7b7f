package replica

import (
	"math"
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/testenv"
	"github.com/georep/georep/internal/vec"
)

// TestProvenanceCaptureMigration drives the demand-shift scenario that
// migrates and checks the captured record: reason, cost decomposition,
// per-DC attribution mass, scored counterfactuals, and regret identity.
func TestProvenanceCaptureMigration(t *testing.T) {
	reg := metrics.NewRegistry()
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, Metrics: reg,
		Provenance: true, BurnRate: func() float64 { return 1.25 }})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		x := 95 + rng.Float64()*5
		if i%2 == 0 {
			x = 148 + rng.Float64()*4
		}
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{x, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := m.EndEpoch(rng)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Migrate || dec.MovedReplicas == 0 {
		t.Fatalf("scenario did not migrate: %+v", dec)
	}
	prov := m.LastProvenance()
	if prov == nil {
		t.Fatal("no provenance captured")
	}
	if prov.Reason != provenance.ReasonMigrated {
		t.Fatalf("reason = %s, want migrated", prov.Reason)
	}
	if prov.GateBurn != 1.25 {
		t.Fatalf("gate burn = %v, want the BurnRate hook's 1.25", prov.GateBurn)
	}
	if prov.ChosenCostMs <= 0 || prov.ReadMs <= 0 {
		t.Fatalf("cost decomposition empty: %+v", prov)
	}
	// The rejected previous placement plus at least one swap probe.
	if len(prov.Counterfactuals) < 2 {
		t.Fatalf("want >= 2 counterfactuals, got %d", len(prov.Counterfactuals))
	}
	sawPrevious := false
	for i, c := range prov.Counterfactuals {
		if c.Source == provenance.SourcePrevious {
			sawPrevious = true
		}
		if i > 0 && c.CostMs < prov.Counterfactuals[i-1].CostMs {
			t.Fatalf("counterfactuals not sorted cheapest-first: %+v", prov.Counterfactuals)
		}
		if got := c.CostMs - prov.ChosenCostMs; math.Abs(got-c.DeltaMs) > 1e-9 {
			t.Fatalf("counterfactual %d delta %v, want %v", i, c.DeltaMs, got)
		}
	}
	if !sawPrevious {
		t.Fatalf("migrated epoch lost its previous-placement counterfactual: %+v", prov.Counterfactuals)
	}
	var mass float64
	for _, d := range prov.PerDC {
		mass += d.Weight
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("per-DC weights sum to %v, want 1", mass)
	}
	if prov.RegretMs < 0 || prov.RegretRatio < 1 {
		t.Fatalf("regret out of range: %+v", prov)
	}
	snap := reg.Snapshot()
	if snap.Counters["provenance_epochs_total"] != 1 {
		t.Fatalf("estimator saw %d epochs, want 1", snap.Counters["provenance_epochs_total"])
	}
	if snap.Counters["provenance_reason_migrated_total"] != 1 {
		t.Fatalf("reason counter missing: %v", snap.Counters)
	}
	if snap.Gauges["provenance_regret_ratio"] < 1 {
		t.Fatalf("regret ratio gauge %v < 1", snap.Gauges["provenance_regret_ratio"])
	}
}

// TestProvenanceQuorumGated checks the below-quorum early path records
// the freeze with its gating inputs.
func TestProvenanceQuorumGated(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, Quorum: 0.9, Provenance: true})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{40, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	down := m.Replicas()[0]
	dec, err := m.EndEpochDegraded(rng, func(node int) bool { return node != down })
	if err != nil {
		t.Fatal(err)
	}
	if dec.QuorumOK {
		t.Fatalf("scenario met quorum: %+v", dec)
	}
	prov := m.LastProvenance()
	if prov == nil {
		t.Fatal("no provenance captured on quorum-gated epoch")
	}
	if prov.Reason != provenance.ReasonQuorumGated {
		t.Fatalf("reason = %s, want quorum-gated", prov.Reason)
	}
	if prov.GateMissing != 1 {
		t.Fatalf("gate missing = %d, want 1", prov.GateMissing)
	}
	if len(prov.Counterfactuals) != 0 {
		t.Fatalf("quorum-gated epoch scored counterfactuals: %+v", prov.Counterfactuals)
	}
}

// TestProvenanceOffDisablesCapture pins the off-by-default contract:
// without Config.Provenance, LastProvenance stays nil.
func TestProvenanceOffDisablesCapture(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{60, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(rng); err != nil {
		t.Fatal(err)
	}
	if m.LastProvenance() != nil {
		t.Fatal("provenance captured with Provenance off")
	}
}

// TestProvenanceSteadyStateAllocs is the zero-alloc gate: once scratch
// has warmed up, an epoch with provenance capture on allocates no more
// than the identical epoch with capture off.
func TestProvenanceSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts differ under the race detector")
	}
	epochAllocs := func(prov bool) float64 {
		cfg := Config{K: 2, M: 6, Dims: 2}
		if prov {
			cfg.Provenance = true
			cfg.BurnRate = func() float64 { return 0.5 }
		}
		m := managerFixture(t, cfg)
		rng := rand.New(rand.NewSource(7))
		epoch := func() {
			for i := 0; i < 120; i++ {
				x := 40 + float64(i%8)
				if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{x, 0}}, 1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.EndEpoch(rng); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			epoch() // warm scratch: summaries, estimator buffers, capture backing
		}
		return testing.AllocsPerRun(10, epoch)
	}
	off := epochAllocs(false)
	on := epochAllocs(true)
	if on > off {
		t.Fatalf("steady-state epoch allocates %v with provenance vs %v without", on, off)
	}
}

// TestProvenanceSilentAfterBusyEpoch covers a silent epoch that follows
// a busy one: every summary decayed away, so nothing is priced, and the
// capture must not read the busy epoch's per-micro costs.
func TestProvenanceSilentAfterBusyEpoch(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, DecayFactor: 0.3, Provenance: true})
	rng := rand.New(rand.NewSource(5))
	for _, x := range []float64{5, 60, 95, 140} {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{x, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(rng); err != nil {
		t.Fatal(err)
	}
	if prov := m.LastProvenance(); prov == nil || len(prov.PerDC) == 0 {
		t.Fatalf("busy epoch attributed nothing: %+v", prov)
	}
	dec, err := m.EndEpoch(rng)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate || dec.EstimatedOldMs != 0 {
		t.Fatalf("second epoch was not silent: %+v", dec)
	}
	prov := m.LastProvenance()
	if prov == nil || prov.Reason != provenance.ReasonSteady {
		t.Fatalf("silent epoch provenance = %+v, want reason steady", prov)
	}
	if len(prov.PerDC) != 0 || len(prov.Counterfactuals) != 0 {
		t.Fatalf("silent epoch attributed demand it never saw: %+v", prov)
	}
}
