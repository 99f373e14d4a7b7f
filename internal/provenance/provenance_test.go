package provenance

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/georep/georep/internal/metrics"
)

func TestReasonAndSourceRoundTrip(t *testing.T) {
	for r := ReasonSteady; r < reasonCount; r++ {
		back, err := ParseReason(r.String())
		if err != nil {
			t.Fatalf("ParseReason(%q): %v", r.String(), err)
		}
		if back != r {
			t.Fatalf("reason %d round-tripped to %d via %q", r, back, r.String())
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal reason %v: %v", r, err)
		}
		var jr Reason
		if err := json.Unmarshal(b, &jr); err != nil || jr != r {
			t.Fatalf("reason %v JSON round-trip: got %v, err %v", r, jr, err)
		}
	}
	if _, err := ParseReason("not-a-reason"); err == nil {
		t.Fatal("ParseReason accepted an unknown name")
	}
	for s := SourcePrevious; s < sourceCount; s++ {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal source %v: %v", s, err)
		}
		var js Source
		if err := json.Unmarshal(b, &js); err != nil || js != s {
			t.Fatalf("source %v JSON round-trip: got %v, err %v", s, js, err)
		}
	}
	var s Source
	if err := json.Unmarshal([]byte(`"not-a-source"`), &s); err == nil {
		t.Fatal("source unmarshal accepted an unknown name")
	}
}

func TestFinalizeSortsDeltasAndRegret(t *testing.T) {
	var r Record
	r.AddCounterfactual(SourceSwap, 30, []int{1, 2})
	r.AddCounterfactual(SourceProposed, 18, []int{3, 4})
	r.AddCounterfactual(SourceFrontier, 25, []int{5, 6})
	r.Finalize(20)

	if got := []float64{r.Counterfactuals[0].CostMs, r.Counterfactuals[1].CostMs, r.Counterfactuals[2].CostMs}; got[0] != 18 || got[1] != 25 || got[2] != 30 {
		t.Fatalf("not sorted cheapest-first: %v", got)
	}
	if r.Counterfactuals[0].DeltaMs != -2 || r.Counterfactuals[2].DeltaMs != 10 {
		t.Fatalf("deltas wrong: %+v", r.Counterfactuals)
	}
	if r.BestAltMs != 18 || r.RegretMs != 2 || math.Abs(r.RegretRatio-20.0/18.0) > 1e-12 {
		t.Fatalf("regret wrong: best %v regret %v ratio %v", r.BestAltMs, r.RegretMs, r.RegretRatio)
	}

	// Chosen already the best: zero regret, ratio exactly 1.
	r.Reset()
	r.AddCounterfactual(SourceSwap, 50, []int{1})
	r.Finalize(40)
	if r.RegretMs != 0 || r.RegretRatio != 1 || r.BestAltMs != 50 {
		t.Fatalf("no-regret case: %+v", r)
	}

	// No counterfactuals at all: the quorum-gated shape.
	r.Reset()
	r.Finalize(40)
	if r.BestAltMs != 0 || r.RegretMs != 0 || r.RegretRatio != 1 {
		t.Fatalf("empty case: %+v", r)
	}
}

func TestFinalizeTruncatesToBound(t *testing.T) {
	var r Record
	for i := 0; i < MaxCounterfactuals+4; i++ {
		r.AddCounterfactual(SourceSwap, float64(100-i), []int{i})
	}
	r.Finalize(50)
	if len(r.Counterfactuals) != MaxCounterfactuals {
		t.Fatalf("kept %d counterfactuals, want %d", len(r.Counterfactuals), MaxCounterfactuals)
	}
	// The cheapest of the oversupply must be the ones retained.
	for i, c := range r.Counterfactuals {
		if want := float64(100 - (MaxCounterfactuals + 3) + i); c.CostMs != want {
			t.Fatalf("slot %d cost %v, want %v (cheapest retained)", i, c.CostMs, want)
		}
	}
	if err := r.Validate(nil); err != nil {
		t.Fatalf("truncated record invalid: %v", err)
	}
}

func TestResetReusesBacking(t *testing.T) {
	var r Record
	fill := func() {
		for i := 0; i < MaxCounterfactuals; i++ {
			r.AddCounterfactual(SourceSwap, float64(i), []int{i, i + 1, i + 2})
		}
		r.PerDC = append(r.PerDC, DCShare{Node: 1, Weight: 1, MeanMs: 2})
		r.Finalize(3)
	}
	fill()
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+refill allocates %.1f times per epoch", allocs)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]Record{
		"unknown reason":   {Reason: reasonCount},
		"negative missing": {GateMissing: -1},
		"NaN cost":         {ChosenCostMs: math.NaN()},
		"Inf burn":         {GateBurn: math.Inf(1)},
		"NaN per-DC":       {PerDC: []DCShare{{Node: 0, Weight: math.NaN()}}},
		"over bound":       {Counterfactuals: make([]Candidate, MaxCounterfactuals+1)},
		"bad source":       {Counterfactuals: []Candidate{{Source: sourceCount}}},
	}
	for name, rec := range cases {
		if err := rec.Validate(nil); err == nil {
			t.Errorf("%s: Validate accepted the record", name)
		}
	}
	bad := Record{PerDC: []DCShare{{Node: 99}}}
	if err := bad.Validate(func(n int) bool { return n < 10 }); err == nil {
		t.Error("Validate accepted a per-DC node outside the candidate set")
	}
	good := Record{Reason: ReasonMigrated, ChosenCostMs: 1, RegretRatio: 1}
	if err := good.Validate(func(n int) bool { return true }); err != nil {
		t.Errorf("Validate rejected a well-formed record: %v", err)
	}
}

func TestEstimatorObserve(t *testing.T) {
	reg := metrics.NewRegistry()
	e := NewEstimator(reg)

	var r Record
	r.Reason = ReasonHeldBudget
	r.AddCounterfactual(SourceProposed, 18, []int{1})
	r.Finalize(20)
	e.Observe(&r)
	e.Observe(&r)

	snap := reg.Snapshot()
	counters, gauges := snap.Counters, snap.Gauges
	if counters["provenance_epochs_total"] != 2 ||
		counters["provenance_epochs_with_counterfactuals_total"] != 2 ||
		counters["provenance_reason_held-budget_total"] != 2 {
		t.Fatalf("counters wrong: %v", counters)
	}
	if gauges["provenance_chosen_cost_ms"] != 20 || gauges["provenance_best_alt_ms"] != 18 ||
		gauges["provenance_regret_ms"] != 2 || gauges["provenance_regret_ms_total"] != 4 {
		t.Fatalf("gauges wrong: %v", gauges)
	}
	if math.Abs(gauges["provenance_regret_ratio"]-20.0/18.0) > 1e-12 {
		t.Fatalf("regret ratio gauge %v", gauges["provenance_regret_ratio"])
	}

	// A record with zero ratio (never finalized) must read as 1, the
	// well-defined no-regret value the gauge starts at.
	var zero Record
	e.Observe(&zero)
	if v := reg.Snapshot().Gauges["provenance_regret_ratio"]; v != 1 {
		t.Fatalf("zero-ratio record left the ratio gauge at %v, want 1", v)
	}

	// A nil estimator is a no-op, not a crash.
	(*Estimator)(nil).Observe(&r)
}
