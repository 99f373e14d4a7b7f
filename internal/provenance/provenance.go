// Package provenance captures *why* each epoch's placement decision came
// out the way it did: the chosen placement's cost decomposition (read
// delay, write fanout, migration price, per-DC contributions), the
// counterfactual placements the decision machinery actually scored with
// their cost deltas, a structured outcome reason carrying the gating
// inputs that produced it (SLO burn, missing summaries, signature drift,
// capacity occupancy), and the online regret the epoch accrued against
// the best recorded counterfactual.
//
// The ledger (codec v3) persists a Record per epoch, the replica manager
// fills one in-place on the epoch hot path (bounded and allocation-free
// in steady state — see Reset/AddCounterfactual), the live Estimator
// folds each record into provenance_* gauges, and internal/explain joins
// recorded reasons with the offline audit. This layer is the substrate
// the ROADMAP's migration planner and cross-objective ranking need: a
// planner cannot be debugged, and candidate deployments cannot be
// compared, without per-decision accounting of costs and alternatives.
package provenance

import (
	"encoding/json"
	"fmt"
	"math"
)

// Reason classifies the outcome of one epoch's placement decision.
type Reason uint8

const (
	// ReasonSteady: the machinery ran and kept the placement — either
	// the proposal matched, or the migration gate judged the gain too
	// small to pay for.
	ReasonSteady Reason = iota
	// ReasonMigrated: a placement change was adopted and replicas moved.
	ReasonMigrated
	// ReasonHeldBudget: the gate approved a move but the SLO error
	// budget was exhausted, so the migration was deferred
	// (replica.Decision.Held).
	ReasonHeldBudget
	// ReasonQuorumGated: too few fresh summaries arrived to trust any
	// decision; the placement is frozen until quorum returns.
	ReasonQuorumGated
	// ReasonDriftSkipped: the multi-object service reused the group's
	// cached placement because the leader's demand signature moved less
	// than the drift threshold — no solve ran at all.
	ReasonDriftSkipped
	// ReasonDisplaced: per-DC capacity accounting pushed at least one
	// replica off its demand-optimal data center this epoch.
	ReasonDisplaced
	reasonCount
)

// String returns the reason's wire/CLI name.
func (r Reason) String() string {
	switch r {
	case ReasonMigrated:
		return "migrated"
	case ReasonHeldBudget:
		return "held-budget"
	case ReasonQuorumGated:
		return "quorum-gated"
	case ReasonDriftSkipped:
		return "drift-skipped"
	case ReasonDisplaced:
		return "displaced"
	default:
		return "steady"
	}
}

// ParseReason inverts String.
func ParseReason(s string) (Reason, error) {
	for r := ReasonSteady; r < reasonCount; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return ReasonSteady, fmt.Errorf("provenance: unknown reason %q", s)
}

// MarshalJSON encodes the reason as its string form.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON decodes a reason name.
func (r *Reason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseReason(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// Source says which stage of the decision machinery scored a
// counterfactual placement.
type Source uint8

const (
	// SourcePrevious: the placement entering the epoch, scored by the
	// migration gate as the keep-everything alternative.
	SourcePrevious Source = iota
	// SourceProposed: the k-means proposal the gate declined to adopt.
	SourceProposed
	// SourceSwap: a candidate-mapping runner-up — the adopted placement
	// with one replica swapped to the nearest unused alternative DC,
	// scored by the provenance capture as the decision's marginal
	// alternative at that slot.
	SourceSwap
	// SourceFrontier: an incumbent improvement on the branch-and-bound
	// refinement's search frontier (multi-object service, Refine on).
	SourceFrontier
	// SourceCached: the bound-cache seed placement for this demand
	// shape, scored when the refinement warm-started from it.
	SourceCached
	sourceCount
)

// String returns the source's wire/CLI name.
func (s Source) String() string {
	switch s {
	case SourceProposed:
		return "proposed"
	case SourceSwap:
		return "swap"
	case SourceFrontier:
		return "frontier"
	case SourceCached:
		return "cached"
	default:
		return "previous"
	}
}

// MarshalJSON encodes the source as its string form.
func (s Source) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a source name.
func (s *Source) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	for v := SourcePrevious; v < sourceCount; v++ {
		if v.String() == str {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("provenance: unknown source %q", str)
}

// Candidate is one counterfactual placement the decision machinery
// scored, with the cost it would have carried.
type Candidate struct {
	// Replicas is the counterfactual placement.
	Replicas []int `json:"replicas"`
	// CostMs is its estimated cost under the same blended objective the
	// migration gate used ((1-wf)·read + wf·write).
	CostMs float64 `json:"cost_ms"`
	// DeltaMs = CostMs − chosen cost: positive means the chosen
	// placement beat this alternative.
	DeltaMs float64 `json:"delta_ms"`
	// Source names the stage that scored it.
	Source Source `json:"source"`
}

// DCShare is one data center's contribution to the chosen placement's
// read-delay term.
type DCShare struct {
	// Node is the replica's data-center id.
	Node int `json:"node"`
	// Weight is the fraction of the epoch's demand mass this replica
	// serves (nearest-replica assignment over the collected summaries).
	Weight float64 `json:"weight"`
	// MeanMs is the weighted mean predicted delay of the demand it
	// serves.
	MeanMs float64 `json:"mean_ms"`
}

// MaxCounterfactuals bounds how many counterfactual candidates one
// record retains (best-cost first). The capture path may score more;
// Finalize keeps the cheapest.
const MaxCounterfactuals = 8

// Record is one epoch's decision provenance. The replica manager owns
// one as epoch scratch and reuses all backing storage across epochs;
// decoded ledger records own their storage.
type Record struct {
	// Reason classifies the outcome; Held mirrors Decision.Held (an
	// approved move deferred on SLO burn) so the offline audit can see
	// holds without re-deriving them.
	Reason Reason `json:"reason"`
	Held   bool   `json:"held,omitempty"`

	// Cost decomposition of the placement the epoch ended with.
	// ChosenCostMs is the gate's blended objective; ReadMs and WriteMs
	// are its terms (WriteMs zero when the write path is off), and
	// MigrateMs is the delay-equivalent price of the adopted move under
	// the configured migration economics (zero when free or no move).
	ChosenCostMs float64 `json:"chosen_cost_ms"`
	ReadMs       float64 `json:"read_ms"`
	WriteMs      float64 `json:"write_ms,omitempty"`
	MigrateMs    float64 `json:"migrate_ms,omitempty"`
	// PerDC decomposes ReadMs by serving replica.
	PerDC []DCShare `json:"per_dc,omitempty"`

	// Gating inputs: the measurements the decision gates consulted.
	// GateBurn is the worst live SLO burn rate (0 without an engine),
	// GateMissing the unreachable-replica count, GateDrift the demand
	// signature's movement since the group's last solve, GateOccupancy
	// the fleet's occupied fraction of the capacity budget.
	GateBurn      float64 `json:"gate_burn,omitempty"`
	GateMissing   int     `json:"gate_missing,omitempty"`
	GateDrift     float64 `json:"gate_drift,omitempty"`
	GateOccupancy float64 `json:"gate_occupancy,omitempty"`

	// Counterfactuals are the scored alternatives, cheapest first.
	Counterfactuals []Candidate `json:"counterfactuals,omitempty"`

	// BestAltMs is the cheapest counterfactual's cost (0 when none were
	// scored); RegretMs = max(0, ChosenCostMs − BestAltMs) is the
	// epoch's online regret against it, and RegretRatio =
	// ChosenCostMs / min(ChosenCostMs, BestAltMs) ≥ 1 is the SLO-able
	// form (1 = the chosen placement was the best anything scored).
	BestAltMs   float64 `json:"best_alt_ms,omitempty"`
	RegretMs    float64 `json:"regret_ms"`
	RegretRatio float64 `json:"regret_ratio"`
}

// Reset clears the record for the next epoch while keeping every backing
// slice (including each retained counterfactual's replica slice), so
// steady-state capture allocates nothing.
func (r *Record) Reset() {
	cfs := r.Counterfactuals
	for i := range cfs {
		cfs[i].Replicas = cfs[i].Replicas[:0]
	}
	*r = Record{PerDC: r.PerDC[:0], Counterfactuals: cfs[:0]}
}

// AddCounterfactual appends one scored alternative, copying reps into
// reused backing. Delta, ordering, and the regret fields are computed by
// Finalize.
func (r *Record) AddCounterfactual(src Source, costMs float64, reps []int) {
	n := len(r.Counterfactuals)
	if n < cap(r.Counterfactuals) {
		// Re-extend into the previously used slot to recover its replica
		// backing.
		r.Counterfactuals = r.Counterfactuals[:n+1]
	} else {
		r.Counterfactuals = append(r.Counterfactuals, Candidate{})
	}
	c := &r.Counterfactuals[n]
	c.Source = src
	c.CostMs = costMs
	c.DeltaMs = 0
	c.Replicas = append(c.Replicas[:0], reps...)
}

// Finalize stamps the chosen cost, sorts counterfactuals cheapest-first
// (stable: insertion order breaks ties, so capture order is part of the
// determinism contract), truncates to MaxCounterfactuals, computes each
// delta, and derives the regret fields. Allocation-free.
func (r *Record) Finalize(chosenCostMs float64) {
	r.ChosenCostMs = chosenCostMs
	cfs := r.Counterfactuals
	// Insertion sort: the set is bounded and sort.Slice would allocate.
	for i := 1; i < len(cfs); i++ {
		for j := i; j > 0 && cfs[j].CostMs < cfs[j-1].CostMs; j-- {
			cfs[j], cfs[j-1] = cfs[j-1], cfs[j]
		}
	}
	if len(cfs) > MaxCounterfactuals {
		// Keep the dropped slots' backing alive past the length so Reset
		// still recovers it.
		extra := cfs[MaxCounterfactuals:]
		for i := range extra {
			extra[i].Replicas = extra[i].Replicas[:0]
		}
		cfs = cfs[:MaxCounterfactuals]
	}
	r.Counterfactuals = cfs
	for i := range cfs {
		cfs[i].DeltaMs = cfs[i].CostMs - chosenCostMs
	}
	r.RegretMs, r.RegretRatio, r.BestAltMs = 0, 1, 0
	if len(cfs) > 0 {
		r.BestAltMs = cfs[0].CostMs
		if r.BestAltMs < chosenCostMs {
			r.RegretMs = chosenCostMs - r.BestAltMs
			if r.BestAltMs > 0 {
				r.RegretRatio = chosenCostMs / r.BestAltMs
			}
		}
	}
}

// Validate checks the structural invariants the ledger decoder enforces
// on untrusted bytes. isCandidate reports node-id membership in the
// record's candidate set (nil skips membership checks).
func (r *Record) Validate(isCandidate func(int) bool) error {
	if r.Reason >= reasonCount {
		return fmt.Errorf("provenance: unknown reason %d", r.Reason)
	}
	if r.GateMissing < 0 {
		return fmt.Errorf("provenance: negative missing count %d", r.GateMissing)
	}
	for _, v := range [...]float64{r.ChosenCostMs, r.ReadMs, r.WriteMs, r.MigrateMs,
		r.GateBurn, r.GateDrift, r.GateOccupancy, r.BestAltMs, r.RegretMs, r.RegretRatio} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("provenance: non-finite cost or gate value")
		}
	}
	for i := range r.PerDC {
		d := &r.PerDC[i]
		if math.IsNaN(d.Weight) || math.IsInf(d.Weight, 0) || math.IsNaN(d.MeanMs) || math.IsInf(d.MeanMs, 0) {
			return fmt.Errorf("provenance: per-DC share %d is non-finite", i)
		}
		if isCandidate != nil && !isCandidate(d.Node) {
			return fmt.Errorf("provenance: per-DC node %d is not a candidate", d.Node)
		}
	}
	if len(r.Counterfactuals) > MaxCounterfactuals {
		return fmt.Errorf("provenance: %d counterfactuals exceeds bound %d",
			len(r.Counterfactuals), MaxCounterfactuals)
	}
	for i := range r.Counterfactuals {
		c := &r.Counterfactuals[i]
		if c.Source >= sourceCount {
			return fmt.Errorf("provenance: counterfactual %d has unknown source %d", i, c.Source)
		}
		if math.IsNaN(c.CostMs) || math.IsInf(c.CostMs, 0) || math.IsNaN(c.DeltaMs) || math.IsInf(c.DeltaMs, 0) {
			return fmt.Errorf("provenance: counterfactual %d is non-finite", i)
		}
		if isCandidate != nil {
			for _, rep := range c.Replicas {
				if !isCandidate(rep) {
					return fmt.Errorf("provenance: counterfactual %d replica %d is not a candidate", i, rep)
				}
			}
		}
	}
	return nil
}
