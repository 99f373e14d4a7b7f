// Package audit replays ledger epochs offline to measure how good the
// online placement actually was. For every recorded epoch it recomputes
// the two baselines of the paper's evaluation from the record's own
// micro-cluster summaries — the offline weighted k-means placement and
// the exhaustive branch-and-bound optimal — and reports the **placement
// regret**: the online placement's estimated mean delay minus each
// baseline's. Alongside regret it derives two health time series from
// the same records: coordinate drift (how far the weighted demand
// centroid moved between epochs) and micro-cluster quality (weighted
// within-cluster standard deviation, the summary's resolution).
//
// Everything is deterministic: the k-means baseline reseeds per epoch
// from Config.Seed and sums in index order, and the optimal search is
// placement.ExactSubset (serial, lexicographic, strict-improvement
// adoption), so auditing the same ledger twice yields byte-equal
// reports.
package audit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
)

// Config tunes an audit run. The zero value is usable.
type Config struct {
	// Seed drives the offline k-means baseline's initialization; each
	// epoch derives its own rng from Seed and the epoch number, so the
	// baseline for epoch e is identical whether epochs are audited in one
	// batch or incrementally.
	Seed int64
	// WhatIfK, when positive, replays the baselines at replication degree
	// WhatIfK instead of each record's logged k — "how much better would
	// N replicas have been?" The online estimate still uses the logged
	// placement, so regret then mixes degrees by design.
	WhatIfK int
	// MaxOptimalLeaves skips the exhaustive optimal baseline for epochs
	// whose C(candidates, k) exceeds it (default 5,000,000); the k-means
	// baseline and all other series are still computed. Negative disables
	// the optimal baseline entirely.
	MaxOptimalLeaves int
	// Parallelism is ignored: both baselines are serial. The field
	// remains because the frozen bench/probe/epoch.go sets it.
	Parallelism int
	// Metrics, when non-nil, receives the audit_* counters.
	Metrics *metrics.Registry
}

func (c *Config) fillDefaults() {
	if c.MaxOptimalLeaves == 0 {
		c.MaxOptimalLeaves = 5_000_000
	}
}

// EpochAudit is one ledger epoch's offline evaluation.
type EpochAudit struct {
	// Epoch and K echo the record (K is the degree the baselines used,
	// i.e. Config.WhatIfK when set).
	Epoch int
	K     int
	// ObjectID / Class echo the record's object identity (empty for
	// single-object ledgers written before multi-object placement, and
	// for coordinators running without a PlacementService). Drift is
	// tracked per object: interleaved records from a fleet ledger do not
	// pollute each other's centroid history.
	ObjectID string
	Class    string
	// Displaced echoes how many of the epoch's replicas the capacity
	// settlement moved off their demand-optimal data center. Displaced
	// replicas are the mechanism behind per-class capacity regret: the
	// online estimate already includes the displacement penalty while the
	// offline baselines place without capacity limits.
	Displaced int
	// OnlineReplicas is the placement the coordinator ran with, and
	// OnlineEstMs its estimated mean delay recomputed from the record's
	// summaries.
	OnlineReplicas []int
	OnlineEstMs    float64
	// ObservedMs / Accesses echo the ground truth the record carried
	// (0 / 0 when the deployment did not report it) — the calibration
	// column for the estimates.
	ObservedMs float64
	Accesses   int64
	// KMeansReplicas / KMeansEstMs is the offline weighted k-means
	// baseline recomputed from the record's summaries.
	KMeansReplicas []int
	KMeansEstMs    float64
	// OptimalReplicas / OptimalEstMs is the exhaustive optimum;
	// OptimalSkipped reports that the search space exceeded
	// Config.MaxOptimalLeaves and the optimal columns are absent.
	OptimalReplicas []int
	OptimalEstMs    float64
	OptimalSkipped  bool
	// RegretKMeansMs = OnlineEstMs − KMeansEstMs: what the online
	// placement loses to an offline clairvoyant k-means over the same
	// summaries. RegretOptimalMs is the same against the true optimum
	// (only valid when !OptimalSkipped). Near-zero regret is the paper's
	// core claim; negative k-means regret is possible when the online
	// placement (chosen from an earlier epoch's view) happens to beat a
	// fresh k-means run.
	RegretKMeansMs  float64
	RegretOptimalMs float64
	// DriftMs is the movement of the weighted demand centroid since the
	// previous audited epoch (0 for the first).
	DriftMs float64
	// QualityMs is the weighted within-micro-cluster standard deviation —
	// the resolution of the summaries the decision was made from.
	QualityMs float64
	// Degraded / QuorumOK / Migrated echo the record's decision flags.
	Degraded bool
	QuorumOK bool
	Migrated bool
	// Held echoes the record's held-migration flag: the gate approved a
	// move but the SLO error budget deferred it (codec v3 records carry
	// it in the provenance tail; false otherwise).
	Held bool
	// Reason is the recorded outcome reason of codec v3 records
	// ("migrated", "held-budget", "quorum-gated", "drift-skipped",
	// "displaced", "steady"); empty for records without provenance.
	// ProvRegretMs and ProvCounterfactuals echo the live regret the
	// online estimator recorded against its own scored alternatives —
	// the `-why` join column against the offline RegretKMeansMs /
	// RegretOptimalMs recomputed here.
	Reason              string
	ProvRegretMs        float64
	ProvCounterfactuals int
}

// ClassRegret aggregates regret over the audited epochs of one object
// class — the multi-object ledger's answer to "which workload archetype
// pays for capacity pressure". Single-object ledgers fold into the ""
// class.
type ClassRegret struct {
	// Class is the record's object class ("" for legacy records).
	Class string
	// Objects counts distinct object IDs seen in the class; Epochs counts
	// audited epoch rows.
	Objects int
	Epochs  int
	// MeanRegretKMeansMs averages the class's per-epoch k-means regret;
	// MeanRegretOptimalMs the optimal regret over OptimalEpochs.
	MeanRegretKMeansMs  float64
	MeanRegretOptimalMs float64
	OptimalEpochs       int
	// Displaced sums capacity displacements across the class's epochs.
	Displaced int
}

// Report aggregates an audit over a ledger.
type Report struct {
	// Epochs are the audited epochs, oldest-first.
	Epochs []EpochAudit
	// AuditedEpochs counts rows in Epochs; SkippedEpochs counts records
	// that could not be audited (no summaries, no placement).
	AuditedEpochs int
	SkippedEpochs int
	// OptimalEpochs counts audited epochs whose exhaustive optimum was
	// computed (the regret-optimal means average over these only).
	OptimalEpochs int
	// Migrations counts audited epochs that adopted a placement change.
	Migrations int
	// Mean* are time-averages over the audited epochs.
	MeanOnlineEstMs     float64
	MeanObservedMs      float64
	MeanKMeansEstMs     float64
	MeanOptimalEstMs    float64
	MeanRegretKMeansMs  float64
	MeanRegretOptimalMs float64
	MeanDriftMs         float64
	MeanQualityMs       float64
	// MaxRegretKMeansMs / MaxRegretOptimalMs are the worst single epochs.
	MaxRegretKMeansMs  float64
	MaxRegretOptimalMs float64
	// Classes breaks regret down per object class, sorted by class name,
	// for multi-object ledgers (one entry with Class "" otherwise).
	Classes []ClassRegret
	// Displaced sums capacity displacements over all audited epochs.
	Displaced int
}

// auditor carries the incremental state shared by Run and the Watcher:
// per-object previous demand centroids (for drift) and the running
// aggregates, including the per-class regret breakdown.
type auditor struct {
	cfg        Config
	prevCent   map[string]vec.Vec // previous demand centroid per ObjectID
	classes    map[string]*classAgg
	rep        Report
	epochsDone *metrics.Counter
	skipped    *metrics.Counter
	// est re-feeds recorded provenance into the live provenance_*
	// gauges: a watcher tailing a ledger on a metrics-serving node
	// (georepd -audit) then exposes the fleet's online regret without
	// running the placement loop itself.
	est *provenance.Estimator
}

// classAgg is the running per-class aggregate; report() finalizes it
// into ClassRegret rows.
type classAgg struct {
	objects       map[string]struct{}
	epochs        int
	regretKM      float64
	regretOpt     float64
	optimalEpochs int
	displaced     int
}

func newAuditor(cfg Config) *auditor {
	cfg.fillDefaults()
	a := &auditor{
		cfg:        cfg,
		prevCent:   make(map[string]vec.Vec),
		classes:    make(map[string]*classAgg),
		epochsDone: cfg.Metrics.Counter("audit_epochs_audited_total"),
		skipped:    cfg.Metrics.Counter("audit_epochs_skipped_total"),
	}
	if cfg.Metrics != nil {
		a.est = provenance.NewEstimator(cfg.Metrics)
	}
	return a
}

// Run audits every record of a ledger in epoch order and returns the
// aggregated report. recs must be oldest-first, as ledger.ReadDir
// returns them.
func Run(recs []ledger.Record, cfg Config) (*Report, error) {
	a := newAuditor(cfg)
	for i := range recs {
		if err := a.audit(&recs[i]); err != nil {
			return nil, err
		}
	}
	return a.report(), nil
}

// report finalizes the means and returns a copy of the aggregates.
func (a *auditor) report() *Report {
	rep := a.rep
	rep.Epochs = append([]EpochAudit(nil), a.rep.Epochs...)
	names := make([]string, 0, len(a.classes))
	for name := range a.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	rep.Classes = make([]ClassRegret, 0, len(names))
	for _, name := range names {
		agg := a.classes[name]
		row := ClassRegret{
			Class:         name,
			Objects:       len(agg.objects),
			Epochs:        agg.epochs,
			OptimalEpochs: agg.optimalEpochs,
			Displaced:     agg.displaced,
		}
		if agg.epochs > 0 {
			row.MeanRegretKMeansMs = agg.regretKM / float64(agg.epochs)
		}
		if agg.optimalEpochs > 0 {
			row.MeanRegretOptimalMs = agg.regretOpt / float64(agg.optimalEpochs)
		}
		rep.Classes = append(rep.Classes, row)
	}
	if n := float64(rep.AuditedEpochs); n > 0 {
		rep.MeanOnlineEstMs /= n
		rep.MeanObservedMs /= n
		rep.MeanKMeansEstMs /= n
		rep.MeanRegretKMeansMs /= n
		rep.MeanDriftMs /= n
		rep.MeanQualityMs /= n
	}
	if n := float64(rep.OptimalEpochs); n > 0 {
		rep.MeanOptimalEstMs /= n
		rep.MeanRegretOptimalMs /= n
	}
	return &rep
}

// audit evaluates one record and folds it into the aggregates.
func (a *auditor) audit(rec *ledger.Record) error {
	if rec.Prov != nil {
		a.est.Observe(rec.Prov)
	}
	row, ok, err := a.auditOne(rec)
	if err != nil {
		return err
	}
	if !ok {
		a.rep.SkippedEpochs++
		a.skipped.Inc()
		return nil
	}
	a.rep.Epochs = append(a.rep.Epochs, row)
	a.rep.AuditedEpochs++
	a.epochsDone.Inc()
	a.rep.MeanOnlineEstMs += row.OnlineEstMs
	a.rep.MeanObservedMs += row.ObservedMs
	a.rep.MeanKMeansEstMs += row.KMeansEstMs
	a.rep.MeanRegretKMeansMs += row.RegretKMeansMs
	a.rep.MeanDriftMs += row.DriftMs
	a.rep.MeanQualityMs += row.QualityMs
	if row.RegretKMeansMs > a.rep.MaxRegretKMeansMs {
		a.rep.MaxRegretKMeansMs = row.RegretKMeansMs
	}
	if !row.OptimalSkipped {
		a.rep.OptimalEpochs++
		a.rep.MeanOptimalEstMs += row.OptimalEstMs
		a.rep.MeanRegretOptimalMs += row.RegretOptimalMs
		if row.RegretOptimalMs > a.rep.MaxRegretOptimalMs {
			a.rep.MaxRegretOptimalMs = row.RegretOptimalMs
		}
	}
	if row.Migrated {
		a.rep.Migrations++
	}
	a.rep.Displaced += row.Displaced
	agg := a.classes[row.Class]
	if agg == nil {
		agg = &classAgg{objects: make(map[string]struct{})}
		a.classes[row.Class] = agg
	}
	agg.objects[row.ObjectID] = struct{}{}
	agg.epochs++
	agg.regretKM += row.RegretKMeansMs
	agg.displaced += row.Displaced
	if !row.OptimalSkipped {
		agg.optimalEpochs++
		agg.regretOpt += row.RegretOptimalMs
	}
	return nil
}

// auditOne evaluates one record without touching the aggregates (except
// the drift centroid, which advances only for audited epochs). ok is
// false when the record carries nothing auditable.
func (a *auditor) auditOne(rec *ledger.Record) (EpochAudit, bool, error) {
	k := rec.K
	if a.cfg.WhatIfK > 0 {
		k = a.cfg.WhatIfK
	}
	if len(rec.Micros) == 0 || len(rec.Replicas) == 0 || k <= 0 || k > len(rec.Candidates) {
		return EpochAudit{}, false, nil
	}
	centroid, mass := demandCentroid(rec.Micros)
	if mass == 0 {
		return EpochAudit{}, false, nil
	}

	// Records are self-contained: rebuild the dense node→coordinate
	// table the estimator and proposer expect from the per-epoch
	// candidate coordinates.
	coords, err := denseCoords(rec)
	if err != nil {
		return EpochAudit{}, false, err
	}

	row := EpochAudit{
		Epoch:          rec.Epoch,
		K:              k,
		ObjectID:       rec.ObjectID,
		Class:          rec.Class,
		Displaced:      rec.Displaced,
		OnlineReplicas: append([]int(nil), rec.Replicas...),
		ObservedMs:     rec.ObservedMeanMs,
		Accesses:       rec.Accesses,
		Degraded:       rec.Degraded,
		QuorumOK:       rec.QuorumOK,
		Migrated:       rec.Migrate,
	}
	if p := rec.Prov; p != nil {
		row.Reason = p.Reason.String()
		row.Held = p.Held
		row.ProvRegretMs = p.RegretMs
		row.ProvCounterfactuals = len(p.Counterfactuals)
	}
	row.OnlineEstMs, err = replica.EstimateMeanDelay(rec.Micros, rec.Replicas, coords)
	if err != nil {
		return EpochAudit{}, false, fmt.Errorf("audit: epoch %d online estimate: %w", rec.Epoch, err)
	}

	// Offline k-means baseline: same Algorithm 1 proposer the online
	// coordinator ran, reseeded deterministically per epoch.
	rng := rand.New(rand.NewSource(a.cfg.Seed + int64(rec.Epoch)*7919))
	kmReps, err := replica.ProposePlacementOpt(rng, rec.Micros, k, rec.Candidates, coords,
		cluster.Options{Metrics: a.cfg.Metrics})
	if err != nil {
		return EpochAudit{}, false, fmt.Errorf("audit: epoch %d k-means baseline: %w", rec.Epoch, err)
	}
	row.KMeansReplicas = kmReps
	row.KMeansEstMs, err = replica.EstimateMeanDelay(rec.Micros, kmReps, coords)
	if err != nil {
		return EpochAudit{}, false, fmt.Errorf("audit: epoch %d k-means estimate: %w", rec.Epoch, err)
	}
	row.RegretKMeansMs = row.OnlineEstMs - row.KMeansEstMs

	// Exhaustive optimal baseline, bounded by the leaf budget.
	leaves := placement.Binomial(len(rec.Candidates), k)
	if a.cfg.MaxOptimalLeaves < 0 || leaves > a.cfg.MaxOptimalLeaves {
		row.OptimalSkipped = true
	} else {
		optReps, err := optimalPlacement(rec.Micros, k, rec.Candidates, coords, a.cfg.Metrics)
		if err != nil {
			return EpochAudit{}, false, fmt.Errorf("audit: epoch %d optimal baseline: %w", rec.Epoch, err)
		}
		row.OptimalReplicas = optReps
		row.OptimalEstMs, err = replica.EstimateMeanDelay(rec.Micros, optReps, coords)
		if err != nil {
			return EpochAudit{}, false, fmt.Errorf("audit: epoch %d optimal estimate: %w", rec.Epoch, err)
		}
		row.RegretOptimalMs = row.OnlineEstMs - row.OptimalEstMs
	}

	if prev, ok := a.prevCent[rec.ObjectID]; ok {
		row.DriftMs = centroid.Dist(prev)
	}
	a.prevCent[rec.ObjectID] = centroid
	row.QualityMs = quality(rec.Micros)
	return row, true, nil
}

// optimalPlacement finds the k-subset of candidates minimizing the
// summary-estimated mean delay — the exact objective of
// replica.EstimateMeanDelay, searched exhaustively by
// placement.ExactSubset. Its points are the micro-cluster centroids,
// each weighted by its demand mass (massless ones skipped, as the
// estimator skips them), at the estimator's delay: coordinate distance
// plus the candidate's access-link height. Records come from outside, so
// the fill holds every entry to the search's input contract.
func optimalPlacement(micros []cluster.Micro, k int, candidates []int,
	coords []coord.Coordinate, reg *metrics.Registry) ([]int, error) {
	nm := 0
	for i := range micros {
		if microMass(&micros[i]) != 0 {
			nm++
		}
	}
	wd := make([]float64, len(candidates)*nm)
	col := 0
	for i := range micros {
		w := microMass(&micros[i])
		if w == 0 {
			continue
		}
		cent := micros[i].Centroid()
		for ci, cand := range candidates {
			c := &coords[cand]
			d := w * (c.Pos.Dist(cent) + c.Height)
			if !(d >= 0) {
				return nil, fmt.Errorf("micro-cluster %d (mass %v) to candidate %d (height %v): weighted delay %v, want non-negative", i, w, cand, c.Height, d)
			}
			wd[ci*nm+col] = d
		}
		col++
	}
	best, visited := placement.ExactSubset(wd, candidates, k)
	reg.Counter("audit_search_visited_total").Add(visited)
	reg.Counter("audit_search_pruned_total").Add(int64(placement.Binomial(len(candidates), k)) - visited)
	return best, nil
}

// denseCoords rebuilds a node-indexed coordinate slice from the record's
// candidate coordinate table.
func denseCoords(rec *ledger.Record) ([]coord.Coordinate, error) {
	maxNode := -1
	for _, c := range rec.Candidates {
		if c < 0 {
			return nil, fmt.Errorf("audit: epoch %d has negative candidate %d", rec.Epoch, c)
		}
		if c > maxNode {
			maxNode = c
		}
	}
	coords := make([]coord.Coordinate, maxNode+1)
	for i, c := range rec.Candidates {
		coords[c] = rec.CandidateCoords[i]
	}
	return coords, nil
}

// microMass is the estimator's weighting rule: explicit weight, falling
// back to the raw access count for unweighted summaries.
func microMass(m *cluster.Micro) float64 {
	if m.Weight != 0 {
		return m.Weight
	}
	return float64(m.Count)
}

// demandCentroid is the mass-weighted mean of the micro centroids — the
// center of gravity of the epoch's demand in coordinate space.
func demandCentroid(micros []cluster.Micro) (vec.Vec, float64) {
	var sum vec.Vec
	var mass float64
	for i := range micros {
		w := microMass(&micros[i])
		if w == 0 {
			continue
		}
		c := micros[i].Centroid()
		if sum == nil {
			sum = make(vec.Vec, c.Dim())
		}
		sum.AddScaled(w, c)
		mass += w
	}
	if mass == 0 {
		return nil, 0
	}
	sum.ScaleInPlace(1 / mass)
	return sum, mass
}

// quality is the mass-weighted root-mean-square within-micro standard
// deviation: how blurry the summaries were. Lower is sharper.
func quality(micros []cluster.Micro) float64 {
	var sum, mass float64
	for i := range micros {
		w := microMass(&micros[i])
		if w == 0 {
			continue
		}
		sd := micros[i].StdDev()
		sum += w * sd * sd
		mass += w
	}
	if mass == 0 {
		return 0
	}
	return math.Sqrt(sum / mass)
}
