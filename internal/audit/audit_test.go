package audit

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/vec"
)

// testWorld builds a deterministic sequence of ledger records over nDCs
// candidates: demand is a drifting 2D cloud, the "online" placement is
// whatever the previous epoch's k-means suggested (one epoch stale, as
// the real coordinator's is).
func testWorld(t *testing.T, epochs, nDCs, k int) []ledger.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cands := make([]int, nDCs)
	coords := make([]coord.Coordinate, nDCs)
	for i := range cands {
		cands[i] = i
		coords[i] = coord.Coordinate{
			Pos:    vec.Vec{rng.Float64() * 200, rng.Float64() * 200},
			Height: rng.Float64() * 5,
		}
	}
	reps := append([]int(nil), cands[:k]...)
	var recs []ledger.Record
	for e := 1; e <= epochs; e++ {
		// Demand cloud drifting east over the epochs.
		center := vec.Vec{20 + 10*float64(e), 100}
		var micros []cluster.Micro
		for c := 0; c < 6; c++ {
			mc := cluster.NewMicro(2)
			for p := 0; p < 10; p++ {
				mc.Absorb(vec.Vec{
					center[0] + rng.NormFloat64()*15,
					center[1] + rng.NormFloat64()*15,
				}, 1+rng.Float64())
			}
			micros = append(micros, mc)
		}
		recs = append(recs, ledger.Record{
			Epoch:           e,
			K:               k,
			Candidates:      cands,
			CandidateCoords: coords,
			PrevReplicas:    append([]int(nil), reps...),
			Replicas:        append([]int(nil), reps...),
			Migrate:         e%3 == 0,
			ObservedMeanMs:  50 + 5*float64(e),
			Accesses:        600,
			QuorumOK:        true,
			Micros:          micros,
		})
	}
	return recs
}

func TestRunRegretInvariants(t *testing.T) {
	recs := testWorld(t, 8, 10, 3)
	rep, err := Run(recs, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditedEpochs != 8 || rep.SkippedEpochs != 0 {
		t.Fatalf("audited %d / skipped %d, want 8 / 0", rep.AuditedEpochs, rep.SkippedEpochs)
	}
	if rep.OptimalEpochs != 8 {
		t.Fatalf("optimal computed for %d epochs, want all 8", rep.OptimalEpochs)
	}
	for _, row := range rep.Epochs {
		// The exhaustive optimum minimizes the same objective every
		// estimate uses, so nothing can beat it.
		if row.OptimalEstMs > row.OnlineEstMs+1e-9 {
			t.Fatalf("epoch %d: optimal %.6f worse than online %.6f", row.Epoch, row.OptimalEstMs, row.OnlineEstMs)
		}
		if row.OptimalEstMs > row.KMeansEstMs+1e-9 {
			t.Fatalf("epoch %d: optimal %.6f worse than k-means %.6f", row.Epoch, row.OptimalEstMs, row.KMeansEstMs)
		}
		if row.RegretOptimalMs < -1e-9 {
			t.Fatalf("epoch %d: negative optimal regret %.6f", row.Epoch, row.RegretOptimalMs)
		}
		if row.QualityMs <= 0 {
			t.Fatalf("epoch %d: non-positive quality %.6f", row.Epoch, row.QualityMs)
		}
		if row.Epoch > 1 && row.DriftMs <= 0 {
			t.Fatalf("epoch %d: demand drifts every epoch but DriftMs = %v", row.Epoch, row.DriftMs)
		}
		if row.ObservedMs != 50+5*float64(row.Epoch) || row.Accesses != 600 {
			t.Fatalf("epoch %d: observed columns not echoed from the record", row.Epoch)
		}
	}
	if rep.Epochs[0].DriftMs != 0 {
		t.Fatalf("first epoch has no predecessor but DriftMs = %v", rep.Epochs[0].DriftMs)
	}
	if rep.MeanRegretOptimalMs < 0 {
		t.Fatalf("negative mean optimal regret %v", rep.MeanRegretOptimalMs)
	}
}

// TestRunDeterministicAcrossParallelism: equal seeds give equal reports,
// and the kept Config.Parallelism field really is ignored.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	recs := testWorld(t, 6, 9, 3)
	var reports []*Report
	for _, par := range []int{1, 4} {
		rep, err := Run(recs, Config{Seed: 11, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("audit differs across runs with one seed")
	}
}

// TestOptimalMatchesBruteForce cross-checks the weighted search against
// naive enumeration with the estimator itself.
func TestOptimalMatchesBruteForce(t *testing.T) {
	recs := testWorld(t, 4, 8, 3)
	for _, rec := range recs {
		coords, err := denseCoords(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := optimalPlacement(rec.Micros, rec.K, rec.Candidates, coords, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantVal := bruteForce(t, &rec, coords)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: search %v, brute force %v (%.6f)", rec.Epoch, got, want, wantVal)
		}
	}
}

func bruteForce(t *testing.T, rec *ledger.Record, coords []coord.Coordinate) ([]int, float64) {
	t.Helper()
	n, k := len(rec.Candidates), rec.K
	best, bestVal := []int(nil), math.Inf(1)
	combo := make([]int, k)
	var visit func(start, depth int)
	visit = func(start, depth int) {
		if depth == k {
			reps := make([]int, k)
			for i, ci := range combo {
				reps[i] = rec.Candidates[ci]
			}
			v, err := estimate(rec.Micros, reps, coords)
			if err != nil {
				t.Fatal(err)
			}
			if v < bestVal {
				bestVal, best = v, reps
			}
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			combo[depth] = i
			visit(i+1, depth+1)
		}
	}
	visit(0, 0)
	return best, bestVal
}

// estimate mirrors replica.EstimateMeanDelay's weighting for the brute
// force (import cycle keeps the real one usable here too, but computing
// it independently makes the cross-check stronger).
func estimate(micros []cluster.Micro, reps []int, coords []coord.Coordinate) (float64, error) {
	var total, mass float64
	for i := range micros {
		w := micros[i].Weight
		if w == 0 {
			w = float64(micros[i].Count)
		}
		if w == 0 {
			continue
		}
		c := micros[i].Centroid()
		bestD := math.Inf(1)
		for _, rep := range reps {
			if d := coords[rep].Pos.Dist(c) + coords[rep].Height; d < bestD {
				bestD = d
			}
		}
		total += w * bestD
		mass += w
	}
	if mass == 0 {
		return 0, nil
	}
	return total / mass, nil
}

func TestWhatIfK(t *testing.T) {
	recs := testWorld(t, 5, 10, 2)
	base, err := Run(recs, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	what, err := Run(recs, Config{Seed: 3, WhatIfK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range what.Epochs {
		if row.K != 4 || len(row.OptimalReplicas) != 4 {
			t.Fatalf("epoch %d: what-if k not applied (K=%d, optimal %v)", row.Epoch, row.K, row.OptimalReplicas)
		}
		// More replicas can only improve the optimal baseline.
		if row.OptimalEstMs > base.Epochs[i].OptimalEstMs+1e-9 {
			t.Fatalf("epoch %d: optimal with k=4 (%.6f) worse than k=2 (%.6f)",
				row.Epoch, row.OptimalEstMs, base.Epochs[i].OptimalEstMs)
		}
		// The online column still reflects the logged k=2 placement.
		if len(row.OnlineReplicas) != 2 {
			t.Fatalf("epoch %d: online placement rewritten to %v", row.Epoch, row.OnlineReplicas)
		}
	}
}

func TestLeafBudgetSkipsOptimal(t *testing.T) {
	recs := testWorld(t, 3, 10, 3)
	rep, err := Run(recs, Config{Seed: 3, MaxOptimalLeaves: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptimalEpochs != 0 {
		t.Fatalf("budget 10 < C(10,3) yet %d optimal epochs computed", rep.OptimalEpochs)
	}
	for _, row := range rep.Epochs {
		if !row.OptimalSkipped || row.OptimalReplicas != nil {
			t.Fatalf("epoch %d: optimal not skipped under budget", row.Epoch)
		}
		// K-means regret still flows.
		if row.KMeansEstMs == 0 {
			t.Fatalf("epoch %d: k-means baseline missing", row.Epoch)
		}
	}
	rep2, err := Run(recs, Config{Seed: 3, MaxOptimalLeaves: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OptimalEpochs != 0 {
		t.Fatal("negative budget should disable the optimal baseline")
	}
}

func TestSkipsUnauditableRecords(t *testing.T) {
	recs := testWorld(t, 3, 8, 2)
	empty := ledger.Record{Epoch: 99, K: 2, QuorumOK: true}
	recs = append(recs, empty)
	rep, err := Run(recs, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditedEpochs != 3 || rep.SkippedEpochs != 1 {
		t.Fatalf("audited %d / skipped %d, want 3 / 1", rep.AuditedEpochs, rep.SkippedEpochs)
	}
}

func TestWatcherConvergesToRun(t *testing.T) {
	recs := testWorld(t, 6, 9, 3)
	dir := t.TempDir()
	l, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:4] {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	w := NewWatcher(dir, time.Hour, Config{Seed: 5}, reg)
	defer w.Close()
	w.tick()
	if got := w.Report().AuditedEpochs; got != 4 {
		t.Fatalf("watcher audited %d epochs after first poke, want 4", got)
	}

	// Epochs arriving later are audited incrementally, once each.
	for _, rec := range recs[4:] {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	w.tick()
	w.tick() // idempotent: nothing new the second time

	batch, err := Run(recs, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Report(), batch) {
		t.Fatal("incremental watcher report differs from batch Run")
	}

	last := batch.Epochs[len(batch.Epochs)-1]
	if got := reg.Gauge("audit_regret_kmeans_ms").Value(); got != last.RegretKMeansMs {
		t.Fatalf("audit_regret_kmeans_ms gauge = %v, want %v", got, last.RegretKMeansMs)
	}
	if got := reg.Gauge("audit_drift_ms").Value(); got != last.DriftMs {
		t.Fatalf("audit_drift_ms gauge = %v, want %v", got, last.DriftMs)
	}
	if got := reg.Gauge("audit_last_epoch").Value(); got != float64(last.Epoch) {
		t.Fatalf("audit_last_epoch gauge = %v, want %v", got, last.Epoch)
	}
	if reg.Counter("audit_runs_total").Value() == 0 {
		t.Fatal("audit_runs_total never incremented")
	}
}

func TestWatcherMissingDirIsNotFatal(t *testing.T) {
	reg := metrics.NewRegistry()
	w := NewWatcher("/nonexistent/ledger-dir", time.Hour, Config{}, reg)
	defer w.Close()
	w.tick()
	if got := w.Report().AuditedEpochs; got != 0 {
		t.Fatalf("audited %d epochs from a missing dir", got)
	}
	if reg.Counter("audit_errors_total").Value() == 0 {
		t.Fatal("missing dir should count as an audit error")
	}
}

// TestOptimalInputContract pins what the optimal baseline does with
// records it cannot trust — a NaN or negative weighted delay is an error
// naming the micro-cluster, the candidate and (through Run) the epoch,
// +Inf is data — and the shapes at the edge of the search.
func TestOptimalInputContract(t *testing.T) {
	base := func() ledger.Record {
		rec := testWorld(t, 1, 5, 2)[0]
		rec.CandidateCoords = append([]coord.Coordinate(nil), rec.CandidateCoords...)
		return rec
	}
	for _, tc := range []struct {
		name    string
		edit    func(rec *ledger.Record)
		wantErr string
		want    []int // nil: whatever brute force returns
	}{
		{name: "negative height", edit: func(rec *ledger.Record) { rec.CandidateCoords[3].Height = -1e6 },
			wantErr: "to candidate 3 (height -1e+06)"},
		{name: "NaN coordinate", edit: func(rec *ledger.Record) { rec.CandidateCoords[1].Pos = vec.Vec{math.NaN(), 0} },
			wantErr: "micro-cluster 0"},
		{name: "negative mass", edit: func(rec *ledger.Record) { rec.Micros[2].Weight = -3 },
			wantErr: "micro-cluster 2 (mass -3)"},
		{name: "+Inf accepted", edit: func(rec *ledger.Record) { rec.CandidateCoords[0].Height = math.Inf(1) }},
		{name: "k == len(candidates)", edit: func(rec *ledger.Record) { rec.K = 5 }},
		{name: "k == 1", edit: func(rec *ledger.Record) { rec.K = 1 }},
		{name: "one micro", edit: func(rec *ledger.Record) { rec.Micros = rec.Micros[:1] }},
		{name: "all-zero-mass micros", edit: func(rec *ledger.Record) {
			for i := range rec.Micros {
				rec.Micros[i].Weight, rec.Micros[i].Count = 0, 0
			}
		}, want: []int{0, 1}},
	} {
		rec := base()
		tc.edit(&rec)
		coords, err := denseCoords(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := optimalPlacement(rec.Micros, rec.K, rec.Candidates, coords, nil)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			if _, err := Run([]ledger.Record{rec}, Config{}); err == nil || !strings.Contains(err.Error(), "epoch 1") {
				t.Errorf("%s: Run error %v, want one naming epoch 1", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := tc.want
		if want == nil {
			want, _ = bruteForce(t, &rec, coords)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
}
