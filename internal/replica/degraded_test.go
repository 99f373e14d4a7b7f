package replica

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/vec"
)

func up(down ...int) func(int) bool {
	bad := make(map[int]bool, len(down))
	for _, n := range down {
		bad[n] = true
	}
	return func(node int) bool { return !bad[node] }
}

// loadNear records demand clustered around the given x positions.
func loadNear(t *testing.T, m *Manager, seed int64, n int, xs ...float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := xs[i%len(xs)] + rng.Float64()*4
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{x, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndEpochDegradedAllReachableMatchesEndEpoch(t *testing.T) {
	a := managerFixture(t, Config{K: 2, M: 6, Dims: 2})
	b := managerFixture(t, Config{K: 2, M: 6, Dims: 2})
	loadNear(t, a, 7, 200, 95, 148)
	loadNear(t, b, 7, 200, 95, 148)
	da, err := a.EndEpoch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.EndEpochDegraded(rand.New(rand.NewSource(1)), up())
	if err != nil {
		t.Fatal(err)
	}
	if da.Migrate != db.Migrate || da.EstimatedNewMs != db.EstimatedNewMs || !db.QuorumOK || db.Degraded {
		t.Errorf("decisions diverged: %+v vs %+v", da, db)
	}
}

func TestBelowQuorumRefusesMigration(t *testing.T) {
	reg := metrics.NewRegistry()
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, Metrics: reg, Quorum: 0.6})
	// Demand far from the initial replicas would normally force a move.
	loadNear(t, m, 7, 300, 95, 148)
	before := m.Replicas()
	// Only replica 0 reachable: 1 of 2 fresh summaries < 60% quorum.
	dec, err := m.EndEpochDegraded(rand.New(rand.NewSource(1)), up(1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate || dec.QuorumOK || !dec.Degraded {
		t.Fatalf("below-quorum epoch migrated: %+v", dec)
	}
	if len(dec.MissingSummaries) != 1 || dec.MissingSummaries[0] != 1 {
		t.Errorf("MissingSummaries = %v, want [1]", dec.MissingSummaries)
	}
	after := m.Replicas()
	if len(after) != len(before) || after[0] != before[0] || after[1] != before[1] {
		t.Errorf("placement changed below quorum: %v -> %v", before, after)
	}
	snap := reg.Snapshot()
	if snap.Counters["replica_degraded_epochs_total"] != 1 {
		t.Errorf("degraded counter = %d", snap.Counters["replica_degraded_epochs_total"])
	}
	if snap.Counters["replica_missing_summaries_total"] != 1 {
		t.Errorf("missing counter = %d", snap.Counters["replica_missing_summaries_total"])
	}
	if snap.Counters["replica_quorum_blocked_migrations_total"] != 1 {
		t.Errorf("quorum-blocked counter = %d", snap.Counters["replica_quorum_blocked_migrations_total"])
	}
}

func TestBelowQuorumSkipsKAdaptation(t *testing.T) {
	m := managerFixture(t, Config{
		K: 2, M: 6, Dims: 2, Quorum: 0.6,
		KPolicy: KPolicy{Min: 1, Max: 4, GrowAbove: 10},
	})
	loadNear(t, m, 7, 300, 95, 148) // demand 300 >> GrowAbove
	dec, err := m.EndEpochDegraded(rand.New(rand.NewSource(1)), up(1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.K != 2 || m.K() != 2 {
		t.Errorf("k adapted below quorum: dec.K=%d m.K=%d", dec.K, m.K())
	}
}

func TestQuorumEpochReusesStaleSummaryWithDecay(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, Quorum: 0.5, DecayFactor: 0.5})
	// Epoch 1: both reachable; replica 1's summary (demand near x=95)
	// enters the last-known cache.
	loadNear(t, m, 7, 200, 2, 95)
	if _, err := m.EndEpoch(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	reps := m.Replicas()
	// Epoch 2: one replica unreachable, but 1 of 2 fresh meets the 50%
	// quorum. The stale summary must still contribute to the estimate.
	loadNear(t, m, 8, 100, 2)
	dec, err := m.EndEpochDegraded(rand.New(rand.NewSource(2)), up(reps[1]))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Degraded || !dec.QuorumOK {
		t.Fatalf("want degraded-but-quorate epoch, got %+v", dec)
	}
	if dec.EstimatedOldMs <= 0 {
		t.Error("stale summary did not contribute to the estimate")
	}
}

func TestStaleSummaryWeightDecaysWithAge(t *testing.T) {
	// A near-impossible migration bar pins the placement so the cached
	// summary under test cannot be pruned by a replica move.
	cfg := Config{K: 2, M: 6, Dims: 2, DecayFactor: 0.5,
		Migration: MigrationPolicy{MinRelativeGain: 0.99}}
	m := managerFixture(t, cfg)
	loadNear(t, m, 7, 200, 2, 95)
	if _, err := m.EndEpoch(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	rep := m.Replicas()[1]
	lk := m.slot(rep).last
	var freshW float64
	for _, mc := range lk.micros {
		freshW += mc.Weight
	}
	if freshW <= 0 {
		t.Fatal("no cached weight to decay")
	}
	// Two consecutive outage epochs: the cached summary ages twice.
	for i := 0; i < 2; i++ {
		if _, err := m.EndEpochDegraded(rand.New(rand.NewSource(int64(2+i))), up(rep)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.slot(rep).last.age; got != 2 {
		t.Errorf("cached age = %d, want 2", got)
	}
}

func TestAllUnreachableEpochCompletesDegraded(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2})
	loadNear(t, m, 7, 100, 95)
	dec, err := m.EndEpochDegraded(rand.New(rand.NewSource(1)), up(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.QuorumOK || !dec.Degraded || dec.Migrate {
		t.Errorf("total outage decision = %+v", dec)
	}
	if len(dec.MissingSummaries) != 2 {
		t.Errorf("MissingSummaries = %v", dec.MissingSummaries)
	}
	if m.Epoch() != 1 {
		t.Errorf("epoch did not advance: %d", m.Epoch())
	}
}

func TestUnreachableReplicaSkipsDecay(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, DecayFactor: 0.5, Quorum: 0.5,
		Migration: MigrationPolicy{MinRelativeGain: 0.99}})
	loadNear(t, m, 7, 100, 2, 95)
	down := m.Replicas()[1]
	weightOf := func(rep int) float64 {
		ms, err := m.slot(rep).srv.ExportInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		var w float64
		for _, mc := range ms {
			w += mc.Weight
		}
		return w
	}
	wBefore := weightOf(down)
	if _, err := m.EndEpochDegraded(rand.New(rand.NewSource(1)), up(down)); err != nil {
		t.Fatal(err)
	}
	// Skip if the epoch migrated the down replica away (it should not:
	// with one fresh summary of two and quorum 0.5 migration is allowed,
	// but the test load keeps demand at the existing locations).
	if m.slot(down) == nil {
		t.Skip("replica migrated away; decay not observable")
	}
	if got := weightOf(down); got != wBefore {
		t.Errorf("unreachable replica was decayed: %v -> %v", wBefore, got)
	}
}

// TestStaleSummarySurvivesViewRebuild pins the aliasing rule of the
// collected view: a reachable replica's cached summary is a stretch of
// the view, so a replica going unreachable must have its summary copied
// out before the next epoch's exports overwrite the view. Replica 0's
// summary grows while replica 1 is down, so its export runs over the
// stretch replica 1's summary occupied.
func TestStaleSummarySurvivesViewRebuild(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, DecayFactor: 0.5,
		Migration: MigrationPolicy{MinRelativeGain: 0.99}})
	loadNear(t, m, 7, 40, 48, 40)
	loadNear(t, m, 8, 1, 2)
	if _, err := m.EndEpoch(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if got := m.Replicas(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("placement moved to %v; the fixture needs replicas [0 1]", got)
	}
	var want []cluster.Micro
	for _, mc := range m.slot(1).last.micros {
		want = append(want, mc.Clone())
	}
	n0 := len(m.slot(0).last.micros)
	for age := 1; age <= 2; age++ {
		loadNear(t, m, int64(10+age), 300, 0, 8, 16, 24)
		p, err := m.BeginEpoch(up(1))
		if err != nil {
			t.Fatal(err)
		}
		fresh := len(m.slot(0).last.micros)
		if age == 1 && fresh <= n0 {
			t.Fatalf("replica 0 exported %d micros, want more than %d to overrun the old view", fresh, n0)
		}
		stale := p.Micros()[fresh:]
		scale := math.Pow(0.5, float64(age))
		for i := range want {
			w := want[i].Clone()
			w.Weight *= scale
			if !reflect.DeepEqual(stale[i], w) {
				t.Fatalf("age %d: stale micro %d = %+v, want %+v", age, i, stale[i], w)
			}
		}
		if _, err := m.CompleteEpoch(rand.New(rand.NewSource(int64(age))), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(m.slot(1).last.micros, want) {
		t.Fatalf("cached summary changed while its replica was down:\n%+v\n%+v", m.slot(1).last.micros, want)
	}
}
