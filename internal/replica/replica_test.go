package replica

import (
	"math"
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

// lineCoords returns coordinates for nodes placed at the given 1-D
// positions (dims=2 with y=0 to keep clustering honest).
func lineCoords(xs ...float64) []coord.Coordinate {
	out := make([]coord.Coordinate, len(xs))
	for i, x := range xs {
		out[i] = coord.Coordinate{Pos: vec.Vec{x, 0}}
	}
	return out
}

func microAt(x, y float64, count int64, weight float64) cluster.Micro {
	m := cluster.NewMicro(2)
	for i := int64(0); i < count; i++ {
		m.Absorb(vec.Vec{x, y}, weight/float64(count))
	}
	return m
}

func TestServerRecordsAndExports(t *testing.T) {
	s, err := NewServer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Record(vec.Vec{1, 2}, 10); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := s.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].Count != 50 {
		t.Errorf("export = %+v", ms)
	}
	enc, err := cluster.EncodeMicros(ms)
	if err != nil || len(enc) == 0 {
		t.Errorf("encode: %v, %d bytes", err, len(enc))
	}
	if err := s.Decay(0.5); err != nil {
		t.Fatal(err)
	}
	ms, err = s.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms[0].Count; got != 25 {
		t.Errorf("decayed count = %d, want 25", got)
	}
}

func TestWindowedServerRecency(t *testing.T) {
	s, err := NewWindowedServer(6, 2, 1) // window = last 1 epoch
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 0: demand at (0,0).
	for i := 0; i < 40; i++ {
		if err := s.Record(vec.Vec{0, 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Decay(0); err != nil { // factor ignored in window mode
		t.Fatal(err)
	}
	// Epoch 1: demand at (100,100).
	for i := 0; i < 25; i++ {
		if err := s.Record(vec.Vec{100, 100}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Export at epoch end — before the boundary snapshot, exactly as the
	// manager's EndEpoch does — covers only this epoch: 25 accesses at
	// (100,100); the 40 old accesses are fully forgotten, not damped.
	ms, err := s.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	for _, m := range ms {
		count += m.Count
		if c := m.Centroid(); c[0] < 50 {
			t.Errorf("stale cluster at %v leaked into the window", c)
		}
	}
	if count != 25 {
		t.Errorf("window count = %d, want 25", count)
	}
}

func TestManagerWindowedRecencyForgetsOldDemand(t *testing.T) {
	// Window of 1 epoch: the epoch-2 decision must be driven only by
	// epoch-2 demand; yesterday's (heavier!) population is invisible.
	m := managerFixture(t, Config{K: 1, M: 6, Dims: 2, WindowEpochs: 1})
	rng := rand.New(rand.NewSource(21))

	// Epoch 1: heavy demand at x≈0.
	for i := 0; i < 300; i++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{rng.Float64() * 3, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(rand.New(rand.NewSource(22))); err != nil {
		t.Fatal(err)
	}
	if got := m.Replicas(); got[0] != 0 {
		t.Fatalf("epoch-1 placement = %v, want [0]", got)
	}

	// Epoch 2: light demand at x≈150 only. With decay the 300 old
	// accesses would still dominate (150 weight after 0.5 decay vs 40
	// new); with an exact 1-epoch window they are gone entirely.
	for i := 0; i < 40; i++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{148 + rng.Float64()*4, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(rand.New(rand.NewSource(23))); err != nil {
		t.Fatal(err)
	}
	if got := m.Replicas(); got[0] != 3 {
		t.Errorf("windowed epoch-2 placement = %v, want [3] (old demand forgotten)", got)
	}
}

func TestNewWindowedServerValidation(t *testing.T) {
	if _, err := NewWindowedServer(4, 2, 0); err == nil {
		t.Error("windowEpochs=0 should fail")
	}
	if _, err := NewWindowedServer(0, 2, 1); err == nil {
		t.Error("m=0 should fail")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0, 2); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewServer(4, 0); err == nil {
		t.Error("dims=0 should fail")
	}
}

func TestMigrationPolicyValidate(t *testing.T) {
	if err := (MigrationPolicy{MinRelativeGain: 0.05}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	bad := []MigrationPolicy{
		{MinRelativeGain: -0.1},
		{MinRelativeGain: 1},
		{CostPerByte: -1},
		{CostPerByte: 1}, // missing companions
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %+v should fail", p)
		}
	}
}

func TestKPolicyValidate(t *testing.T) {
	if err := (KPolicy{Min: 1, Max: 5, GrowAbove: 100, ShrinkBelow: 10}).Validate(3); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	bad := []struct {
		p KPolicy
		k int
	}{
		{KPolicy{Min: 0, Max: 3}, 1},
		{KPolicy{Min: 3, Max: 1}, 3},
		{KPolicy{Min: 1, Max: 3}, 5},
		{KPolicy{Min: 1, Max: 3, GrowAbove: -1}, 2},
		{KPolicy{Min: 1, Max: 3, GrowAbove: 10, ShrinkBelow: 20}, 2},
	}
	for _, tt := range bad {
		if err := tt.p.Validate(tt.k); err == nil {
			t.Errorf("policy %+v with k=%d should fail", tt.p, tt.k)
		}
	}
}

func TestEstimateMeanDelay(t *testing.T) {
	coords := lineCoords(0, 10, 100)
	micros := []cluster.Micro{
		microAt(0, 0, 10, 10),   // population at x=0
		microAt(100, 0, 10, 30), // heavier population at x=100
	}
	// Replicas at nodes 0 (x=0) and 2 (x=100): both populations served
	// locally, delay 0.
	got, err := EstimateMeanDelay(micros, []int{0, 2}, coords)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("perfect placement delay = %v, want 0", got)
	}
	// Only node 1 (x=10): delays 10 and 90, weighted 10:30 → 70.
	got, err = EstimateMeanDelay(micros, []int{1}, coords)
	if err != nil {
		t.Fatal(err)
	}
	if got != 70 {
		t.Errorf("weighted delay = %v, want 70", got)
	}
	if _, err := EstimateMeanDelay(micros, nil, coords); err == nil {
		t.Error("no replicas should fail")
	}
	if _, err := EstimateMeanDelay(micros, []int{99}, coords); err == nil {
		t.Error("out-of-range replica should fail")
	}
}

func TestEstimateMeanDelayEmptyMicros(t *testing.T) {
	got, err := EstimateMeanDelay(nil, []int{0}, lineCoords(0))
	if err != nil || got != 0 {
		t.Errorf("empty summary = %v, %v; want 0, nil", got, err)
	}
}

func managerFixture(t *testing.T, cfg Config) *Manager {
	t.Helper()
	// Nodes: 0..3 candidates at x = 0, 50, 100, 150; clients roam freely.
	coords := lineCoords(0, 50, 100, 150, 5, 95)
	m, err := NewManager(cfg, []int{0, 1, 2, 3}, coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	coords := lineCoords(0, 50, 100)
	good := Config{K: 2, M: 4, Dims: 2}
	if _, err := NewManager(good, []int{0, 1, 2}, coords, nil); err != nil {
		t.Fatalf("valid manager rejected: %v", err)
	}
	cases := []struct {
		name       string
		cfg        Config
		candidates []int
		initial    []int
	}{
		{"k=0", Config{K: 0, M: 4, Dims: 2}, []int{0, 1}, nil},
		{"m=0", Config{K: 1, M: 0, Dims: 2}, []int{0, 1}, nil},
		{"dims=0", Config{K: 1, M: 4, Dims: 0}, []int{0, 1}, nil},
		{"dup candidates", Config{K: 1, M: 4, Dims: 2}, []int{0, 0}, nil},
		{"candidate range", Config{K: 1, M: 4, Dims: 2}, []int{0, 9}, nil},
		{"initial not candidate", Config{K: 1, M: 4, Dims: 2}, []int{0, 1}, []int{2}},
		{"initial wrong size", Config{K: 2, M: 4, Dims: 2}, []int{0, 1}, []int{0}},
		{"kmax exceeds candidates", Config{K: 1, M: 4, Dims: 2, KPolicy: KPolicy{Min: 1, Max: 9}}, []int{0, 1}, nil},
		{"bad decay", Config{K: 1, M: 4, Dims: 2, DecayFactor: 2}, []int{0, 1}, nil},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewManager(tt.cfg, tt.candidates, coords, tt.initial); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestManagerRoutesToClosest(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 4, Dims: 2})
	// Initial replicas: candidates 0 (x=0) and 1 (x=50).
	client := coord.Coordinate{Pos: vec.Vec{45, 0}}
	if got := m.Route(client); got != 1 {
		t.Errorf("Route = %d, want 1", got)
	}
	rep, err := m.Record(client, 1)
	if err != nil || rep != 1 {
		t.Errorf("Record = %d, %v", rep, err)
	}
}

func TestManagerMigratesTowardDemand(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2})
	r := rand.New(rand.NewSource(1))
	// All demand is at x≈95 and x≈150; initial replicas (x=0, x=50) are
	// both wrong. After an epoch the manager should move to candidates 2
	// (x=100) and 3 (x=150).
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
	dec, err := m.EndEpoch(r)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Migrate {
		t.Fatalf("expected migration, decision = %+v", dec)
	}
	got := m.Replicas()
	want := map[int]bool{2: true, 3: true}
	for _, rep := range got {
		if !want[rep] {
			t.Errorf("replicas = %v, want {2,3}", got)
		}
	}
	if dec.EstimatedNewMs >= dec.EstimatedOldMs {
		t.Errorf("estimated delay did not improve: %v -> %v", dec.EstimatedOldMs, dec.EstimatedNewMs)
	}
	if dec.CollectedBytes <= 0 {
		t.Error("collection bytes not accounted")
	}
	if m.Migrations() != 1 || m.Epoch() != 1 {
		t.Errorf("migrations=%d epoch=%d", m.Migrations(), m.Epoch())
	}
}

func TestManagerHoldsWhenGainTooSmall(t *testing.T) {
	m := managerFixture(t, Config{
		K: 2, M: 6, Dims: 2,
		Migration: MigrationPolicy{MinRelativeGain: 0.9}, // nearly impossible bar
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		// Demand mildly prefers x=100 over the current x=50 replica.
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{60 + rng.Float64()*30, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Replicas()
	dec, err := m.EndEpoch(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	after := m.Replicas()
	if dec.Migrate && dec.MovedReplicas > 0 {
		t.Errorf("migrated despite 90%% gain bar: %+v", dec)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("placement changed: %v -> %v", before, after)
		}
	}
}

func TestManagerEconomicVeto(t *testing.T) {
	m := managerFixture(t, Config{
		K: 2, M: 6, Dims: 2,
		Migration: MigrationPolicy{
			MinRelativeGain: 0.01,
			CostPerByte:     1,    // absurdly expensive transfer
			GainPerMsAccess: 1e-9, // nearly worthless latency
			ObjectBytes:     1e12,
		},
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{140 + rng.Float64()*10, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := m.EndEpoch(rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate && dec.MovedReplicas > 0 {
		t.Errorf("economics should veto migration: %+v", dec)
	}
}

// TestApproveMigrationBoundary pins both gates' edges. MinRelativeGain
// is the minimum gain required, so a gain exactly at it migrates (5/100
// is exactly 0.05 in IEEE division) and one a ulp below it does not.
// The economic test migrates only when the benefit is higher than the
// cost (§III-C), so a benefit equal to the cost does not migrate and one
// a ulp above it does.
func TestApproveMigrationBoundary(t *testing.T) {
	const oldEst, newEst = 100.0, 95.0
	if (oldEst-newEst)/oldEst != 0.05 {
		t.Fatal("fixture: 5/100 is not exactly 0.05")
	}
	// cost = moved · ObjectBytes · CostPerByte = 1·10·1 = 10;
	// benefit = (oldEst−newEst) · demand · GainPerMsAccess = 5·demand.
	econ := MigrationPolicy{MinRelativeGain: 0.05, CostPerByte: 1, GainPerMsAccess: 1, ObjectBytes: 10}
	cases := []struct {
		name   string
		policy MigrationPolicy
		demand float64
		want   bool
	}{
		{"gain at threshold", MigrationPolicy{MinRelativeGain: 0.05}, 1, true},
		{"gain a ulp below threshold", MigrationPolicy{MinRelativeGain: math.Nextafter(0.05, 1)}, 1, false},
		{"benefit equals cost", econ, 2, false},
		{"benefit a ulp above cost", econ, math.Nextafter(2, 3), true},
	}
	for _, c := range cases {
		m := managerFixture(t, Config{K: 2, M: 6, Dims: 2, Migration: c.policy})
		if got := m.approveMigration(oldEst, newEst, c.demand, 1); got != c.want {
			t.Errorf("%s: approveMigration = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestManagerDynamicK(t *testing.T) {
	cfg := Config{
		K: 1, M: 6, Dims: 2,
		KPolicy: KPolicy{Min: 1, Max: 3, GrowAbove: 100, ShrinkBelow: 5},
	}
	m := managerFixture(t, cfg)
	rng := rand.New(rand.NewSource(7))

	// Epoch 1: heavy demand (weight 300) → k should grow to 2.
	for i := 0; i < 300; i++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{rng.Float64() * 150, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := m.EndEpoch(rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if dec.K != 2 || m.K() != 2 || len(m.Replicas()) != 2 {
		t.Fatalf("k should grow to 2: dec=%+v replicas=%v", dec, m.Replicas())
	}

	// Several nearly-silent epochs → k shrinks back to 1. (Decay keeps
	// residual weight around, so allow a few epochs.)
	for e := 0; e < 6 && m.K() > 1; e++ {
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{10, 0}}, 0.1); err != nil {
			t.Fatal(err)
		}
		if _, err := m.EndEpoch(rand.New(rand.NewSource(int64(9 + e)))); err != nil {
			t.Fatal(err)
		}
	}
	if m.K() != 1 || len(m.Replicas()) != 1 {
		t.Errorf("k should shrink to 1, got k=%d replicas=%v", m.K(), m.Replicas())
	}
}

func TestManagerSilentEpochIsNoop(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 4, Dims: 2})
	before := m.Replicas()
	dec, err := m.EndEpoch(rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate {
		t.Error("silent epoch should not migrate")
	}
	after := m.Replicas()
	for i := range before {
		if before[i] != after[i] {
			t.Error("silent epoch changed placement")
		}
	}
}

func TestManagerRecordAt(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 4, Dims: 2})
	if err := m.RecordAt(0, vec.Vec{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RecordAt(3, vec.Vec{1, 0}, 1); err == nil {
		t.Error("recording at a non-replica should fail")
	}
}

func TestManagerKeptReplicaRetainsSummary(t *testing.T) {
	m := managerFixture(t, Config{K: 2, M: 6, Dims: 2})
	rng := rand.New(rand.NewSource(11))
	// Demand at x≈0 (kept) and x≈150 (forces the x=50 replica to move).
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 3
		if i%2 == 0 {
			x = 148 + rng.Float64()*4
		}
		if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{x, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(rand.New(rand.NewSource(12))); err != nil {
		t.Fatal(err)
	}
	reps := m.Replicas()
	hasZero := false
	for _, rep := range reps {
		if rep == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		t.Fatalf("replica at node 0 should be kept, got %v", reps)
	}
	// Node 0's summarizer survived the migration (decayed, not reset).
	if ms, err := m.slot(0).srv.ExportInto(nil); err != nil || len(ms) == 0 {
		t.Errorf("kept replica lost its summary: %v", err)
	}
}

func TestCountMoved(t *testing.T) {
	if got := countMoved([]int{1, 2, 3}, []int{2, 3, 4}); got != 1 {
		t.Errorf("countMoved = %d, want 1", got)
	}
	if got := countMoved(nil, []int{1}); got != 1 {
		t.Errorf("countMoved from empty = %d, want 1", got)
	}
	if got := countMoved([]int{1}, []int{1}); got != 0 {
		t.Errorf("countMoved same = %d, want 0", got)
	}
}
