package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/vec"
)

func TestIDSetOperations(t *testing.T) {
	a := idSet{1, 3, 5}
	b := idSet{2, 3, 6}
	u := a.union(b)
	want := idSet{1, 2, 3, 5, 6}
	if len(u) != len(want) {
		t.Fatalf("union = %v", u)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("union = %v, want %v", u, want)
		}
	}
	if !a.subsetOf(u) || !b.subsetOf(u) {
		t.Error("operands must be subsets of their union")
	}
	if a.subsetOf(b) {
		t.Error("{1,3,5} is not a subset of {2,3,6}")
	}
	if !a.contains(3) || a.contains(4) {
		t.Error("contains is wrong")
	}
}

func TestNewWindowedSummarizerValidation(t *testing.T) {
	if _, err := NewWindowedSummarizer(0, 2); err == nil {
		t.Error("maxClusters=0 should fail")
	}
	if _, err := NewWindowedSummarizer(4, 0); err == nil {
		t.Error("dims=0 should fail")
	}
}

func TestWindowedObserveMatchesPlainSummarizer(t *testing.T) {
	// Identical streams into both implementations must produce identical
	// feature vectors (the windowed one only adds lineage tracking).
	plain, err := NewSummarizer(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowedSummarizer(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := vec.Vec{r.NormFloat64() * 50, r.NormFloat64() * 50}
		if err := plain.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
		if err := windowed.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	a, b := plain.Clusters(), windowed.Clusters()
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Count != b[i].Count || !a[i].Sum.Equal(b[i].Sum) || !a[i].Sum2.Equal(b[i].Sum2) {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWindowedObserveValidation(t *testing.T) {
	w, err := NewWindowedSummarizer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe(vec.Vec{1}, 1); err == nil {
		t.Error("dim mismatch should fail")
	}
	if err := w.Observe(vec.Vec{1, 2}, -1); err == nil {
		t.Error("negative weight should fail")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := w.Observe(vec.Vec{1, 2}, bad); err == nil {
			t.Errorf("weight %v should fail", bad)
		}
	}
	if n := len(w.Clusters()); n != 0 {
		t.Errorf("refused observations left %d clusters", n)
	}
}

func TestWindowSubtraction(t *testing.T) {
	w, err := NewWindowedSummarizer(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 (t=0..100): 50 accesses near (0,0).
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		if err := w.Observe(vec.Vec{r.NormFloat64(), r.NormFloat64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Snapshot(100); err != nil {
		t.Fatal(err)
	}
	// Phase 2 (t=100..200): 30 accesses near (100,100).
	for i := 0; i < 30; i++ {
		if err := w.Observe(vec.Vec{100 + r.NormFloat64(), 100 + r.NormFloat64()}, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Window covering only phase 2 must contain exactly its 30 accesses,
	// centered near (100,100).
	ms, err := w.Window(200, 100)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	for _, m := range ms {
		count += m.Count
		if c := m.Centroid(); c[0] < 50 {
			t.Errorf("window cluster centered at %v — phase-1 mass leaked in", c)
		}
	}
	if count != 30 {
		t.Errorf("window count = %d, want 30", count)
	}

	// A horizon covering everything returns the full history (80).
	ms, err = w.Window(200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	count = 0
	for _, m := range ms {
		count += m.Count
	}
	if count != 80 {
		t.Errorf("full-history count = %d, want 80", count)
	}

	if _, err := w.Window(200, 0); err == nil {
		t.Error("zero horizon should fail")
	}
}

func TestSnapshotTimeMonotone(t *testing.T) {
	w, err := NewWindowedSummarizer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(10); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(5); err == nil {
		t.Error("going back in time should fail")
	}
	if err := w.Snapshot(10); err != nil {
		t.Errorf("equal timestamp should be fine: %v", err)
	}
}

func TestPyramidalRetentionLogarithmic(t *testing.T) {
	w, err := NewWindowedSummarizer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe(vec.Vec{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	const snaps = 1024
	for i := 1; i <= snaps; i++ {
		if err := w.Snapshot(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 2 per order over 1024 snapshots → at most 2·(log2(1024)+1) = 22.
	if got := len(w.snapshots); got > 22 {
		t.Errorf("retained %d snapshots, want O(log n) <= 22", got)
	}
	// The most recent snapshot always survives.
	last := w.snapshots[len(w.snapshots)-1]
	if last.timeMs != snaps {
		t.Errorf("newest snapshot at t=%v, want %v", last.timeMs, float64(snaps))
	}
}

func TestOrderHelper(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 0, 4: 2, 6: 1, 8: 3, 12: 2}
	for seq, want := range cases {
		if got := order(seq); got != want {
			t.Errorf("order(%d) = %d, want %d", seq, got, want)
		}
	}
}

// Property: window mass never exceeds total mass, and a window bounded by
// a snapshot at time t contains exactly the accesses after t (lineage
// subtraction is exact, not approximate, when the boundary snapshot
// survives).
func TestQuickWindowMassExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, err := NewWindowedSummarizer(1+r.Intn(8), 2)
		if err != nil {
			return false
		}
		phase1 := 1 + r.Intn(100)
		phase2 := 1 + r.Intn(100)
		for i := 0; i < phase1; i++ {
			if w.Observe(vec.Vec{r.NormFloat64() * 40, r.NormFloat64() * 40}, 1) != nil {
				return false
			}
		}
		if w.Snapshot(1000) != nil {
			return false
		}
		for i := 0; i < phase2; i++ {
			if w.Observe(vec.Vec{r.NormFloat64() * 40, r.NormFloat64() * 40}, 1) != nil {
				return false
			}
		}
		ms, err := w.Window(2000, 1000) // boundary exactly at the snapshot
		if err != nil {
			return false
		}
		var windowCount int64
		for _, m := range ms {
			if m.Count < 0 || m.Weight < 0 {
				return false
			}
			windowCount += m.Count
		}
		return windowCount == int64(phase2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
