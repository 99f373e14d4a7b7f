package placement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/vec"
)

func TestAssignWithCapacityUnconstrainedMatchesClosest(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(1)), 3)
	reps := []int{in.Candidates[0], in.Candidates[1], in.Candidates[2]}
	a, err := AssignWithCapacity(in, reps, len(in.Clients))
	if err != nil {
		t.Fatal(err)
	}
	if a.Spilled != 0 {
		t.Errorf("unconstrained assignment spilled %d clients", a.Spilled)
	}
	if math.Abs(a.MeanDelayMs-MeanAccessDelay(in, reps)) > 1e-9 {
		t.Errorf("unconstrained delay %v != closest-replica delay %v",
			a.MeanDelayMs, MeanAccessDelay(in, reps))
	}
	var total int
	for _, l := range a.Load {
		total += l
	}
	if total != len(in.Clients) {
		t.Errorf("loads sum to %d, want %d", total, len(in.Clients))
	}
}

func TestAssignWithCapacityValidation(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(2)), 3)
	reps := []int{in.Candidates[0], in.Candidates[1]}
	if _, err := AssignWithCapacity(in, nil, 5); err == nil {
		t.Error("no replicas should fail")
	}
	if _, err := AssignWithCapacity(in, reps, 0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := AssignWithCapacity(in, reps, 1); err == nil {
		t.Error("infeasible capacity should fail")
	}
}

func TestAssignWithCapacityRespectsLimit(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(3)), 3)
	reps := []int{in.Candidates[0], in.Candidates[1], in.Candidates[2]}
	// 90 clients over 3 replicas: force perfectly balanced loads.
	cap := 30
	a, err := AssignWithCapacity(in, reps, cap)
	if err != nil {
		t.Fatal(err)
	}
	for rep, l := range a.Load {
		if l > cap {
			t.Errorf("replica %d load %d exceeds capacity %d", rep, l, cap)
		}
	}
	// Tight capacity on skewed demand must spill: all 40 clients in one
	// blob, two replicas (one local, one remote), capacity 20 each.
	skewed := planeInstance(rand.New(rand.NewSource(4)),
		[]vec.Vec{vec.Vec{0, 0}}, 40,
		[]vec.Vec{vec.Vec{1, 1}, vec.Vec{200, 200}}, 2)
	sa, err := AssignWithCapacity(skewed, []int{skewed.Candidates[0], skewed.Candidates[1]}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Spilled != 20 {
		t.Errorf("spilled = %d, want 20 (half the blob)", sa.Spilled)
	}
	if sa.Load[skewed.Candidates[0]] != 20 || sa.Load[skewed.Candidates[1]] != 20 {
		t.Errorf("loads = %v, want balanced 20/20", sa.Load)
	}
}

func TestCapacitySweepMonotone(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(5)), 3)
	reps := []int{in.Candidates[0], in.Candidates[1], in.Candidates[2]}
	pts, err := CapacitySweep(in, reps, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Capacity > pts[i-1].Capacity {
			t.Errorf("capacities not decreasing: %+v", pts)
		}
		// Tighter capacity can only hurt (or match) mean delay.
		if pts[i].MeanDelayMs < pts[i-1].MeanDelayMs-1e-9 {
			t.Errorf("delay improved when capacity tightened: %+v", pts)
		}
	}
	if _, err := CapacitySweep(in, reps, 0); err == nil {
		t.Error("steps=0 should fail")
	}
	if _, err := CapacitySweep(in, nil, 3); err == nil {
		t.Error("no replicas should fail")
	}
}

func TestCapacitySweepSingleStep(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(6)), 3)
	reps := []int{in.Candidates[0], in.Candidates[1]}
	pts, err := CapacitySweep(in, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Capacity != len(in.Clients) {
		t.Errorf("single step = %+v", pts)
	}
}

// Property: capacity assignments always cover every client exactly once
// and never exceed the limit.
func TestQuickCapacityAssignmentValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := threeBlobInstance(r, 3)
		reps := []int{in.Candidates[0], in.Candidates[1], in.Candidates[2]}
		minCap := (len(in.Clients) + len(reps) - 1) / len(reps)
		cap := minCap + r.Intn(30)
		a, err := AssignWithCapacity(in, reps, cap)
		if err != nil {
			return false
		}
		counts := make(map[int]int)
		for _, rep := range a.Replica {
			counts[rep]++
		}
		for rep, l := range counts {
			if l > cap || a.Load[rep] != l {
				return false
			}
		}
		return len(a.Replica) == len(in.Clients)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
