package placement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

func lineInstance(clientXs, candXs []float64, k int) *Instance {
	var positions []vec.Vec
	var clients, cands []int
	for _, x := range clientXs {
		clients = append(clients, len(positions))
		positions = append(positions, vec.Vec{x, 0})
	}
	for _, x := range candXs {
		cands = append(cands, len(positions))
		positions = append(positions, vec.Vec{x, 0})
	}
	coords := make([]coord.Coordinate, len(positions))
	for i, p := range positions {
		coords[i] = coord.Coordinate{Pos: p}
	}
	return &Instance{
		NumNodes:   len(positions),
		RTT:        func(i, j int) float64 { return positions[i].Dist(positions[j]) },
		Coords:     coords,
		Candidates: cands,
		Clients:    clients,
		K:          k,
	}
}

func TestQuorumDelayOrderStatistics(t *testing.T) {
	// Client at 0; replicas at 1, 5, 10.
	in := lineInstance([]float64{0}, []float64{1, 5, 10}, 3)
	reps := in.Candidates
	client := in.Clients[0]
	if got := QuorumDelay(in, client, reps, 1); got != 1 {
		t.Errorf("r=1 delay = %v, want 1", got)
	}
	if got := QuorumDelay(in, client, reps, 2); got != 5 {
		t.Errorf("r=2 delay = %v, want 5", got)
	}
	if got := QuorumDelay(in, client, reps, 3); got != 10 {
		t.Errorf("r=3 delay = %v, want 10", got)
	}
	if got := QuorumDelay(in, client, reps, 0); !math.IsInf(got, 1) {
		t.Errorf("r=0 should be +Inf, got %v", got)
	}
	if got := QuorumDelay(in, client, reps, 4); !math.IsInf(got, 1) {
		t.Errorf("r>len should be +Inf, got %v", got)
	}
}

func TestMeanQuorumDelayMatchesMeanAccessDelayAtR1(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(1)), 3)
	reps := []int{in.Candidates[0], in.Candidates[1], in.Candidates[2]}
	if a, b := MeanQuorumDelay(in, reps, 1), MeanAccessDelay(in, reps); math.Abs(a-b) > 1e-9 {
		t.Errorf("r=1 quorum delay %v != access delay %v", a, b)
	}
}

func TestOptimalQuorumValidation(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(2)), 3)
	if _, err := (OptimalQuorum{R: 0}).Place(nil, in); err == nil {
		t.Error("R=0 should fail")
	}
	if _, err := (OptimalQuorum{R: 4}).Place(nil, in); err == nil {
		t.Error("R>K should fail")
	}
	if _, err := (OptimalQuorum{R: 2, MaxCombinations: 1}).Place(nil, in); err == nil {
		t.Error("combination guard should trip")
	}
	if (OptimalQuorum{R: 2}).Name() != "optimal-q2" {
		t.Error("name changed")
	}
}

func TestOptimalQuorumPacksReplicasForMajorityReads(t *testing.T) {
	// Two client blobs at 0 and 100; candidates at both blobs and the
	// middle. With r=1 the optimum spreads (one replica per blob); with
	// r=2 every client waits for its second-closest replica, so packing
	// replicas toward the bigger blob (or the middle) wins.
	in := lineInstance(
		append(repeatX(0, 30), repeatX(100, 30)...),
		[]float64{0, 1, 50, 99, 100},
		2,
	)
	r1, err := (OptimalQuorum{R: 1}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	// Spread: one replica near each blob.
	sideA, sideB := false, false
	for _, rep := range r1 {
		x := in.Coords[rep].Pos[0]
		if x < 10 {
			sideA = true
		}
		if x > 90 {
			sideB = true
		}
	}
	if !sideA || !sideB {
		t.Errorf("r=1 optimum should spread across blobs, got xs %v", replicaXs(in, r1))
	}

	r2, err := (OptimalQuorum{R: 2}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	// With r=2 the two replicas should sit together (both near one blob
	// or paired around the middle) — the max spread placement is
	// strictly worse. Verify by objective comparison.
	spread := []int{in.Candidates[0], in.Candidates[4]} // 0 and 100
	if MeanQuorumDelay(in, r2, 2) > MeanQuorumDelay(in, spread, 2)+1e-9 {
		t.Errorf("quorum optimum %v (%.1f) worse than naive spread (%.1f)",
			replicaXs(in, r2), MeanQuorumDelay(in, r2, 2), MeanQuorumDelay(in, spread, 2))
	}
	// And the r=2 optimum must differ from max-spread: packing wins.
	if d2 := MeanQuorumDelay(in, r2, 2); d2 >= MeanQuorumDelay(in, spread, 2) {
		t.Errorf("expected packed placement to beat spread at r=2: %.1f vs %.1f",
			d2, MeanQuorumDelay(in, spread, 2))
	}
}

func repeatX(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func replicaXs(in *Instance, reps []int) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = in.Coords[rep].Pos[0]
	}
	return out
}

// Property: mean quorum delay is non-decreasing in r — waiting for more
// replicas can never be faster.
func TestQuickQuorumMonotoneInR(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := threeBlobInstance(r, 3)
		reps, err := (Random{}).Place(r, in)
		if err != nil {
			return false
		}
		prev := 0.0
		for q := 1; q <= len(reps); q++ {
			d := MeanQuorumDelay(in, reps, q)
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the exhaustive quorum optimum lower-bounds any random
// placement under the same objective.
func TestQuickOptimalQuorumIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := threeBlobInstance(r, 2)
		q := 1 + int(seed%2+2)%2 // 1 or 2
		opt, err := (OptimalQuorum{R: q}).Place(nil, in)
		if err != nil {
			return false
		}
		optD := MeanQuorumDelay(in, opt, q)
		for trial := 0; trial < 5; trial++ {
			reps, err := (Random{}).Place(r, in)
			if err != nil {
				return false
			}
			if MeanQuorumDelay(in, reps, q) < optD-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
