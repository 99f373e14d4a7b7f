package placement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

// planeInstance builds an instance whose coordinates are exact 2-D
// positions and whose true RTT equals the Euclidean distance — the ideal
// setting in which placement logic can be verified without embedding
// error. Clients form tight blobs around blob centers.
func planeInstance(r *rand.Rand, blobs []vec.Vec, clientsPerBlob int, candidates []vec.Vec, k int) *Instance {
	var positions []vec.Vec
	var clientIdx, candIdx []int
	for _, b := range blobs {
		for i := 0; i < clientsPerBlob; i++ {
			p := vec.Vec{b[0] + r.NormFloat64(), b[1] + r.NormFloat64()}
			clientIdx = append(clientIdx, len(positions))
			positions = append(positions, p)
		}
	}
	for _, c := range candidates {
		candIdx = append(candIdx, len(positions))
		positions = append(positions, c.Clone())
	}
	coords := make([]coord.Coordinate, len(positions))
	for i, p := range positions {
		coords[i] = coord.Coordinate{Pos: p}
	}
	return &Instance{
		NumNodes:   len(positions),
		RTT:        func(i, j int) float64 { return positions[i].Dist(positions[j]) },
		Coords:     coords,
		Candidates: candIdx,
		Clients:    clientIdx,
		K:          k,
	}
}

// threeBlobInstance: three well-separated user populations and a
// candidate DC near each plus several decoys far from everyone.
func threeBlobInstance(r *rand.Rand, k int) *Instance {
	blobs := []vec.Vec{vec.Vec{0, 0}, vec.Vec{100, 0}, vec.Vec{0, 100}}
	candidates := []vec.Vec{
		vec.Vec{1, 1}, vec.Vec{99, 1}, vec.Vec{1, 99}, // near blobs
		vec.Vec{500, 500}, vec.Vec{-400, 300}, vec.Vec{300, -400}, // decoys
		vec.Vec{50, 50}, vec.Vec{200, 200}, // middling
	}
	return planeInstance(r, blobs, 30, candidates, k)
}

func allStrategies() []Strategy {
	return []Strategy{
		Random{},
		OfflineKMeans{},
		DefaultOnline(),
		Optimal{},
		Greedy{},
		HotZone{},
	}
}

func TestInstanceValidate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	good := threeBlobInstance(r, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	mutate := []struct {
		name string
		mut  func(*Instance)
	}{
		{"zero nodes", func(in *Instance) { in.NumNodes = 0 }},
		{"nil rtt", func(in *Instance) { in.RTT = nil }},
		{"coord count", func(in *Instance) { in.Coords = in.Coords[:1] }},
		{"zero k", func(in *Instance) { in.K = 0 }},
		{"too few candidates", func(in *Instance) { in.K = len(in.Candidates) + 1 }},
		{"no clients", func(in *Instance) { in.Clients = nil }},
		{"candidate range", func(in *Instance) { in.Candidates[0] = -1 }},
		{"duplicate candidate", func(in *Instance) { in.Candidates[0] = in.Candidates[1] }},
		{"client range", func(in *Instance) { in.Clients[0] = in.NumNodes }},
	}
	for _, tt := range mutate {
		t.Run(tt.name, func(t *testing.T) {
			in := threeBlobInstance(rand.New(rand.NewSource(1)), 3)
			tt.mut(in)
			if err := in.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestMeanAccessDelayHandComputed(t *testing.T) {
	// Two clients at 0 and 10 on a line; replica at 4.
	positions := []vec.Vec{vec.Vec{0}, vec.Vec{10}, vec.Vec{4}}
	coords := make([]coord.Coordinate, 3)
	for i, p := range positions {
		coords[i] = coord.Coordinate{Pos: p}
	}
	in := &Instance{
		NumNodes:   3,
		RTT:        func(i, j int) float64 { return positions[i].Dist(positions[j]) },
		Coords:     coords,
		Candidates: []int{2},
		Clients:    []int{0, 1},
		K:          1,
	}
	if got := MeanAccessDelay(in, []int{2}); got != 5 { // (4+6)/2
		t.Errorf("MeanAccessDelay = %v, want 5", got)
	}
	if got := MeanAccessDelay(in, nil); !math.IsInf(got, 1) {
		t.Errorf("no replicas should cost +Inf, got %v", got)
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k, want int
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {20, 3, 1140},
		{30, 3, 4060}, {20, 7, 77520}, {5, 6, 0}, {5, -1, 0},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
	if got := Binomial(200, 100); got != math.MaxInt {
		t.Errorf("overflow should saturate, got %d", got)
	}
}

func TestEveryStrategyReturnsValidPlacement(t *testing.T) {
	for _, s := range allStrategies() {
		t.Run(s.Name(), func(t *testing.T) {
			in := threeBlobInstance(rand.New(rand.NewSource(2)), 3)
			got, err := s.Place(rand.New(rand.NewSource(3)), in)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != in.K {
				t.Fatalf("placed %d replicas, want %d", len(got), in.K)
			}
			candidateSet := make(map[int]bool)
			for _, c := range in.Candidates {
				candidateSet[c] = true
			}
			seen := make(map[int]bool)
			for _, rep := range got {
				if !candidateSet[rep] {
					t.Errorf("replica %d is not a candidate", rep)
				}
				if seen[rep] {
					t.Errorf("replica %d placed twice", rep)
				}
				seen[rep] = true
			}
		})
	}
}

func TestStrategiesRejectInvalidInstance(t *testing.T) {
	bad := &Instance{} // fails validation
	for _, s := range allStrategies() {
		if _, err := s.Place(rand.New(rand.NewSource(1)), bad); err == nil {
			t.Errorf("%s accepted an invalid instance", s.Name())
		}
	}
}

func TestOptimalMatchesBruteForceMeaning(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(4)), 3)
	opt, err := (Optimal{}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	optDelay := MeanAccessDelay(in, opt)
	// The obvious best placement: the three near-blob candidates.
	want := []int{in.Candidates[0], in.Candidates[1], in.Candidates[2]}
	if got, wantD := optDelay, MeanAccessDelay(in, want); got > wantD+1e-9 {
		t.Errorf("optimal %v worse than known-good placement %v", got, wantD)
	}
}

func TestOptimalCombinationGuard(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(5)), 3)
	s := Optimal{MaxCombinations: 2}
	if _, err := s.Place(nil, in); err == nil {
		t.Error("combination guard should trip")
	}
}

func TestSmartStrategiesFindTheBlobs(t *testing.T) {
	// With clean coordinates, every informed strategy must place near the
	// three blobs, beating random by a wide margin — the paper's ≥35%
	// claim holds trivially here.
	seeds := []int64{10, 11, 12, 13, 14}
	informed := []Strategy{OfflineKMeans{}, DefaultOnline(), Greedy{}, Optimal{}}
	for _, s := range informed {
		t.Run(s.Name(), func(t *testing.T) {
			var sumS, sumR float64
			for _, seed := range seeds {
				in := threeBlobInstance(rand.New(rand.NewSource(seed)), 3)
				r := rand.New(rand.NewSource(seed * 7))
				got, err := s.Place(r, in)
				if err != nil {
					t.Fatal(err)
				}
				sumS += MeanAccessDelay(in, got)
				rr, err := (Random{}).Place(rand.New(rand.NewSource(seed*13)), in)
				if err != nil {
					t.Fatal(err)
				}
				sumR += MeanAccessDelay(in, rr)
			}
			if sumS > sumR*0.65 {
				t.Errorf("%s mean delay %.2f not ≥35%% below random %.2f", s.Name(), sumS/5, sumR/5)
			}
		})
	}
}

func TestOnlineNearOptimal(t *testing.T) {
	var onSum, optSum float64
	for seed := int64(20); seed < 30; seed++ {
		in := threeBlobInstance(rand.New(rand.NewSource(seed)), 3)
		on, err := DefaultOnline().Place(rand.New(rand.NewSource(seed+1)), in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := (Optimal{}).Place(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		onSum += MeanAccessDelay(in, on)
		optSum += MeanAccessDelay(in, opt)
	}
	if onSum > optSum*1.5 {
		t.Errorf("online averaged %.2f, not close to optimal %.2f", onSum/10, optSum/10)
	}
}

func TestOnlineParameterValidation(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(6)), 3)
	s := Online{M: 0}
	if _, err := s.Place(rand.New(rand.NewSource(1)), in); err == nil {
		t.Error("M=0 should fail")
	}
	// Zero rounds/accesses fall back to sane defaults rather than failing.
	s = Online{M: 4}
	if _, err := s.Place(rand.New(rand.NewSource(1)), in); err != nil {
		t.Errorf("defaults should apply: %v", err)
	}
}

func TestOnlineMoreMicroClustersHelps(t *testing.T) {
	// Fig. 3's shape: m=1 summarizes each replica's users to one blob and
	// should be no better than m=8 on a multi-blob population.
	var d1, d8 float64
	for seed := int64(40); seed < 55; seed++ {
		in := threeBlobInstance(rand.New(rand.NewSource(seed)), 3)
		p1, err := (Online{M: 1, Rounds: 2}).Place(rand.New(rand.NewSource(seed)), in)
		if err != nil {
			t.Fatal(err)
		}
		p8, err := (Online{M: 8, Rounds: 2}).Place(rand.New(rand.NewSource(seed)), in)
		if err != nil {
			t.Fatal(err)
		}
		d1 += MeanAccessDelay(in, p1)
		d8 += MeanAccessDelay(in, p8)
	}
	if d8 > d1*1.05 {
		t.Errorf("m=8 (%.2f) should not be materially worse than m=1 (%.2f)", d8/15, d1/15)
	}
}

func TestGreedyIsDeterministic(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(7)), 3)
	a, err := (Greedy{}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (Greedy{}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy nondeterministic")
		}
	}
}

func TestHotZoneHandlesUniformClients(t *testing.T) {
	// All clients at the same point: single occupied cell; fill logic
	// must still produce K distinct replicas.
	r := rand.New(rand.NewSource(8))
	in := planeInstance(r, []vec.Vec{vec.Vec{5, 5}}, 40,
		[]vec.Vec{vec.Vec{5, 5}, vec.Vec{50, 50}, vec.Vec{100, 100}}, 2)
	got, err := (HotZone{CellsPerDim: 4}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == got[1] {
		t.Errorf("placement = %v", got)
	}
	// The most crowded cell maps to the candidate at (5,5).
	if got[0] != in.Candidates[0] {
		t.Errorf("hotzone first pick = %d, want the co-located candidate %d", got[0], in.Candidates[0])
	}
}

func TestClosestReplicaPredicted(t *testing.T) {
	in := threeBlobInstance(rand.New(rand.NewSource(9)), 3)
	// A client in blob 0 must pick the candidate near (1,1) over the one
	// near (99,1).
	client := in.Clients[0]
	got := in.ClosestReplicaPredicted(client, []int{in.Candidates[0], in.Candidates[1]})
	if got != in.Candidates[0] {
		t.Errorf("closest replica = %d, want %d", got, in.Candidates[0])
	}
}

func TestCandidateSelectionAvoidsSlowAccessLinks(t *testing.T) {
	// Two candidates equidistant from the demand centroid, but one sits
	// behind a slow access link (large coordinate height). Every
	// centroid-driven strategy must prefer the well-connected one — the
	// mechanism that lets the online algorithm dodge PlanetLab's bad
	// hosts.
	r := rand.New(rand.NewSource(31))
	in := planeInstance(r, []vec.Vec{vec.Vec{0, 0}}, 40,
		[]vec.Vec{vec.Vec{5, 0}, vec.Vec{-5, 0}}, 1)
	// Give the first candidate a 200 ms access penalty, and make the
	// ground truth reflect it too.
	slow := in.Candidates[0]
	fast := in.Candidates[1]
	in.Coords[slow].Height = 200
	baseRTT := in.RTT
	in.RTT = func(i, j int) float64 {
		d := baseRTT(i, j)
		if i == slow || j == slow {
			d += 200
		}
		return d
	}
	for _, s := range []Strategy{OfflineKMeans{}, DefaultOnline(), Greedy{}, HotZone{}} {
		got, err := s.Place(rand.New(rand.NewSource(32)), in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got[0] != fast {
			t.Errorf("%s picked the slow candidate %d over %d", s.Name(), got[0], fast)
		}
	}
}

// Property: no strategy ever beats Optimal, and K grows never hurt the
// optimal objective.
func TestQuickOptimalIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		in := threeBlobInstance(r, k)
		opt, err := (Optimal{}).Place(nil, in)
		if err != nil {
			return false
		}
		optD := MeanAccessDelay(in, opt)
		for _, s := range []Strategy{Random{}, OfflineKMeans{}, DefaultOnline(), Greedy{}, HotZone{}} {
			got, err := s.Place(rand.New(rand.NewSource(seed+99)), in)
			if err != nil {
				return false
			}
			if MeanAccessDelay(in, got) < optD-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: adding a replica never increases the optimal mean delay.
func TestQuickOptimalMonotoneInK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := threeBlobInstance(r, 1)
		prev := math.Inf(1)
		for k := 1; k <= 4; k++ {
			in.K = k
			opt, err := (Optimal{}).Place(nil, in)
			if err != nil {
				return false
			}
			d := MeanAccessDelay(in, opt)
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
