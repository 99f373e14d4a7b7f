package coord

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/vec"
)

func TestCoordinateDistance(t *testing.T) {
	a := Coordinate{Pos: vec.Vec{0, 0}, Height: 2}
	b := Coordinate{Pos: vec.Vec{3, 4}, Height: 1}
	if got := a.DistanceTo(b); got != 8 { // 5 + 2 + 1
		t.Errorf("DistanceTo = %v, want 8", got)
	}
	if got, want := a.DistanceTo(b), b.DistanceTo(a); got != want {
		t.Errorf("asymmetric: %v vs %v", got, want)
	}
}

func TestCoordinateClone(t *testing.T) {
	a := Coordinate{Pos: vec.Vec{1, 2}, Height: 3}
	c := a.Clone()
	c.Pos[0] = 99
	c.Height = 0
	if a.Pos[0] != 1 || a.Height != 3 {
		t.Errorf("Clone aliases original: %+v", a)
	}
}

func TestCoordinateIsValid(t *testing.T) {
	tests := []struct {
		name string
		c    Coordinate
		want bool
	}{
		{"ok", Coordinate{Pos: vec.Vec{1, 2}, Height: 0.5}, true},
		{"nan pos", Coordinate{Pos: vec.Vec{math.NaN(), 2}, Height: 0.5}, false},
		{"inf pos", Coordinate{Pos: vec.Vec{math.Inf(1), 2}, Height: 0.5}, false},
		{"nan height", Coordinate{Pos: vec.Vec{1, 2}, Height: math.NaN()}, false},
		{"negative height", Coordinate{Pos: vec.Vec{1, 2}, Height: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.IsValid(); got != tt.want {
				t.Errorf("IsValid = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgorithmVivaldi.String() != "vivaldi" || AlgorithmRNP.String() != "rnp" {
		t.Error("algorithm names changed")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should still produce a string")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{AlgorithmVivaldi, AlgorithmRNP} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: got %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestNewNodeValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := NewNode(AlgorithmVivaldi, 0, r); err == nil {
		t.Error("dims=0 should fail")
	}
	if _, err := NewNode(Algorithm(42), 3, r); err == nil {
		t.Error("unknown algorithm should fail")
	}
	for _, a := range []Algorithm{AlgorithmVivaldi, AlgorithmRNP} {
		n, err := NewNode(a, 3, r)
		if err != nil {
			t.Fatalf("NewNode(%v): %v", a, err)
		}
		if got := n.Coordinate().Pos.Dim(); got != 3 {
			t.Errorf("dims = %d, want 3", got)
		}
		if n.ErrorEstimate() <= 0 {
			t.Errorf("fresh node error estimate = %v, want > 0", n.ErrorEstimate())
		}
	}
}

// Two nodes repeatedly measuring each other should converge so that the
// coordinate distance approximates the true RTT.
func TestTwoNodeConvergence(t *testing.T) {
	for _, algo := range []Algorithm{AlgorithmVivaldi, AlgorithmRNP} {
		t.Run(algo.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			a, _ := NewNode(algo, 2, rand.New(rand.NewSource(1)))
			b, _ := NewNode(algo, 2, rand.New(rand.NewSource(2)))
			const rtt = 80.0
			for i := 0; i < 500; i++ {
				noisy := rtt * (1 + r.NormFloat64()*0.02)
				a.Update(b.Coordinate(), b.ErrorEstimate(), noisy)
				b.Update(a.Coordinate(), a.ErrorEstimate(), noisy)
			}
			got := a.Coordinate().DistanceTo(b.Coordinate())
			if math.Abs(got-rtt) > rtt*0.15 {
				t.Errorf("converged distance %v, want ~%v", got, rtt)
			}
		})
	}
}

func TestUpdateIgnoresGarbage(t *testing.T) {
	for _, algo := range []Algorithm{AlgorithmVivaldi, AlgorithmRNP} {
		t.Run(algo.String(), func(t *testing.T) {
			n, _ := NewNode(algo, 2, rand.New(rand.NewSource(3)))
			before := n.Coordinate()
			n.Update(Coordinate{Pos: vec.Vec{math.NaN(), 0}}, 0.5, 50)
			n.Update(Coordinate{Pos: vec.Vec{1, 1}}, 0.5, -5)
			n.Update(Coordinate{Pos: vec.Vec{1, 1}}, 0.5, 0)
			after := n.Coordinate()
			if !before.Pos.Equal(after.Pos) || before.Height != after.Height {
				t.Error("garbage updates moved the coordinate")
			}
		})
	}
}

func TestVivaldiCollocatedNodesSeparate(t *testing.T) {
	a := NewVivaldi(2, rand.New(rand.NewSource(4)))
	b := NewVivaldi(2, rand.New(rand.NewSource(5)))
	// Both start at the origin; an update with a positive RTT must move
	// them apart via the random-direction rule.
	a.Update(b.Coordinate(), b.ErrorEstimate(), 50)
	if a.Coordinate().Pos.IsZero() {
		t.Error("co-located node did not separate")
	}
}

func TestVivaldiErrorEstimateDecreases(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := NewVivaldi(2, rand.New(rand.NewSource(7)))
	b := NewVivaldi(2, rand.New(rand.NewSource(8)))
	start := a.ErrorEstimate()
	for i := 0; i < 300; i++ {
		rtt := 60 * (1 + r.NormFloat64()*0.01)
		a.Update(b.Coordinate(), b.ErrorEstimate(), rtt)
		b.Update(a.Coordinate(), a.ErrorEstimate(), rtt)
	}
	if got := a.ErrorEstimate(); got >= start {
		t.Errorf("error estimate %v did not drop from %v", got, start)
	}
}

func TestVivaldiHeightStaysPositive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := NewVivaldi(2, rand.New(rand.NewSource(10)))
	b := NewVivaldi(2, rand.New(rand.NewSource(11)))
	for i := 0; i < 500; i++ {
		a.Update(b.Coordinate(), b.ErrorEstimate(), 1+r.Float64())
	}
	if h := a.Coordinate().Height; h < minHeight {
		t.Errorf("height %v fell below floor %v", h, minHeight)
	}
}

func TestRNPPeerHistoryBounded(t *testing.T) {
	n := NewRNP(2, rand.New(rand.NewSource(12)))
	remote := Coordinate{Pos: vec.Vec{10, 0}, Height: 1}
	for i := 0; i < 100; i++ {
		n.UpdateFrom(7, remote, 0.5, 50)
	}
	if len(n.peers) != 1 {
		t.Fatalf("PeerCount = %d, want 1", len(n.peers))
	}
	p := n.peers[peerKey(7)]
	if len(p.samples) > rnpHistoryPerPeer {
		t.Errorf("history %d exceeds cap %d", len(p.samples), rnpHistoryPerPeer)
	}
}

func TestRNPPeerTableEviction(t *testing.T) {
	n := NewRNP(2, rand.New(rand.NewSource(13)))
	for i := 0; i < rnpMaxPeers*2; i++ {
		remote := Coordinate{Pos: vec.Vec{float64(i), 1}, Height: 1}
		n.UpdateFrom(int64(i), remote, 0.5, 30)
	}
	if len(n.peers) > rnpMaxPeers {
		t.Errorf("peer table %d exceeds cap %d", len(n.peers), rnpMaxPeers)
	}
	// The newest peer must have survived.
	if _, ok := n.peers[peerKey(rnpMaxPeers*2-1)]; !ok {
		t.Error("most recent peer evicted")
	}
}

func TestRNPReliabilityDiscountsJitter(t *testing.T) {
	stable := &rnpPeer{}
	jittery := &rnpPeer{}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < rnpHistoryPerPeer; i++ {
		stable.samples = append(stable.samples, rnpSample{rtt: 50 + r.Float64()})
		jittery.samples = append(jittery.samples, rnpSample{rtt: 50 + r.Float64()*120})
	}
	if rs, rj := stable.reliability(), jittery.reliability(); rs <= rj {
		t.Errorf("stable reliability %v should exceed jittery %v", rs, rj)
	}
}

func TestRNPFilteredRTTIsRobust(t *testing.T) {
	p := &rnpPeer{}
	for _, v := range []float64{50, 51, 49, 50, 400} { // one spike
		p.samples = append(p.samples, rnpSample{rtt: v})
	}
	if got := p.filteredRTT(); got < 45 || got > 55 {
		t.Errorf("filtered RTT %v should ignore the spike", got)
	}
	empty := &rnpPeer{}
	if got := empty.filteredRTT(); got != 0 {
		t.Errorf("empty history filtered RTT = %v, want 0", got)
	}
}

func TestHashCoordinateDistinguishes(t *testing.T) {
	a := Coordinate{Pos: vec.Vec{1, 2}, Height: 1}
	b := Coordinate{Pos: vec.Vec{5, -3}, Height: 1}
	if hashCoordinate(a) == hashCoordinate(b) {
		t.Error("distinct coordinates hashed equal")
	}
	if hashCoordinate(a) != hashCoordinate(a.Clone()) {
		t.Error("identical coordinates hashed differently")
	}
}

// Property: node coordinates remain valid (finite, non-negative height)
// under arbitrary bounded measurement streams.
func TestQuickNodesStayValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		algo := AlgorithmVivaldi
		if seed%2 == 0 {
			algo = AlgorithmRNP
		}
		n, err := NewNode(algo, 1+r.Intn(4), rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			d := n.Coordinate().Pos.Dim()
			remote := Coordinate{Pos: randomUnit(r, d).Scale(r.Float64() * 200), Height: r.Float64() * 10}
			n.Update(remote, r.Float64(), r.Float64()*500+0.1)
		}
		c := n.Coordinate()
		return c.IsValid() && n.ErrorEstimate() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
