package placement_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/georep/georep/internal/audit"
	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
)

// bruteForceSubset enumerates every k-subset of the n candidates in
// lexicographic order over the table cost[c][i] and keeps the first one
// with the lowest total — after seed, when given, which a later subset
// must strictly beat. It returns candidate indexes.
func bruteForceSubset(cost [][]float64, k int, seed []int) []int {
	n := len(cost)
	total := func(cols []int) float64 {
		var sum float64
		for i := range cost[0] {
			best := math.Inf(1)
			for _, c := range cols {
				best = math.Min(best, cost[c][i])
			}
			sum += best
		}
		return sum
	}
	best, bestVal := []int(nil), math.Inf(1)
	if seed != nil {
		best, bestVal = append([]int(nil), seed...), total(seed)
	}
	combo := make([]int, k)
	var visit func(start, depth int)
	visit = func(start, depth int) {
		if depth == k {
			if v := total(combo); v < bestVal {
				best, bestVal = append([]int(nil), combo...), v
			}
			return
		}
		for c := start; c <= n-(k-depth); c++ {
			combo[depth] = c
			visit(c+1, depth+1)
		}
	}
	visit(0, 0)
	return best
}

// TestExactSearchCallersMatchBruteForce drives the one exact search
// through its three callers — Service.refine, Optimal.Place and the
// audit's optimal baseline — on the same instances and checks each
// against brute force. The instances tie on purpose: candidates on a
// half-millisecond grid, some sharing a position and height, and
// micro-clusters that appear twice, so distinct subsets reach the same
// total and the answer must be the lexicographically first of them (or,
// for refine, its seed when nothing strictly beats it).
func TestExactSearchCallersMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(9)
		k := 1 + r.Intn(min(4, n))
		coords := make([]coord.Coordinate, n)
		ids := make([]int, n)
		for c := range coords {
			ids[c] = c
			coords[c] = coord.Coordinate{
				Pos:    vec.Vec{math.Round(r.NormFloat64()*160) / 2, math.Round(r.NormFloat64()*160) / 2},
				Height: float64(r.Intn(4)) / 2,
			}
			if c > 0 && r.Intn(3) == 0 {
				twin := coords[r.Intn(c)]
				coords[c] = coord.Coordinate{Pos: twin.Pos.Clone(), Height: twin.Height}
			}
		}
		var micros []cluster.Micro
		for i, nm := 0, 1+r.Intn(12); i < nm; i++ {
			m := cluster.NewMicro(2)
			for a, hits := 0, 1+r.Intn(5); a < hits; a++ {
				m.Absorb(vec.Vec{math.Round(r.NormFloat64()*180) / 2, math.Round(r.NormFloat64()*180) / 2}, float64(1+r.Intn(3)))
			}
			micros = append(micros, m)
			if r.Intn(3) == 0 {
				micros = append(micros, m)
			}
		}

		// The shared cost table: micro i's mass times its predicted delay
		// to candidate c, as both estimators compute it.
		cost := make([][]float64, n)
		for c := range cost {
			cost[c] = make([]float64, len(micros))
			for i := range micros {
				cost[c][i] = micros[i].Weight * (coords[c].Pos.Dist(micros[i].Centroid()) + coords[c].Height)
			}
		}
		want := bruteForceSubset(cost, k, nil)

		// Optimal.Place: clients are the nodes after the candidates, the
		// oracle reads the table, every client weighs one.
		in := &placement.Instance{
			NumNodes:   n + len(micros),
			RTT:        func(cli, cand int) float64 { return cost[cand][cli-n] },
			Coords:     make([]coord.Coordinate, n+len(micros)),
			Candidates: ids,
			K:          k,
		}
		for i := range micros {
			in.Clients = append(in.Clients, n+i)
		}
		got, err := (placement.Optimal{}).Place(nil, in)
		if err != nil {
			t.Fatalf("seed %d: Optimal.Place: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (n=%d k=%d): Optimal.Place %v, brute force %v", seed, n, k, got, want)
		}

		// The audit's optimal baseline, from a ledger record.
		rep, err := audit.Run([]ledger.Record{{
			Epoch: 1, K: k, Candidates: ids, CandidateCoords: coords,
			Replicas: ids[:k], Micros: micros, QuorumOK: true,
		}}, audit.Config{})
		if err != nil {
			t.Fatalf("seed %d: audit.Run: %v", seed, err)
		}
		if got := rep.Epochs[0].OptimalReplicas; !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (n=%d k=%d): audit optimum %v, brute force %v", seed, n, k, got, want)
		}

		// Service.refine, seeded with a random proposal that keeps its
		// place unless a subset is strictly cheaper.
		svc, err := placement.NewService(placement.ServiceConfig{
			Object:     replica.Config{K: k, M: 4, Dims: 2},
			Candidates: ids,
			Coords:     coords,
			Refine:     true,
		})
		if err != nil {
			t.Fatalf("seed %d: NewService: %v", seed, err)
		}
		proposed := r.Perm(n)[:k]
		wantRefined := bruteForceSubset(cost, k, proposed)
		if got := svc.RefineMicros(micros, proposed); !reflect.DeepEqual(got, wantRefined) {
			t.Errorf("seed %d (n=%d k=%d): refine from %v gave %v, brute force %v", seed, n, k, proposed, got, wantRefined)
		}
	}
}
