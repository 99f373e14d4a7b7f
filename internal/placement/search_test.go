package placement

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/stats"
	"github.com/georep/georep/internal/vec"
)

// randomSearchInstance builds a placement instance over a random
// symmetric RTT matrix. Duplicate delays are likely (values are rounded
// to 0.5ms steps) so ties between placements actually occur and the
// first-wins tie-break is exercised.
func randomSearchInstance(r *rand.Rand, nodes, numCand, k int) *Instance {
	m := make([][]float64, nodes)
	for i := range m {
		m[i] = make([]float64, nodes)
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			d := math.Round(r.Float64()*200*2) / 2
			m[i][j], m[j][i] = d, d
		}
	}
	coords := make([]coord.Coordinate, nodes)
	for i := range coords {
		coords[i] = coord.Coordinate{Pos: vec.Vec{r.NormFloat64(), r.NormFloat64()}, Height: 0}
	}
	perm := r.Perm(nodes)
	cands := append([]int(nil), perm[:numCand]...)
	clients := append([]int(nil), perm[numCand:]...)
	return &Instance{
		NumNodes:   nodes,
		RTT:        func(i, j int) float64 { return m[i][j] },
		Coords:     coords,
		Candidates: cands,
		Clients:    clients,
		K:          k,
	}
}

// naiveOptimal is the seed implementation: enumerate every combination
// and call MeanAccessDelay at each leaf. Kept as the reference the
// branch-and-bound search must match byte for byte.
func naiveOptimal(in *Instance) []int {
	best := make([]int, in.K)
	bestDelay := math.Inf(1)
	combo := make([]int, in.K)
	replicas := make([]int, in.K)
	var visit func(start, depth int)
	visit = func(start, depth int) {
		if depth == in.K {
			for i, ci := range combo {
				replicas[i] = in.Candidates[ci]
			}
			if d := MeanAccessDelay(in, replicas); d < bestDelay {
				bestDelay = d
				copy(best, replicas)
			}
			return
		}
		for i := start; i <= len(in.Candidates)-(in.K-depth); i++ {
			combo[depth] = i
			visit(i+1, depth+1)
		}
	}
	visit(0, 0)
	return best
}

// naiveOptimalPercentile is the corresponding percentile reference.
func naiveOptimalPercentile(t *testing.T, in *Instance, p float64) []int {
	t.Helper()
	best := make([]int, in.K)
	bestVal := math.Inf(1)
	combo := make([]int, in.K)
	replicas := make([]int, in.K)
	var visit func(start, depth int)
	visit = func(start, depth int) {
		if depth == in.K {
			for i, ci := range combo {
				replicas[i] = in.Candidates[ci]
			}
			v, err := PercentileAccessDelay(in, replicas, p)
			if err != nil {
				t.Fatal(err)
			}
			if v < bestVal {
				bestVal = v
				copy(best, replicas)
			}
			return
		}
		for i := start; i <= len(in.Candidates)-(in.K-depth); i++ {
			combo[depth] = i
			visit(i+1, depth+1)
		}
	}
	visit(0, 0)
	return best
}

func TestOptimalMatchesNaiveEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes := 20 + r.Intn(20)
		numCand := 6 + r.Intn(8)
		k := 1 + r.Intn(4)
		if k > numCand {
			k = numCand
		}
		in := randomSearchInstance(r, nodes, numCand, k)
		want := naiveOptimal(in)
		for _, par := range []int{1, 2, 8} {
			got, err := (Optimal{Parallelism: par}).Place(nil, in)
			if err != nil {
				t.Fatalf("seed %d par %d: %v", seed, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d par %d: got %v (%.10f ms), naive %v (%.10f ms)",
					seed, par, got, MeanAccessDelay(in, got), want, MeanAccessDelay(in, want))
			}
		}
	}
}

func TestOptimalPercentileMatchesNaiveEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randomSearchInstance(r, 25, 8, 3)
		for _, p := range []float64{50, 95} {
			want := naiveOptimalPercentile(t, in, p)
			got, err := (OptimalPercentile{P: p}).Place(nil, in)
			if err != nil {
				t.Fatalf("seed %d p %g: %v", seed, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d p %g: got %v, naive %v", seed, p, got, want)
			}
		}
	}
}

// TestSearchAccountsEveryCombination checks the branch-and-bound
// bookkeeping: every one of the C(n,K) combinations is either visited or
// attributed to a pruned subtree, and pruning actually fires on a
// non-trivial instance.
func TestSearchAccountsEveryCombination(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := randomSearchInstance(r, 40, 12, 4)
	reg := metrics.NewRegistry()
	if _, err := (Optimal{Metrics: reg}).Place(nil, in); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	visited := s.Counters["placement_search_visited_total"]
	pruned := s.Counters["placement_search_pruned_total"]
	total := int64(Binomial(12, 4))
	if visited+pruned != total {
		t.Fatalf("visited %d + pruned %d = %d, want C(12,4) = %d", visited, pruned, visited+pruned, total)
	}
	if pruned == 0 {
		t.Fatalf("expected the lower bound to prune at least one subtree (visited %d)", visited)
	}
}

// TestSearchObjectiveValuesUnchanged pins the objective arithmetic: the
// value of the returned placement, recomputed through the public
// evaluators, equals the seed implementation's leaf arithmetic.
func TestSearchObjectiveValuesUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := randomSearchInstance(r, 30, 9, 3)
	reps, err := (Optimal{}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	naive := naiveOptimal(in)
	if got, want := MeanAccessDelay(in, reps), MeanAccessDelay(in, naive); got != want {
		t.Fatalf("mean delay %v != naive %v", got, want)
	}

	// And the percentile objective replicates stats.Percentile bit for bit.
	delays := make([]float64, len(in.Clients))
	for i, u := range in.Clients {
		best := math.Inf(1)
		for _, rep := range reps {
			if d := in.RTT(u, rep); d < best {
				best = d
			}
		}
		delays[i] = best
	}
	want, err := stats.Percentile(delays, 95)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, len(delays))
	if got := percentileObjective(95)(delays, scratch); got != want {
		t.Fatalf("percentileObjective = %v, stats.Percentile = %v", got, want)
	}
}

// tableInstance is an instance whose RTT oracle reads a client×candidate
// table: clients are nodes 0..len(rtt)-1, candidates the nodes after.
func tableInstance(rtt [][]float64, k int) *Instance {
	nCli, nCand := len(rtt), len(rtt[0])
	in := &Instance{
		NumNodes: nCli + nCand,
		RTT:      func(cli, cand int) float64 { return rtt[cli][cand-nCli] },
		Coords:   make([]coord.Coordinate, nCli+nCand),
		K:        k,
	}
	for i := 0; i < nCli; i++ {
		in.Clients = append(in.Clients, i)
	}
	for c := 0; c < nCand; c++ {
		in.Candidates = append(in.Candidates, nCli+c)
	}
	return in
}

// TestOptimalInputContract pins what Optimal.Place does with an oracle
// it cannot trust — a NaN or negative delay is an error naming the pair,
// +Inf (an unreachable pair) is data — and the shapes at the edge of the
// search: every candidate chosen, one replica, one client.
func TestOptimalInputContract(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name    string
		rtt     [][]float64 // [client][candidate]
		k       int
		wantErr string
		want    []int // nil: whatever the naive enumeration returns
	}{
		{name: "NaN RTT", rtt: [][]float64{{1, 2, 3}, {4, nan, 6}}, k: 2, wantErr: "client 1 to candidate 3 is NaN"},
		{name: "negative RTT", rtt: [][]float64{{1, 2, -0.5}, {4, 5, 6}}, k: 1, wantErr: "client 0 to candidate 4 is -0.5"},
		{name: "+Inf accepted", rtt: [][]float64{{inf, 2, 3}, {4, inf, 1}, {inf, inf, 9}}, k: 2},
		// No finite placement: the naive loop never adopts one (and
		// reports node 0 twice); the search answers with the first k.
		{name: "+Inf everywhere", rtt: [][]float64{{inf, inf, inf}, {inf, inf, inf}}, k: 2, want: []int{2, 3}},
		{name: "k == len(candidates)", rtt: [][]float64{{5, 2, 3}, {4, 9, 1}}, k: 3},
		{name: "k == 1", rtt: [][]float64{{5, 2, 3}, {4, 9, 1}, {1, 7, 3}}, k: 1},
		{name: "one client", rtt: [][]float64{{5, 2, 2, 3}}, k: 2},
	} {
		in := tableInstance(tc.rtt, tc.k)
		got, err := (Optimal{}).Place(nil, in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := tc.want
		if want == nil {
			want = naiveOptimal(in)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
}

// TestOptimalComparesTotals pins the one place the search can differ
// from a comparison of means: two distinct totals whose quotients by the
// client count round to the same float. The naive enumeration calls that
// a tie and keeps the first placement; the search keeps the strictly
// cheaper one.
func TestOptimalComparesTotals(t *testing.T) {
	ulp := math.Nextafter(3, 4) - 3
	dear, cheap := 3+2*ulp, 3+ulp
	if dear/3 != cheap/3 || !(cheap < dear) {
		t.Fatalf("fixture broken: totals %v and %v no longer share the mean %v", dear, cheap, dear/3)
	}
	// Three clients, two single-replica placements; each total is exact.
	in := tableInstance([][]float64{{1, 1}, {1, 1}, {dear - 2, cheap - 2}}, 1)
	got, err := (Optimal{}).Place(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want the strictly cheaper %v", got, want)
	}
	if naive := naiveOptimal(in); !reflect.DeepEqual(naive, []int{3}) {
		t.Fatalf("naive enumeration picked %v: the means no longer tie", naive)
	}
}
