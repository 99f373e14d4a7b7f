package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
)

// referenceRefine is the refine kernel this package shipped before the
// candidate-major rewrite, kept as the oracle: micro-major delay matrix,
// math.Min, weights applied after the minimum, a closure-based DFS. Its
// only edits are the explicit micro view, the []byte cache key, and the
// float64(...) conversions around each weight-times-delay product, which
// forbid fusing it into the following add — a no-op on amd64, where the
// goldens were recorded, and what keeps the oracle's rounding the same
// on architectures that would otherwise contract the pair into an FMA.
func referenceRefine(s *Service, leader *Object, micros []cluster.Micro, proposed []int) []int {
	k := len(proposed)
	n := len(s.cfg.Candidates)

	nm := len(micros)
	d := make([]float64, nm*n)
	w := make([]float64, nm)
	suf := make([]float64, nm*(n+1))
	cent := vec.New(s.cfg.Object.Dims)
	for i := range micros {
		wi := micros[i].Weight
		if wi == 0 {
			wi = float64(micros[i].Count)
		}
		w[i] = wi
		micros[i].CentroidInto(cent)
		for ci, cand := range s.cfg.Candidates {
			c := &s.cfg.Coords[cand]
			d[i*n+ci] = c.Pos.Dist(cent) + c.Height
		}
		suf[i*(n+1)+n] = math.Inf(1)
		for j := n - 1; j >= 0; j-- {
			suf[i*(n+1)+j] = math.Min(suf[i*(n+1)+j+1], d[i*n+j])
		}
	}
	objective := func(placement []int) float64 {
		var total float64
		for i := range micros {
			best := math.Inf(1)
			for _, node := range placement {
				if dd := d[i*n+s.candIdx[node]]; dd < best {
					best = dd
				}
			}
			total += float64(w[i] * best)
		}
		return total
	}

	best := append([]int(nil), proposed...)
	bestVal := objective(proposed)
	proposedVal := bestVal

	var mass float64
	for i := range w {
		mass += w[i]
	}
	meanOf := func(total float64) float64 {
		if mass > 0 {
			return total / mass
		}
		return 0
	}
	curSrc := provenance.SourceProposed
	demote := func(newSrc provenance.Source, displacedVal float64, displaced []int) {
		if s.cfg.Object.Provenance {
			s.pushFrontier(leader, curSrc, meanOf(displacedVal), displaced)
		}
		curSrc = newSrc
	}

	var key string
	if s.bounds != nil {
		key = string(s.bounds.keyFor(leader.sig))
		if cached, ok := s.bounds.m[key]; ok && len(cached) == k {
			s.stats.BoundHits++
			if v := objective(cached); v < bestVal {
				demote(provenance.SourceCached, bestVal, best)
				bestVal = v
				best = append(best[:0], cached...)
			}
		}
	}

	cur := make([]float64, (k+1)*nm)
	for i := 0; i < nm; i++ {
		cur[i] = math.Inf(1)
	}
	pick := make([]int, k)
	var dfs func(depth, next int)
	dfs = func(depth, next int) {
		if depth == k {
			var total float64
			for i := 0; i < nm; i++ {
				total += float64(w[i] * cur[depth*nm+i])
			}
			if total < bestVal {
				demote(provenance.SourceFrontier, bestVal, best)
				bestVal = total
				for i, ci := range pick {
					best[i] = s.cfg.Candidates[ci]
				}
			}
			return
		}
		for ci := next; ci <= n-(k-depth); ci++ {
			row := (depth + 1) * nm
			prevRow := depth * nm
			for i := 0; i < nm; i++ {
				cur[row+i] = math.Min(cur[prevRow+i], d[i*n+ci])
			}
			var lb float64
			if depth+1 == k {
				for i := 0; i < nm; i++ {
					lb += float64(w[i] * cur[row+i])
				}
			} else {
				for i := 0; i < nm; i++ {
					lb += float64(w[i] * math.Min(cur[row+i], suf[i*(n+1)+ci+1]))
				}
			}
			if lb >= bestVal {
				continue
			}
			pick[depth] = ci
			dfs(depth+1, ci+1)
		}
	}
	dfs(0, 0)

	if s.bounds != nil {
		s.bounds.m[key] = append([]int(nil), best...)
	}
	if bestVal < proposedVal {
		s.stats.Refined++
	}
	return best
}

// refineWorld is one generated geography: up to 16 candidates scattered
// among other nodes, some sharing a position and height so that distinct
// placements tie exactly.
func refineWorld(tb testing.TB, r *rand.Rand, provenanceOn bool) *Service {
	tb.Helper()
	n := 1 + r.Intn(16)
	dims := 2 + r.Intn(2)
	coords := make([]coord.Coordinate, n+r.Intn(8))
	for i := range coords {
		p := vec.New(dims)
		for d := range p {
			p[d] = math.Round(r.NormFloat64() * 80)
		}
		coords[i] = coord.Coordinate{Pos: p, Height: float64(r.Intn(4))}
		if i > 0 && r.Intn(4) == 0 {
			twin := coords[r.Intn(i)]
			coords[i] = coord.Coordinate{Pos: twin.Pos.Clone(), Height: twin.Height}
		}
	}
	svc, err := NewService(ServiceConfig{
		Object:     replica.Config{K: 1, M: 4, Dims: dims, Provenance: provenanceOn},
		Candidates: r.Perm(len(coords))[:n],
		Coords:     coords,
		Refine:     true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return svc
}

// refineMicrosFor draws a micro view: integer-grid centroids (more
// ties), weights that are sometimes zero (the count stands in), and a
// few empty clusters.
func refineMicrosFor(r *rand.Rand, dims, nm int) []cluster.Micro {
	micros := make([]cluster.Micro, nm)
	for i := range micros {
		m := cluster.NewMicro(dims)
		m.Count = int64(r.Intn(40))
		if r.Intn(8) == 0 {
			m.Count = 0
		}
		for d := 0; d < dims; d++ {
			c := math.Round(r.NormFloat64() * 90)
			m.Sum[d] = c * float64(m.Count)
			m.Sum2[d] = c * c * float64(m.Count)
		}
		if r.Intn(3) > 0 {
			m.Weight = float64(r.Intn(50)) / 4
		}
		micros[i] = m
	}
	return micros
}

// checkRefineAgainstReference drives the kernel and the oracle through
// the same sequence of solves on twin services — so their bound caches
// evolve together and later solves start from cached incumbents — and
// demands identical placements, frontiers and counters after each.
func checkRefineAgainstReference(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	provenanceOn := r.Intn(4) > 0
	worldSeed := r.Int63()
	got := refineWorld(t, rand.New(rand.NewSource(worldSeed)), provenanceOn)
	want := refineWorld(t, rand.New(rand.NewSource(worldSeed)), provenanceOn)
	n := len(got.cfg.Candidates)
	// A handful of demand shapes, revisited: repeat keys hit the cache.
	shapes := make([][]float64, 1+r.Intn(3))
	for i := range shapes {
		shapes[i] = make([]float64, n)
		shapes[i][r.Intn(n)] = 1
	}
	gotLeader, wantLeader := &Object{}, &Object{}
	for solve := 0; solve < 8; solve++ {
		k := 1 + r.Intn(min(5, n))
		micros := refineMicrosFor(r, got.cfg.Object.Dims, 1+r.Intn(120))
		proposed := make([]int, k)
		for i, ci := range r.Perm(n)[:k] {
			proposed[i] = got.cfg.Candidates[ci]
		}
		sig := shapes[r.Intn(len(shapes))]
		gotLeader.sig, wantLeader.sig = sig, sig
		gotLeader.frontier, wantLeader.frontier = gotLeader.frontier[:0], wantLeader.frontier[:0]

		gotP := got.refineMicros(gotLeader, micros, proposed)
		wantP := referenceRefine(want, wantLeader, micros, proposed)
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("seed %d solve %d (n=%d k=%d micros=%d): placement %v, reference %v", seed, solve, n, k, len(micros), gotP, wantP)
		}
		if got.stats != want.stats {
			t.Fatalf("seed %d solve %d: stats %+v, reference %+v", seed, solve, got.stats, want.stats)
		}
		if len(gotLeader.frontier) != len(wantLeader.frontier) {
			t.Fatalf("seed %d solve %d: frontier %v, reference %v", seed, solve, gotLeader.frontier, wantLeader.frontier)
		}
		for i, g := range gotLeader.frontier {
			w := wantLeader.frontier[i]
			if g.Source != w.Source || math.Float64bits(g.CostMs) != math.Float64bits(w.CostMs) || !reflect.DeepEqual(g.Replicas, w.Replicas) {
				t.Fatalf("seed %d solve %d: frontier[%d] = %+v, reference %+v", seed, solve, i, g, w)
			}
		}
		if !reflect.DeepEqual(got.bounds.m, want.bounds.m) {
			t.Fatalf("seed %d solve %d: bound caches diverged", seed, solve)
		}
	}
}

// FuzzRefineMatchesReference is the differential test of the refine
// kernel: any seed must reproduce the old kernel's placements, frontier
// bits and counters. The seed corpus runs under plain go test.
func FuzzRefineMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 200; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkRefineAgainstReference)
}

// refineK4Fixture is the decide_k4 shape: 16 candidates, k=4, 80 micros
// (four replicas' summaries of 20 clusters each).
func refineK4Fixture(tb testing.TB) (*Service, *Object, []cluster.Micro, []int) {
	tb.Helper()
	r := rand.New(rand.NewSource(3))
	coords := make([]coord.Coordinate, 16)
	ids := make([]int, len(coords))
	for i := range coords {
		coords[i] = coord.Coordinate{Pos: vec.Vec{r.NormFloat64() * 80, r.NormFloat64() * 80, r.NormFloat64() * 80}, Height: r.Float64() * 5}
		ids[i] = i
	}
	svc, err := NewService(ServiceConfig{
		Object:     replica.Config{K: 4, M: 20, Dims: 3},
		Candidates: ids,
		Coords:     coords,
		Refine:     true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	micros := make([]cluster.Micro, 80)
	for i := range micros {
		micros[i] = cluster.NewMicro(3)
		for a := 0; a < 1+r.Intn(30); a++ {
			micros[i].Absorb(vec.Vec{r.NormFloat64() * 90, r.NormFloat64() * 90, r.NormFloat64() * 90}, 1)
		}
	}
	sig := make([]float64, len(ids))
	sig[0] = 1
	return svc, &Object{sig: sig}, micros, []int{0, 1, 2, 3}
}

// TestRefineSteadyStateAllocs pins the kernel's allocation contract:
// once its scratch is sized and the demand shape is in the bound cache,
// a solve (provenance off) allocates nothing.
func TestRefineSteadyStateAllocs(t *testing.T) {
	svc, leader, micros, proposed := refineK4Fixture(t)
	svc.refineMicros(leader, micros, proposed)
	allocs := testing.AllocsPerRun(50, func() {
		svc.refineMicros(leader, micros, proposed)
	})
	if allocs != 0 {
		t.Errorf("steady-state refine allocates: %.1f allocs/solve, want 0", allocs)
	}
	if svc.stats.BoundHits == 0 {
		t.Error("repeat solves never hit the bound cache")
	}
}

// TestSolveRandReseedMatchesFresh pins the per-solve random stream: the
// service reseeds one generator where it used to build one per solve,
// and a reseeded generator must continue exactly as a fresh one would,
// however far the previous solve had drawn from it. (The placements that
// stream produces are pinned by TestSingletonByteIdentity, whose naive
// pass builds a fresh generator per solve.)
func TestSolveRandReseedMatchesFresh(t *testing.T) {
	svc, err := NewService(svcConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 7, 7 + 3*epochSeedStride + 5, -1} {
		for i := 0; i < int(seed&7)+3; i++ {
			svc.rng.Float64() // leave the generator mid-stream
		}
		svc.rng.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 32; i++ {
			if g, w := svc.rng.Int63(), fresh.Int63(); g != w {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, g, w)
			}
		}
		if g, w := svc.rng.Perm(9), fresh.Perm(9); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: reseeded Perm %v, fresh %v", seed, g, w)
		}
	}
}

// refineLedgerDigest is the SHA-256 (dirDigest) of the ledger
// TestRefineLedgerDigestPinned writes, computed on the commit before
// the refine kernel and the summarizer's centroid table were rewritten.
// It covers every byte those two kernels can influence: placements,
// estimated delays, and the provenance frontier (source, cost,
// replicas) of each refined solve.
const refineLedgerDigest = "d8775c5f6b4e28aa31c226b91d8bcdb6ad9b259ffd91629e4c87a4c7fa7dc377"

// TestRefineLedgerDigestPinned replays a seeded fleet — 8 objects, 20
// epochs, exact mode, Refine and provenance on, demand hotspots that
// circle the candidate ring so incumbents keep changing — and compares
// the ledger bytes with the pinned digest.
func TestRefineLedgerDigestPinned(t *testing.T) {
	const objects, epochs, cands = 8, 20, 12
	coords := make([]coord.Coordinate, cands)
	ids := make([]int, cands)
	for i := range coords {
		a := 2 * math.Pi * float64(i) / cands
		coords[i] = coord.Coordinate{Pos: vec.Vec{100 * math.Cos(a), 100 * math.Sin(a)}, Height: float64(i % 3)}
		ids[i] = i
	}
	dir := t.TempDir()
	led, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{
		Object:     replica.Config{K: 3, M: 6, Dims: 2, Provenance: true, Ledger: led},
		Candidates: ids,
		Coords:     coords,
		Refine:     true,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var objs []*Object
	for i := 0; i < objects; i++ {
		o, err := svc.Register(fmt.Sprintf("obj-%d", i), fmt.Sprintf("class-%d", i%3))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	r := rand.New(rand.NewSource(5))
	refined, hits := 0, 0
	for e := 0; e < epochs; e++ {
		for i, o := range objs {
			for a := 0; a < 60; a++ {
				// Three hotspots per object, a third of a turn apart,
				// advancing a twelfth of a turn every two epochs.
				turn := float64(i)/objects + float64(a%3)/3 + float64(e/2)/12
				rad := 60 + 50*r.Float64()
				p := vec.Vec{rad*math.Cos(2*math.Pi*turn) + r.NormFloat64()*8, rad*math.Sin(2*math.Pi*turn) + r.NormFloat64()*8}
				if _, err := o.Record(coord.Coordinate{Pos: p}, 1+float64(a%4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		st, err := svc.EndEpoch()
		if err != nil {
			t.Fatal(err)
		}
		refined += st.Refined
		hits += st.BoundHits
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	if refined == 0 || hits == 0 {
		t.Fatalf("fixture too tame to pin anything: %d refined solves, %d bound-cache hits", refined, hits)
	}
	if got := dirDigest(t, dir); got != refineLedgerDigest {
		t.Errorf("ledger digest %s, want %s (refined %d, bound hits %d)", got, refineLedgerDigest, refined, hits)
	}
}
