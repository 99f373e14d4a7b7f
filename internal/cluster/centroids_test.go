package cluster

import (
	"math"
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/vec"
)

// dist2ToPoint is the squared distance from a cluster's centroid to p,
// dividing in place — what the nearest-cluster scan computed per cluster
// per observation before the centroid table. Kept as the oracle.
func (m *Micro) dist2ToPoint(p vec.Vec) float64 {
	var s float64
	if m.Count == 0 {
		for d := range p {
			s += p[d] * p[d]
		}
		return s
	}
	n := float64(m.Count)
	for d := range p {
		diff := m.Sum[d]/n - p[d]
		s += diff * diff
	}
	return s
}

// refSummarizer is the summarizer as it scanned before the centroid
// table: every distance derived from Sum and Count on the spot via
// dist2ToPoint / centroidDist2. Same steps, same comparison order.
type refSummarizer struct {
	max      int
	clusters []Micro
}

func (s *refSummarizer) observe(p vec.Vec, weight float64) {
	if len(s.clusters) > 0 {
		best, bestD2 := 0, math.Inf(1)
		for i := range s.clusters {
			if d2 := s.clusters[i].dist2ToPoint(p); d2 < bestD2 {
				best, bestD2 = i, d2
			}
		}
		if math.Sqrt(bestD2) <= s.clusters[best].StdDev() {
			s.clusters[best].Absorb(p, weight)
			return
		}
	}
	fresh := NewMicro(p.Dim())
	fresh.Absorb(p, weight)
	s.clusters = append(s.clusters, fresh)
	if len(s.clusters) > s.max && len(s.clusters) >= 2 {
		bi, bj, bestD2 := 0, 1, math.Inf(1)
		for i := 0; i < len(s.clusters); i++ {
			for j := i + 1; j < len(s.clusters); j++ {
				if d2 := centroidDist2(&s.clusters[i], &s.clusters[j]); d2 < bestD2 {
					bi, bj, bestD2 = i, j, d2
				}
			}
		}
		absorbMicro(&s.clusters[bi], &s.clusters[bj])
		last := len(s.clusters) - 1
		s.clusters[bj] = s.clusters[last]
		s.clusters = s.clusters[:last]
	}
}

func (s *refSummarizer) decay(factor float64) {
	kept := s.clusters[:0]
	for _, c := range s.clusters {
		newCount := int64(math.Round(float64(c.Count) * factor))
		if newCount <= 0 {
			continue
		}
		ratio := float64(newCount) / float64(c.Count)
		c.Count = newCount
		c.Weight *= factor
		c.Sum.ScaleInPlace(ratio)
		c.Sum2.ScaleInPlace(ratio)
		kept = append(kept, c)
	}
	s.clusters = kept
}

// sameBits reports whether two summaries agree to the last bit.
func sameBits(a, b []Micro) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
		for d := range a[i].Sum {
			if math.Float64bits(a[i].Sum[d]) != math.Float64bits(b[i].Sum[d]) ||
				math.Float64bits(a[i].Sum2[d]) != math.Float64bits(b[i].Sum2[d]) {
				return false
			}
		}
	}
	return true
}

// checkTable asserts the centroid-table invariant: row i is exactly
// clusters[i].Sum/Count.
func checkTable(t *testing.T, step int, table *centroidTable, clusters []Micro) {
	t.Helper()
	for i := range clusters {
		for d, sum := range clusters[i].Sum {
			want := sum / float64(clusters[i].Count)
			if got := table.c[i*table.dims+d]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: centroid table [%d][%d] = %v, cluster says %v", step, i, d, got, want)
			}
		}
	}
}

// TestSummarizersMatchReference drives Summarizer and WindowedSummarizer
// through random streams — hotspots with churn past the budget, exact
// duplicates, decays and resets — beside the pre-table reference, and demands bit-identical clusters and
// an exact centroid table after every step.
func TestSummarizersMatchReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		budget, dims := 1+r.Intn(12), 1+r.Intn(4)
		plain, err := NewSummarizer(budget, dims)
		if err != nil {
			t.Fatal(err)
		}
		windowed, err := NewWindowedSummarizer(budget, dims)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refSummarizer{max: budget}
		windowedLive := true // WindowedSummarizer has no Decay or Reset
		hot := make([]vec.Vec, 2*budget+1)
		for i := range hot {
			hot[i] = vec.New(dims)
			for d := range hot[i] {
				hot[i][d] = math.Round(r.NormFloat64() * 60)
			}
		}
		for step := 0; step < 600; step++ {
			switch op := r.Intn(100); {
			case op < 2:
				plain.Reset()
				ref.clusters = nil
				windowedLive = false
			case op < 6:
				factor := 0.3 + 0.7*r.Float64()
				if err := plain.Decay(factor); err != nil {
					t.Fatal(err)
				}
				ref.decay(factor)
				windowedLive = false
			default:
				p := hot[r.Intn(len(hot))].Clone()
				if r.Intn(3) > 0 {
					for d := range p {
						p[d] += r.NormFloat64() * 3
					}
				}
				w := float64(r.Intn(5))
				if err := plain.Observe(p, w); err != nil {
					t.Fatal(err)
				}
				ref.observe(p, w)
				if windowedLive {
					if err := windowed.Observe(p, w); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !sameBits(plain.Clusters(), ref.clusters) {
				t.Fatalf("seed %d step %d: summarizer diverged from reference:\n%+v\n%+v", seed, step, plain.Clusters(), ref.clusters)
			}
			checkTable(t, step, &plain.cent, plain.clusters)
			if windowedLive {
				if !sameBits(windowed.Clusters(), ref.clusters) {
					t.Fatalf("seed %d step %d: windowed summarizer diverged from reference", seed, step)
				}
				tracked := make([]Micro, len(windowed.clusters))
				for i := range tracked {
					tracked[i] = windowed.clusters[i].Micro
				}
				checkTable(t, step, &windowed.cent, tracked)
			}
		}
	}
}

// TestWindowedObserveAbsorbAllocs pins that the windowed summarizer's
// per-observation path — scan, absorb — allocates nothing; only opening
// a cluster (and the lineage union of a merge) may.
func TestWindowedObserveAbsorbAllocs(t *testing.T) {
	w, err := NewWindowedSummarizer(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := []vec.Vec{vec.Vec{0, 0, 0}, vec.Vec{90, 0, 0}, vec.Vec{0, 90, 0}, vec.Vec{0, 0, 90}}
	for _, p := range pts {
		if err := w.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Observe(pts[i%len(pts)], 1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 || w.Len() != len(pts) {
		t.Fatalf("absorbing Observe allocates %.1f/op over %d clusters, want 0 over %d", allocs, w.Len(), len(pts))
	}
}
