package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/vec"
)

func TestMicroCentroidAndStdDev(t *testing.T) {
	m := NewMicro(2)
	m.Absorb(vec.Vec{0, 0}, 1)
	m.Absorb(vec.Vec{2, 0}, 1)
	m.Absorb(vec.Vec{0, 2}, 1)
	m.Absorb(vec.Vec{2, 2}, 1)
	c := m.Centroid()
	if !c.Equal(vec.Vec{1, 1}) {
		t.Errorf("centroid = %v, want (1,1)", c)
	}
	// Each dim has variance 1, so RMS deviation = sqrt(2).
	if got := m.StdDev(); math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("stddev = %v, want sqrt(2)", got)
	}
	if m.Count != 4 || m.Weight != 4 {
		t.Errorf("count=%d weight=%v", m.Count, m.Weight)
	}
}

func TestMicroEmpty(t *testing.T) {
	m := NewMicro(3)
	if !m.Centroid().IsZero() {
		t.Error("empty centroid should be origin")
	}
	if m.StdDev() != 0 {
		t.Error("empty stddev should be 0")
	}
}

func TestMicroAbsorbLazyInit(t *testing.T) {
	var m Micro // zero value, no dims yet
	m.Absorb(vec.Vec{1, 2, 3}, 5)
	if m.Dims() != 3 || m.Count != 1 || m.Weight != 5 {
		t.Errorf("lazy init failed: %+v", m)
	}
}

func TestMergeMicroAdditive(t *testing.T) {
	a := NewMicro(2)
	a.Absorb(vec.Vec{0, 0}, 1)
	a.Absorb(vec.Vec{2, 2}, 1)
	b := NewMicro(2)
	b.Absorb(vec.Vec{4, 4}, 3)

	absorbMicro(&a, &b)
	if a.Count != 3 || a.Weight != 5 {
		t.Errorf("merged count=%d weight=%v", a.Count, a.Weight)
	}
	want := vec.Vec{2, 2} // (0+2+4)/3
	if !a.Centroid().Equal(want) {
		t.Errorf("merged centroid = %v, want %v", a.Centroid(), want)
	}
}

func TestMicroCloneIndependent(t *testing.T) {
	a := NewMicro(2)
	a.Absorb(vec.Vec{1, 1}, 1)
	c := a.Clone()
	c.Absorb(vec.Vec{9, 9}, 1)
	if a.Count != 1 {
		t.Error("clone aliases original")
	}
}

func TestNewSummarizerValidation(t *testing.T) {
	if _, err := NewSummarizer(0, 2); err == nil {
		t.Error("maxClusters=0 should fail")
	}
	if _, err := NewSummarizer(4, 0); err == nil {
		t.Error("dims=0 should fail")
	}
}

func TestSummarizerObserveValidation(t *testing.T) {
	s, err := NewSummarizer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(vec.Vec{1, 2, 3}, 1); err == nil {
		t.Error("dim mismatch should fail")
	}
	if err := s.Observe(vec.Vec{math.NaN(), 0}, 1); err == nil {
		t.Error("NaN observation should fail")
	}
	if err := s.Observe(vec.Vec{1, 2}, -1); err == nil {
		t.Error("negative weight should fail")
	}
	// A NaN or infinite weight would sit in Micro.Weight through every
	// Decay and reach the coordinator's k-means.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Observe(vec.Vec{1, 2}, w); err == nil {
			t.Errorf("weight %v should fail", w)
		}
	}
	if n := len(s.Clusters()); n != 0 {
		t.Errorf("refused observations left %d clusters", n)
	}
}

func TestSummarizerCapRespected(t *testing.T) {
	s, err := NewSummarizer(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := vec.Vec{r.Float64() * 200, r.Float64() * 200}
		if err := s.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 5 {
			t.Fatalf("cluster count %d exceeds cap 5", s.Len())
		}
	}
	// Mass conservation: every observation is in some cluster.
	var count int64
	var w float64
	for _, c := range s.Clusters() {
		count += c.Count
		w += c.Weight
	}
	if count != 1000 {
		t.Errorf("total count %d, want 1000", count)
	}
	if w != 1000 {
		t.Errorf("total weight %v, want 1000", w)
	}
}

func TestSummarizerFindsSeparatedGroups(t *testing.T) {
	s, err := NewSummarizer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	centers := []vec.Vec{vec.Vec{0, 0}, vec.Vec{100, 0}, vec.Vec{0, 100}}
	for i := 0; i < 600; i++ {
		c := centers[i%3]
		p := vec.Vec{c[0] + r.NormFloat64(), c[1] + r.NormFloat64()}
		if err := s.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Every true center should be within a few units of some
	// micro-cluster centroid.
	for _, center := range centers {
		bestD := math.Inf(1)
		for _, mc := range s.Clusters() {
			if d := mc.Centroid().Dist(center); d < bestD {
				bestD = d
			}
		}
		if bestD > 10 {
			t.Errorf("no micro-cluster near %v (best %v)", center, bestD)
		}
	}
}

func TestSummarizerClustersAreCopies(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	if err := s.Observe(vec.Vec{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	cs := s.Clusters()
	cs[0].Sum[0] = 999
	if s.Clusters()[0].Sum[0] == 999 {
		t.Error("Clusters returned aliased state")
	}
}

func TestSummarizerDecay(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	for i := 0; i < 100; i++ {
		if err := s.Observe(vec.Vec{5, 5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Clusters()[0]
	if err := s.Decay(0.5); err != nil {
		t.Fatal(err)
	}
	after := s.Clusters()[0]
	if after.Count != 50 {
		t.Errorf("decayed count = %d, want 50", after.Count)
	}
	if math.Abs(after.Weight-before.Weight/2) > 1e-9 {
		t.Errorf("decayed weight = %v", after.Weight)
	}
	if !after.Centroid().Equal(before.Centroid()) {
		t.Errorf("decay moved centroid: %v -> %v", before.Centroid(), after.Centroid())
	}

	// Decay to extinction drops clusters entirely.
	for i := 0; i < 20; i++ {
		if err := s.Decay(0.01); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("clusters should age out, have %d", s.Len())
	}

	if err := s.Decay(0); err == nil {
		t.Error("factor 0 should fail")
	}
	if err := s.Decay(1.5); err == nil {
		t.Error("factor > 1 should fail")
	}
}

// TestSummarizerDecayRefusesBadFactors: a factor outside (0,1] — NaN
// and the infinities included — is an error that leaves every cluster
// as it was. A NaN once passed the range check and emptied the summary.
func TestSummarizerDecayRefusesBadFactors(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	for i, p := range []vec.Vec{{0, 0}, {10, 0}, {0, 10}, {10, 10}} {
		if err := s.Observe(p, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Clusters()
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5, 1.5} {
		if err := s.Decay(f); err == nil {
			t.Errorf("Decay(%v) succeeded", f)
		}
		if got := s.Clusters(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Decay(%v) changed the clusters:\n got %+v\nwant %+v", f, got, want)
		}
	}
}

func TestSummarizerReset(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	if err := s.Observe(vec.Vec{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Error("reset did not clear state")
	}
}

func TestSummarizerSingleClusterAbsorbsDuplicates(t *testing.T) {
	// The paper's absorption rule: a repeat of the exact same
	// point is at distance 0 <= stddev 0, so it must absorb, not churn.
	s, _ := NewSummarizer(3, 2)
	for i := 0; i < 10; i++ {
		if err := s.Observe(vec.Vec{7, 7}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Errorf("identical points should form one cluster, got %d", s.Len())
	}
}

func TestEncodeDecodeMicros(t *testing.T) {
	s, _ := NewSummarizer(8, 3)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if err := s.Observe(vec.Vec{r.Float64() * 100, r.Float64() * 100, r.Float64() * 10}, r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	ms := s.Clusters()
	b, err := EncodeMicros(ms)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMicros(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ms) {
		t.Fatalf("decoded %d clusters, want %d", len(back), len(ms))
	}
	for i := range ms {
		if back[i].Count != ms[i].Count || !back[i].Sum.Equal(ms[i].Sum) {
			t.Fatalf("cluster %d mismatch", i)
		}
	}
	// The paper's size claim: each micro-cluster serializes well under 1KB.
	if perCluster := len(b) / len(ms); perCluster > 1024 {
		t.Errorf("micro-cluster wire size %dB exceeds the paper's 1KB bound", perCluster)
	}
}

func TestDecodeMicrosRejectsCorrupt(t *testing.T) {
	if _, err := DecodeMicros([]byte("not gob")); err == nil {
		t.Error("corrupt bytes should fail")
	}
	bad := []Micro{{Count: -1, Sum: vec.New(2), Sum2: vec.New(2)}}
	b, err := EncodeMicros(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMicros(b); err == nil {
		t.Error("negative count should fail validation")
	}
	inconsistent := []Micro{{Count: 1, Sum: vec.New(2), Sum2: vec.New(3)}}
	b, err = EncodeMicros(inconsistent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMicros(b); err == nil {
		t.Error("dim mismatch should fail validation")
	}
	for name, m := range map[string]Micro{
		"NaN weight":  {Count: 1, Weight: math.NaN(), Sum: vec.New(2), Sum2: vec.New(2)},
		"+Inf weight": {Count: 1, Weight: math.Inf(1), Sum: vec.New(2), Sum2: vec.New(2)},
		"NaN sum":     {Count: 1, Weight: 1, Sum: vec.Vec{math.NaN(), 0}, Sum2: vec.New(2)},
		"Inf sum2":    {Count: 1, Weight: 1, Sum: vec.New(2), Sum2: vec.Vec{0, math.Inf(-1)}},
	} {
		b, err := EncodeMicros([]Micro{m})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeMicros(b); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: err = %v, want a non-finite refusal", name, err)
		}
	}
}

// The headline scalability property behind Table II: the summary's wire
// size is bounded by m regardless of how many accesses were folded in,
// while raw coordinates grow linearly.
func TestOnlineSummaryBandwidthBounded(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sizes := make([]int, 0, 3)
	for _, n := range []int{100, 1000, 10000} {
		s, _ := NewSummarizer(10, 3)
		var raw []vec.Vec
		for i := 0; i < n; i++ {
			p := vec.Vec{r.Float64() * 100, r.Float64() * 100, r.Float64() * 5}
			if err := s.Observe(p, 1); err != nil {
				t.Fatal(err)
			}
			raw = append(raw, p)
		}
		enc, err := EncodeMicros(s.Clusters())
		if err != nil {
			t.Fatal(err)
		}
		rawEnc, err := EncodeCoordinates(raw)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(enc))
		if n >= 1000 && len(enc)*10 > len(rawEnc) {
			t.Errorf("n=%d: summary %dB not ≪ raw %dB", n, len(enc), len(rawEnc))
		}
	}
	// Summary size must not grow with n.
	if sizes[2] > sizes[0]*2 {
		t.Errorf("summary size grew with n: %v", sizes)
	}
}

// Property: mass (count and weight) is conserved by observe/merge across
// arbitrary streams, and stddev stays finite and non-negative.
func TestQuickSummarizerMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxC := 1 + r.Intn(10)
		s, err := NewSummarizer(maxC, 2)
		if err != nil {
			return false
		}
		n := 1 + r.Intn(300)
		var wantW float64
		for i := 0; i < n; i++ {
			w := r.Float64() * 3
			wantW += w
			p := vec.Vec{r.NormFloat64() * 50, r.NormFloat64() * 50}
			if s.Observe(p, w) != nil {
				return false
			}
		}
		var count int64
		var gotW float64
		for _, c := range s.Clusters() {
			if sd := c.StdDev(); sd < 0 || math.IsNaN(sd) || math.IsInf(sd, 0) {
				return false
			}
			count += c.Count
			gotW += c.Weight
		}
		return count == int64(n) && math.Abs(gotW-wantW) < 1e-6 && s.Len() <= maxC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: merging preserves the exact feature-vector sums, so a merged
// cluster's centroid is the weighted centroid of its parents.
func TestQuickMergePreservesMoments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewMicro(3), NewMicro(3)
		for i := 0; i < 1+r.Intn(20); i++ {
			a.Absorb(vec.Vec{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, 1)
		}
		for i := 0; i < 1+r.Intn(20); i++ {
			b.Absorb(vec.Vec{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, 1)
		}
		wantSum, wantSum2 := a.Sum.Clone(), a.Sum2.Clone()
		wantSum.AddInPlace(b.Sum)
		wantSum2.AddInPlace(b.Sum2)
		wantCount := a.Count + b.Count
		absorbMicro(&a, &b)
		return a.Sum.Equal(wantSum) && a.Sum2.Equal(wantSum2) && a.Count == wantCount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
