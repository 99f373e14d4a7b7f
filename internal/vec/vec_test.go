package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestOfAndClone(t *testing.T) {
	v := Vec{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases the original: v=%v", v)
	}
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
}

func TestAddSub(t *testing.T) {
	a := Vec{1, 2}
	b := Vec{3, -4}
	if got := a.Sub(b); !got.Equal(Vec{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	// Originals untouched.
	if !a.Equal(Vec{1, 2}) || !b.Equal(Vec{3, -4}) {
		t.Errorf("inputs mutated: a=%v b=%v", a, b)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Vec{1, 2}
	a.AddInPlace(Vec{1, 1})
	if !a.Equal(Vec{2, 3}) {
		t.Errorf("AddInPlace = %v", a)
	}
	a.SubInPlace(Vec{2, 2})
	if !a.Equal(Vec{0, 1}) {
		t.Errorf("SubInPlace = %v", a)
	}
	a.ScaleInPlace(5)
	if !a.Equal(Vec{0, 5}) {
		t.Errorf("ScaleInPlace = %v", a)
	}
	a.AddScaled(2, Vec{1, 1})
	if !a.Equal(Vec{2, 7}) {
		t.Errorf("AddScaled = %v", a)
	}
}

func TestDotNormDist(t *testing.T) {
	a := Vec{3, 4}
	if got := a.Norm(); !almostEqual(got, 5) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.Dot(Vec{1, 1}); !almostEqual(got, 7) {
		t.Errorf("Dot = %v, want 7", got)
	}
	if got := a.Dist(Vec{0, 0}); !almostEqual(got, 5) {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(Vec{0, 0}); !almostEqual(got, 25) {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestUnit(t *testing.T) {
	u := Vec{0, 3}.Unit()
	if !almostEqual(u.Norm(), 1) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	z := New(2).Unit()
	if !z.IsZero() {
		t.Errorf("Unit of zero vector = %v, want zero", z)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec{math.NaN(), 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec{math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestMean(t *testing.T) {
	m := Mean([]Vec{Vec{0, 0}, Vec{2, 4}})
	if !m.Equal(Vec{1, 2}) {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != nil {
		t.Error("Mean(nil) should be nil")
	}
}

func TestWeightedMean(t *testing.T) {
	m := WeightedMean([]Vec{Vec{0, 0}, Vec{10, 10}}, []float64{1, 3})
	if !almostEqual(m[0], 7.5) || !almostEqual(m[1], 7.5) {
		t.Errorf("WeightedMean = %v, want (7.5,7.5)", m)
	}
	// All-zero weights degrade to the plain mean.
	m = WeightedMean([]Vec{Vec{0, 0}, Vec{4, 4}}, []float64{0, 0})
	if !almostEqual(m[0], 2) {
		t.Errorf("WeightedMean zero weights = %v, want (2,2)", m)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub with mismatched dims should panic")
		}
	}()
	Vec{1}.Sub(Vec{1, 2})
}

func TestWeightedMeanMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedMean with mismatched lengths should panic")
		}
	}()
	WeightedMean([]Vec{Vec{1}}, []float64{1, 2})
}

func randomVec(r *rand.Rand, d int) Vec {
	v := New(d)
	for i := range v {
		v[i] = r.NormFloat64() * 100
	}
	return v
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestQuickMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(6)
		a, b, c := randomVec(r, d), randomVec(r, d), randomVec(r, d)
		if !almostEqual(a.Dist(b), b.Dist(a)) {
			return false
		}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			return false
		}
		return a.Dist(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddInPlace and Sub are inverses, Dist2 == Dist².
func TestQuickAddSubInverse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		d := 1 + int(seed%5+5)%5
		a, b := randomVec(r, d), randomVec(r, d)
		sum := a.Clone()
		sum.AddInPlace(b)
		back := sum.Sub(b)
		for i := range a {
			if !almostEqual(back[i], a[i]) {
				return false
			}
		}
		dd := a.Dist(b)
		return almostEqual(dd*dd, a.Dist2(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the mean minimizes the sum of squared distances among the
// sampled candidate points (the defining property k-means relies on).
func TestQuickMeanMinimizesSSQ(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ssq := func(c Vec, pts []Vec) float64 {
		var s float64
		for _, p := range pts {
			s += c.Dist2(p)
		}
		return s
	}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(8)
		pts := make([]Vec, n)
		for i := range pts {
			pts[i] = randomVec(r, 3)
		}
		m := Mean(pts)
		best := ssq(m, pts)
		for trial := 0; trial < 20; trial++ {
			cand := m.Clone()
			cand.AddScaled(0.05, randomVec(rr, 3))
			if ssq(cand, pts) < best-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBlockViewsAreContiguousAndIndependent(t *testing.T) {
	views := Block(3, 2)
	if len(views) != 3 {
		t.Fatalf("Block(3,2) returned %d views", len(views))
	}
	for i, v := range views {
		if v.Dim() != 2 {
			t.Fatalf("view %d has dim %d, want 2", i, v.Dim())
		}
		v[0], v[1] = float64(i), float64(-i)
	}
	for i, v := range views {
		if v[0] != float64(i) || v[1] != float64(-i) {
			t.Fatalf("view %d corrupted: %v", i, v)
		}
	}
	// Appending to one view must not clobber the next (capacity capped).
	grown := append(views[0], 99)
	_ = grown
	if views[1][0] != 1 {
		t.Fatalf("append through view 0 clobbered view 1: %v", views[1])
	}
}

func TestCopyFrom(t *testing.T) {
	dst := New(3)
	src := Vec{1, 2, 3}
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom gave %v, want %v", dst, src)
	}
	src[0] = 42
	if dst[0] != 1 {
		t.Fatalf("CopyFrom aliased the source")
	}
}
