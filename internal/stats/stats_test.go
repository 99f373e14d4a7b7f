package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty reductions should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if m, err := Min(xs); err != nil || m != -1 {
		t.Errorf("Min = %v,%v", m, err)
	}
	if m, err := Max(xs); err != nil || m != 7 {
		t.Errorf("Max = %v,%v", m, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{50, 3},
		{100, 5},
		{25, 2},
		{90, 4.6},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty percentile err = %v", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("negative percentile should error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("percentile > 100 should error")
	}
	if got, err := Percentile([]float64{42}, 75); err != nil || got != 42 {
		t.Errorf("single-sample percentile = %v,%v", got, err)
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2); got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionBelow(nil, 2); got != 0 {
		t.Errorf("FractionBelow(nil) = %v", got)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var acc Accumulator
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()*10 + 50
		acc.Add(x)
		xs = append(xs, x)
	}
	if acc.N() != 1000 {
		t.Fatalf("N = %d", acc.N())
	}
	if math.Abs(acc.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("acc mean %v vs batch %v", acc.Mean(), Mean(xs))
	}
	if math.Abs(acc.Variance()-Variance(xs)) > 1e-6 {
		t.Errorf("acc var %v vs batch %v", acc.Variance(), Variance(xs))
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.Variance() != 0 || acc.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("negative exponent should error")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.cdf) != 100 {
		t.Fatalf("N = %d", len(z.cdf))
	}
	r := rand.New(rand.NewSource(11))
	counts := make([]int, 100)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Item 0 should receive a substantial share with s=1.2 over 100 items.
	if float64(counts[0])/draws < 0.1 {
		t.Errorf("head item share too small: %v", float64(counts[0])/draws)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[z.Draw(r)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d not ~10000", i, c)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	got := SampleWithoutReplacement(r, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Errorf("out of range: %d", v)
		}
		if seen[v] {
			t.Errorf("duplicate: %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k > n should panic")
		}
	}()
	SampleWithoutReplacement(rand.New(rand.NewSource(1)), 2, 3)
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		p0, _ := Percentile(xs, 0)
		p100, _ := Percentile(xs, 100)
		return p0 == lo && p100 == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the streaming accumulator variance is never negative even on
// adversarial near-constant streams (catastrophic cancellation guard).
func TestQuickAccumulatorVarianceNonNegative(t *testing.T) {
	f := func(base float64, seed int64) bool {
		// Clamp to a physical range: squaring values near MaxFloat64
		// overflows to +Inf, which is outside this accumulator's domain
		// (it tracks latencies in milliseconds).
		base = math.Mod(base, 1e9)
		r := rand.New(rand.NewSource(seed))
		var acc Accumulator
		for i := 0; i < 100; i++ {
			acc.Add(base + r.Float64()*1e-9)
		}
		return acc.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
