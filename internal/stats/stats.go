// Package stats provides the small set of descriptive statistics and
// deterministic random-sampling helpers the experiment harness needs:
// means, percentiles, a streaming accumulator, and a bounded Zipf
// sampler for object-popularity workloads.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by reductions over an empty sample set.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// FractionBelow returns the fraction of samples strictly at or below limit.
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Accumulator collects a stream of samples with O(1) memory. Its zero
// value is ready to use.
type Accumulator struct {
	n    int
	sum  float64
	sum2 float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
	a.sum2 += x * x
}

// N returns the number of samples recorded.
func (a *Accumulator) N() int { return a.n }

// Mean returns the mean of the recorded samples, or 0 when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Variance returns the population variance via E[X²]−E[X]² (the same
// identity the paper's micro-clusters rely on), clamped at zero to absorb
// floating-point cancellation.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := a.sum2/float64(a.n) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation of the samples.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Zipf draws integers in [0, n) with P(i) ∝ 1/(i+1)^s, the standard
// object-popularity skew. It precomputes the CDF so draws are O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0.
// s = 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: zipf needs n > 0, got %d", n)
	}
	if s < 0 {
		return nil, fmt.Errorf("stats: zipf exponent must be >= 0, got %v", s)
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}, nil
}

// Draw samples one index using r.
func (z *Zipf) Draw(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// SampleWithoutReplacement returns k distinct integers from [0, n),
// chosen uniformly, in random order. It panics if k > n because callers
// always validate sizes first.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("stats: sample %d from %d", k, n))
	}
	perm := r.Perm(n)
	return perm[:k]
}
