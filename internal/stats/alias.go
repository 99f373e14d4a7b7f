package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Alias draws integers in [0, n) proportionally to a weight vector in
// O(1) per draw using Walker's alias method. Unlike the CDF-based Zipf
// sampler, draws cost two uniform variates and two array reads
// regardless of n, and Reweight rebuilds the tables in place with zero
// allocations — which is what lets the streaming workload generator
// shift millions of client weights every epoch without touching the
// allocator.
type Alias struct {
	prob  []float64
	alias []int
	// scratch reused by Reweight so rebuilds are allocation-free.
	norm  []float64
	small []int
	large []int
}

// NewAlias builds a sampler over the given weights. Weights must be
// finite, non-negative, and not all zero.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("stats: alias needs at least one weight")
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
		norm:  make([]float64, n),
		small: make([]int, 0, n),
		large: make([]int, 0, n),
	}
	if err := a.Reweight(weights); err != nil {
		return nil, err
	}
	return a, nil
}

// Reweight rebuilds the alias tables for a new weight vector of the same
// length. It allocates nothing, so per-epoch activity shifts are free of
// GC pressure. Weights must be finite, non-negative, and not all zero.
func (a *Alias) Reweight(weights []float64) error {
	n := len(weights)
	if n != len(a.prob) {
		return fmt.Errorf("stats: alias built for %d items, got %d weights", len(a.prob), n)
	}
	var total float64
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("stats: alias weight[%d] = %v must be finite and non-negative", i, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("stats: alias weights sum to %v, need > 0", total)
	}

	// Walker's construction: scale weights to mean 1, then pair each
	// under-full cell with an over-full donor.
	scale := float64(n) / total
	a.small = a.small[:0]
	a.large = a.large[:0]
	for i, w := range weights {
		a.norm[i] = w * scale
		if a.norm[i] < 1 {
			a.small = append(a.small, i)
		} else {
			a.large = append(a.large, i)
		}
	}
	for len(a.small) > 0 && len(a.large) > 0 {
		s := a.small[len(a.small)-1]
		a.small = a.small[:len(a.small)-1]
		l := a.large[len(a.large)-1]
		a.prob[s] = a.norm[s]
		a.alias[s] = l
		a.norm[l] -= 1 - a.norm[s]
		if a.norm[l] < 1 {
			a.large = a.large[:len(a.large)-1]
			a.small = append(a.small, l)
		}
	}
	// Leftovers are exactly full up to rounding.
	for _, i := range a.large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range a.small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return nil
}

// Draw samples one index using r in O(1).
func (a *Alias) Draw(r *rand.Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
