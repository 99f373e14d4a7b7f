// Package vec provides small dense float64 vector math used by the
// network-coordinate and clustering packages. Vectors are plain slices;
// all binary operations require equal dimensions and panic otherwise,
// because a dimension mismatch is always a programming error inside this
// module, never a runtime condition.
package vec

import (
	"fmt"
	"math"
)

// Vec is a point or displacement in a d-dimensional Euclidean space.
type Vec []float64

// New returns a zero vector of dimension d.
func New(d int) Vec {
	return make(Vec, d)
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vec) Dim() int { return len(v) }

func checkDim(a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
}

// Sub returns a new vector v - w.
func (v Vec) Sub(w Vec) Vec {
	checkDim(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a new vector s·v.
func (v Vec) Scale(s float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// AddInPlace adds w into v without allocating.
func (v Vec) AddInPlace(w Vec) {
	checkDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace subtracts w from v without allocating.
func (v Vec) SubInPlace(w Vec) {
	checkDim(v, w)
	for i := range v {
		v[i] -= w[i]
	}
}

// ScaleInPlace multiplies v by s without allocating.
func (v Vec) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// AddScaled adds s·w into v without allocating (axpy).
func (v Vec) AddScaled(s float64, w Vec) {
	checkDim(v, w)
	for i := range v {
		v[i] += s * w[i]
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	checkDim(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 {
	checkDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dist2 returns the squared Euclidean distance between v and w. It avoids
// the square root on hot paths such as nearest-centroid searches.
func (v Vec) Dist2(w Vec) float64 {
	checkDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Unit returns v normalized to length 1. For a zero (or sub-epsilon)
// vector it returns the zero vector, letting callers substitute a random
// direction; Vivaldi does exactly that when two nodes share a position.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n < 1e-12 {
		return New(len(v))
	}
	return v.Scale(1 / n)
}

// IsZero reports whether every component of v is exactly zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component of v is finite (no NaN/Inf).
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have identical dimension and components.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// CopyFrom overwrites v with the components of w without allocating.
func (v Vec) CopyFrom(w Vec) {
	checkDim(v, w)
	copy(v, w)
}

// Block allocates k vectors of dimension d backed by one contiguous
// float64 slab and returns the views. Iterating the views in order walks
// memory linearly, which is why hot centroid arrays (k-means) use it
// instead of k separate allocations. Each view is capacity-capped so an
// append on one cannot clobber its neighbor.
func Block(k, d int) []Vec {
	flat := make([]float64, k*d)
	views := make([]Vec, k)
	for i := range views {
		views[i] = Vec(flat[i*d : (i+1)*d : (i+1)*d])
	}
	return views
}

// Mean returns the arithmetic mean of the given vectors. All vectors must
// share a dimension; an empty input returns nil.
func Mean(vs []Vec) Vec {
	if len(vs) == 0 {
		return nil
	}
	m := New(vs[0].Dim())
	for _, v := range vs {
		m.AddInPlace(v)
	}
	m.ScaleInPlace(1 / float64(len(vs)))
	return m
}

// WeightedMean returns the weighted mean of the given vectors. Weights must
// be non-negative and not all zero; otherwise the plain mean is returned.
func WeightedMean(vs []Vec, ws []float64) Vec {
	if len(vs) == 0 {
		return nil
	}
	if len(vs) != len(ws) {
		panic(fmt.Sprintf("vec: %d vectors but %d weights", len(vs), len(ws)))
	}
	var total float64
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		return Mean(vs)
	}
	m := New(vs[0].Dim())
	for i, v := range vs {
		m.AddScaled(ws[i]/total, v)
	}
	return m
}
