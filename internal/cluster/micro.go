// Package cluster implements the paper's two-phase online clustering: the
// per-replica micro-cluster summaries (§III-B) and the weighted k-means
// macro-clustering a coordinator runs over collected summaries (§III-C).
// It also provides plain (offline) k-means as the high-overhead baseline
// the evaluation compares against.
package cluster

import (
	"fmt"
	"math"

	"github.com/georep/georep/internal/vec"
)

// Micro is a micro-cluster feature vector. Per the paper, exactly four
// quantities are maintained: the number of accesses, the overall data
// weight exchanged, the per-dimension coordinate sum, and the
// per-dimension sum of squares. Centroid and standard deviation are
// derived, never stored.
type Micro struct {
	// Count is the number of data accesses folded into the cluster.
	Count int64
	// Weight is the overall amount of data exchanged with the users in
	// the cluster (bytes, requests, or any caller-defined mass).
	Weight float64
	// Sum is the per-dimension sum of observed coordinates.
	Sum vec.Vec
	// Sum2 is the per-dimension sum of squared coordinates.
	Sum2 vec.Vec
}

// NewMicro returns an empty micro-cluster of the given dimensionality.
func NewMicro(dims int) Micro {
	return Micro{Sum: vec.New(dims), Sum2: vec.New(dims)}
}

// Dims returns the dimensionality of the cluster.
func (m *Micro) Dims() int { return m.Sum.Dim() }

// Centroid returns Sum/Count, the cluster's center of mass. An empty
// cluster yields the origin.
func (m *Micro) Centroid() vec.Vec {
	if m.Count == 0 {
		return vec.New(m.Dims())
	}
	// Divide per component rather than scaling by a reciprocal: n copies
	// of x must yield exactly x, or duplicate points spuriously fall
	// outside their own cluster's zero radius.
	out := vec.New(m.Dims())
	n := float64(m.Count)
	for d := range out {
		out[d] = m.Sum[d] / n
	}
	return out
}

// CentroidInto writes the centroid into dst (which must have the
// micro's dimensionality) without allocating — the epoch-scratch
// variant of Centroid, with identical arithmetic.
func (m *Micro) CentroidInto(dst vec.Vec) {
	if m.Count == 0 {
		for d := range dst {
			dst[d] = 0
		}
		return
	}
	n := float64(m.Count)
	for d := range dst {
		dst[d] = m.Sum[d] / n
	}
}

// StdDev returns the root-mean-square deviation of member points from the
// centroid, computed with the paper's identity Var[X] = E[X²] − E[X]²
// summed over dimensions. Negative per-dimension variances from
// floating-point cancellation are clamped to zero.
func (m *Micro) StdDev() float64 {
	if m.Count == 0 {
		return 0
	}
	n := float64(m.Count)
	var total float64
	for d := 0; d < m.Dims(); d++ {
		mean := m.Sum[d] / n
		v := m.Sum2[d]/n - mean*mean
		if v > 0 {
			total += v
		}
	}
	return math.Sqrt(total)
}

// Absorb folds one observation at point p with the given weight into the
// cluster.
func (m *Micro) Absorb(p vec.Vec, weight float64) {
	if m.Count == 0 && m.Sum.Dim() == 0 {
		m.Sum = vec.New(p.Dim())
		m.Sum2 = vec.New(p.Dim())
	}
	m.Count++
	m.Weight += weight
	for d := range p {
		m.Sum[d] += p[d]
		m.Sum2[d] += p[d] * p[d]
	}
}

// centroidDist2 returns the squared distance between two clusters'
// centroids without allocating. Empty clusters sit at the origin.
func centroidDist2(a, b *Micro) float64 {
	na, nb := float64(a.Count), float64(b.Count)
	var s float64
	for d := range a.Sum {
		var ca, cb float64
		if a.Count != 0 {
			ca = a.Sum[d] / na
		}
		if b.Count != 0 {
			cb = b.Sum[d] / nb
		}
		diff := ca - cb
		s += diff * diff
	}
	return s
}

// absorbMicro folds b into a in place (a ← a ∪ b) without allocating.
// Feature vectors are additive, which is what makes micro-clusters
// mergeable in O(d).
func absorbMicro(a, b *Micro) {
	a.Count += b.Count
	a.Weight += b.Weight
	a.Sum.AddInPlace(b.Sum)
	a.Sum2.AddInPlace(b.Sum2)
}

// clear zeroes the cluster for reuse, keeping its vector storage.
func (m *Micro) clear() {
	m.Count = 0
	m.Weight = 0
	for d := range m.Sum {
		m.Sum[d] = 0
		m.Sum2[d] = 0
	}
}

// Clone returns an independent copy of the cluster.
func (m Micro) Clone() Micro {
	return Micro{Count: m.Count, Weight: m.Weight, Sum: m.Sum.Clone(), Sum2: m.Sum2.Clone()}
}

// CloneInto copies m into dst, reusing dst's vector backing when the
// dimensions match — the per-epoch export path clones every micro of
// every summary, so coordinators recycle the previous epoch's storage
// instead of re-allocating it.
func (m *Micro) CloneInto(dst *Micro) {
	dst.Count, dst.Weight = m.Count, m.Weight
	dst.Sum = copyVec(dst.Sum, m.Sum)
	dst.Sum2 = copyVec(dst.Sum2, m.Sum2)
}

// copyVec copies src into dst, reallocating only on dimension mismatch.
func copyVec(dst, src vec.Vec) vec.Vec {
	if len(dst) != len(src) {
		dst = vec.New(len(src))
	}
	copy(dst, src)
	return dst
}

// Summarizer maintains at most maxClusters micro-clusters over a stream
// of coordinate observations — the state each replica server keeps
// (paper symbol m). It is not safe for concurrent use; replica servers
// own one summarizer each.
type Summarizer struct {
	maxClusters int
	dims        int
	clusters    []Micro
	// cent caches the clusters' centroids, row i for clusters[i]; every
	// mutation of a cluster refreshes its row (see centroidTable).
	cent centroidTable
	// spare is a free list of retired Micro buffers, sized by what has
	// actually been retired (like the centroid table, not reserved up
	// front). Once the summarizer has been at capacity, every new cluster
	// is preceded by a merge that retires one, so the steady-state ingest
	// path never allocates.
	spare []Micro
}

// NewSummarizer returns a summarizer holding at most maxClusters
// micro-clusters of the given dimensionality.
func NewSummarizer(maxClusters, dims int) (*Summarizer, error) {
	if maxClusters <= 0 {
		return nil, fmt.Errorf("cluster: maxClusters must be positive, got %d", maxClusters)
	}
	if dims <= 0 {
		return nil, fmt.Errorf("cluster: dims must be positive, got %d", dims)
	}
	s := &Summarizer{
		maxClusters: maxClusters,
		dims:        dims,
		cent:        centroidTable{dims: dims},
	}
	return s, nil
}

// growClusters returns clusters with room for one more element. The
// slice grows on demand rather than being reserved at the budget: a
// fleet holds tens of thousands of summarizers, most with a handful of
// clusters. Capacity doubles and stops at maxClusters+1 — Observe
// appends the over-budget cluster before merging, so the slice never
// needs more — and once there the ingest path never reallocates.
func growClusters[T any](clusters []T, maxClusters int) []T {
	if len(clusters) < cap(clusters) {
		return clusters
	}
	n := min(max(2*cap(clusters), 1), maxClusters+1)
	grown := make([]T, len(clusters), n)
	copy(grown, clusters)
	return grown
}

// validWeight reports whether w may enter a summary. A NaN or infinite
// weight would survive every Decay in Micro.Weight and reach the
// coordinator's k-means, so it is refused at the door like a negative one.
func validWeight(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

func weightError(w float64) error {
	if w < 0 {
		return fmt.Errorf("cluster: negative weight %v", w)
	}
	return fmt.Errorf("cluster: non-finite weight %v", w)
}

// Observe folds one client access at coordinate p with the given weight
// into the summary, following §III-B: absorb into the nearest cluster if
// the point is within its standard deviation, otherwise open a new
// cluster and, if over capacity, merge the two closest clusters.
func (s *Summarizer) Observe(p vec.Vec, weight float64) error {
	if p.Dim() != s.dims {
		return fmt.Errorf("cluster: observation dims %d, summarizer dims %d", p.Dim(), s.dims)
	}
	if !p.IsFinite() {
		return fmt.Errorf("cluster: non-finite observation %v", p)
	}
	if !validWeight(weight) {
		return weightError(weight)
	}

	if len(s.clusters) > 0 {
		best, bestD2 := s.cent.nearest(len(s.clusters), p)
		if math.Sqrt(bestD2) <= s.clusters[best].StdDev() {
			s.clusters[best].Absorb(p, weight)
			s.cent.set(best, &s.clusters[best])
			return nil
		}
	}

	fresh := s.takeMicro()
	fresh.Absorb(p, weight)
	s.clusters = append(growClusters(s.clusters, s.maxClusters), fresh)
	s.cent.set(len(s.clusters)-1, &fresh)
	if len(s.clusters) > s.maxClusters {
		s.mergeClosestPair()
	}
	return nil
}

// takeMicro returns an empty micro-cluster, reusing a retired buffer when
// one is available so the at-capacity ingest path is allocation-free.
func (s *Summarizer) takeMicro() Micro {
	if n := len(s.spare); n > 0 {
		m := s.spare[n-1]
		s.spare[n-1] = Micro{}
		s.spare = s.spare[:n-1]
		m.clear()
		return m
	}
	return NewMicro(s.dims)
}

// retireMicro hands a micro-cluster's buffers back to the free list.
func (s *Summarizer) retireMicro(m Micro) {
	if m.Sum == nil {
		return
	}
	s.spare = append(s.spare, m)
}

// mergeClosestPair merges the two clusters with the closest centroids,
// retiring the vacated buffers to the free list.
func (s *Summarizer) mergeClosestPair() {
	if len(s.clusters) < 2 {
		return
	}
	bi, bj := s.cent.closestPair(len(s.clusters))
	absorbMicro(&s.clusters[bi], &s.clusters[bj])
	s.cent.set(bi, &s.clusters[bi])
	s.retireMicro(s.clusters[bj])
	last := len(s.clusters) - 1
	s.clusters[bj] = s.clusters[last]
	s.cent.move(bj, last)
	s.clusters[last] = Micro{}
	s.clusters = s.clusters[:last]
}

// Clusters returns an independent copy of the current micro-clusters.
func (s *Summarizer) Clusters() []Micro {
	return s.ClustersInto(nil)
}

// ClustersInto is Clusters copying into dst's backing where possible:
// element structs and their vectors are reused when dimensions match, so
// a caller exporting every epoch re-allocates nothing in steady state.
func (s *Summarizer) ClustersInto(dst []Micro) []Micro {
	n := len(s.clusters)
	if cap(dst) < n {
		grown := make([]Micro, n)
		// Carry the old elements forward: their vector backing is what
		// CloneInto reuses.
		copy(grown, dst[:cap(dst)])
		dst = grown
	} else {
		dst = dst[:n]
	}
	for i := range s.clusters {
		s.clusters[i].CloneInto(&dst[i])
	}
	return dst
}

// Len returns the current number of micro-clusters.
func (s *Summarizer) Len() int { return len(s.clusters) }

// Decay scales every cluster's mass by factor in (0, 1], exponentially
// aging out old accesses so the summary tracks *recent* usage as the
// paper requires. Clusters whose count rounds to zero are dropped. This
// is called by the replica manager between placement epochs.
func (s *Summarizer) Decay(factor float64) error {
	if !(factor > 0 && factor <= 1) { // NaN fails both comparisons
		return fmt.Errorf("cluster: decay factor %v out of (0,1]", factor)
	}
	kept := s.clusters[:0]
	for i := range s.clusters {
		c := &s.clusters[i]
		newCount := int64(math.Round(float64(c.Count) * factor))
		if newCount <= 0 {
			s.retireMicro(*c)
			continue
		}
		// Scale Sum/Sum2 by the realized count ratio, not the nominal
		// factor, so the centroid and deviation are exactly preserved
		// despite integer rounding of Count.
		ratio := float64(newCount) / float64(c.Count)
		c.Count = newCount
		c.Weight *= factor
		c.Sum.ScaleInPlace(ratio)
		c.Sum2.ScaleInPlace(ratio)
		kept = append(kept, *c)
		s.cent.set(len(kept)-1, c)
	}
	// Zero the trimmed tail so retired buffers are only reachable via the
	// free list.
	for i := len(kept); i < len(s.clusters); i++ {
		s.clusters[i] = Micro{}
	}
	s.clusters = kept
	return nil
}

// Reset discards all state, keeping the configuration. Cluster buffers
// are retained on the free list for reuse.
func (s *Summarizer) Reset() {
	for i := range s.clusters {
		s.retireMicro(s.clusters[i])
		s.clusters[i] = Micro{}
	}
	s.clusters = s.clusters[:0]
}
