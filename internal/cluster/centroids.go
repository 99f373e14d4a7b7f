package cluster

import (
	"math"

	"github.com/georep/georep/internal/vec"
)

// centroidTable caches the centroids of a summarizer's clusters in one
// flat slice, row i holding cluster i's Sum[d]/Count (the origin for an
// empty cluster). The nearest-cluster and closest-pair scans run on
// every observation and every merge; reading the table spares them the
// per-cluster divides, and a row holds exactly the value the scans used
// to derive in place, so the comparisons — and the summaries — are
// bit-identical.
//
// Invariant: after every mutation of cluster i its owner calls set(i),
// and after a swap-remove it calls move. The table grows with the rows
// actually set rather than to the summarizer's budget up front: a fleet
// holds tens of thousands of summarizers, many far under budget.
//
// The scans rely on finite coordinates (Observe rejects anything else).
type centroidTable struct {
	dims int
	c    []float64 // c[i*dims+d]
}

// set refreshes row i from m, growing the table to hold it.
func (t *centroidTable) set(i int, m *Micro) {
	end := (i + 1) * t.dims
	if len(t.c) < end {
		t.c = append(t.c, make([]float64, end-len(t.c))...)
	}
	m.CentroidInto(t.c[end-t.dims : end])
}

// move copies row src over row dst (the table's half of a swap-remove).
func (t *centroidTable) move(dst, src int) {
	copy(t.c[dst*t.dims:(dst+1)*t.dims], t.c[src*t.dims:(src+1)*t.dims])
}

// nearest returns which of the first n rows is closest to p, and the
// squared distance to it; the first of equally close rows wins.
func (t *centroidTable) nearest(n int, p vec.Vec) (int, float64) {
	best, bestD2 := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		row := t.c[i*t.dims : (i+1)*t.dims]
		var s float64
		for d, pd := range p {
			diff := row[d] - pd
			s += diff * diff
		}
		if s < bestD2 {
			best, bestD2 = i, s
		}
	}
	return best, bestD2
}

// closestPair returns the pair i < j of the first n rows (n >= 2) with
// the smallest squared distance; the first such pair in (i, j) order
// wins.
func (t *centroidTable) closestPair(n int) (int, int) {
	bi, bj, bestD2 := 0, 1, math.Inf(1)
	for i := 0; i < n; i++ {
		a := t.c[i*t.dims : (i+1)*t.dims]
		for j := i + 1; j < n; j++ {
			b := t.c[j*t.dims : (j+1)*t.dims]
			var s float64
			for d, ad := range a {
				diff := ad - b[d]
				s += diff * diff
			}
			if s < bestD2 {
				bi, bj, bestD2 = i, j, s
			}
		}
	}
	return bi, bj
}
