package placement

import (
	"math"
	"slices"
)

// exactSearch is the exact k-subset search every additive objective in
// the tree runs on: choose k of n candidates so that the summed cost of
// nm points, each served by its cheapest chosen candidate, is minimal.
// It has three callers — Service.refine (micro-clusters weighted by
// demand, incumbent seeded from the k-means proposal and the bound
// cache), Optimal.Place (clients at unit weight, true RTTs) and the
// audit's per-epoch optimum through ExactSubset.
//
// The working set, reused across calls so a steady-state solve
// allocates nothing:
//
//	wd[c*nm+i]  = w_i·d_ic, point i's weight times its delay to
//	              candidate c;
//	suf[c*nm+i] = min over c' >= c of wd[c'*nm+i], the best any
//	              still-choosable candidate could offer point i;
//	cur[t*nm+i] = point i's weighted delay under the first t picks
//	              (row 0 is +Inf).
//
// Everything is candidate-major, so extending a partial cover by one
// candidate reads three contiguous rows. Weighting the delays up front
// is exact — rounding is monotone, so min(w·a, w·b) == w·min(a, b) for
// w >= 0 — which makes every total bit-identical to weighting after the
// minimum, and removes the multiply from the search.
//
// Input contract: every wd entry is non-negative or +Inf, never NaN —
// a NaN would break the pre-weighting identity, a negative term the
// early exit on partial sums. The search does not look; whoever fills
// the table checks (ServiceConfig.Validate for refine, the fill loops of
// Optimal.Place and the audit for data that comes from outside).
//
// Placements compare on the summed weighted delay, not on a mean:
// dividing by a positive constant is monotone, so the winner could only
// differ from a comparison of means where two distinct totals round to
// the same quotient, and there the total picks the strictly cheaper one.
type exactSearch struct {
	nm, n, k int
	wd       []float64
	suf      []float64
	cur      []float64
	pick     []int // candidate indexes of the partial cover
	ids      []int // what best holds for each candidate index
	best     []int // incumbent placement, as ids
	bestVal  float64
	visited  int64 // leaves scored: those whose parent survived the bound

	// displaced, when set, is called each time a strictly better subset
	// is about to replace the incumbent, while best and bestVal still
	// hold the one being displaced.
	displaced func()
}

// size sets the problem dimensions and sizes the working set. The caller
// then fills wd and calls prepare.
func (x *exactSearch) size(nm, n, k int) {
	x.nm, x.n, x.k = nm, n, k
	x.wd = slices.Grow(x.wd[:0], n*nm)[:n*nm]
	x.suf = slices.Grow(x.suf[:0], n*nm)[:n*nm]
	x.cur = slices.Grow(x.cur[:0], k*nm)[:k*nm]
	x.pick = slices.Grow(x.pick[:0], k)[:k]
	x.best = slices.Grow(x.best[:0], k)[:k]
}

// prepare derives the suffix minima from the filled table and resets the
// search with no scored incumbent: best holds the first k ids under a
// +Inf value, so any finite leaf replaces it. ids[c] names candidate c
// in the result.
func (x *exactSearch) prepare(ids []int) {
	nm, n := x.nm, x.n
	copy(x.suf[(n-1)*nm:], x.wd[(n-1)*nm:])
	for c := n - 2; c > 0; c-- { // row 0 is never read: the bound looks past the pick
		below, col, row := x.suf[(c+1)*nm:(c+2)*nm], x.wd[c*nm:(c+1)*nm], x.suf[c*nm:(c+1)*nm]
		for i := range row {
			row[i] = min(below[i], col[i])
		}
	}
	for i := 0; i < nm; i++ {
		x.cur[i] = math.Inf(1)
	}
	x.ids = ids
	copy(x.best, ids)
	x.bestVal = math.Inf(1)
	x.visited = 0
}

// adopt makes a strictly better subset, scored val, the incumbent; the
// caller then writes it to best.
func (x *exactSearch) adopt(val float64) {
	if x.displaced != nil {
		x.displaced()
	}
	x.bestVal = val
}

// search extends the partial cover of the first depth picks with every
// candidate from next on, depth-first in lexicographic index order,
// pruning a subtree when its bound — each point charged the better of
// its delay under the picks so far and the best any later candidate
// offers — cannot strictly beat the incumbent. Ties therefore go to the
// lexicographically first subset (or to a seeded incumbent).
//
// The enumeration order and the strict-improvement rule are frozen:
// they fix the sequence of incumbents, which is the provenance frontier
// and so part of every ledger record. Any admissible bound prunes only
// subtrees without a strictly better leaf, so a tighter one is safe; a
// different visiting order is a behaviour change.
func (x *exactSearch) search(depth, next int) {
	nm := x.nm
	prev := x.cur[depth*nm : (depth+1)*nm]
	last := x.n - (x.k - depth) // the highest index that leaves room for the remaining picks
	if depth+1 == x.k {
		// Final pick: the bound is the placement's own total. Its terms
		// are non-negative, so a partial sum that reaches the incumbent
		// already rules the candidate out.
		x.visited += int64(last - next + 1)
		for ci := next; ci <= last; ci++ {
			col := x.wd[ci*nm : (ci+1)*nm]
			bestVal := x.bestVal
			var total float64
			for i := 0; i < len(prev) && total < bestVal; i++ {
				total += min(prev[i], col[i])
			}
			if total < bestVal {
				x.adopt(total)
				x.pick[depth] = ci
				for j, c := range x.pick {
					x.best[j] = x.ids[c]
				}
			}
		}
		return
	}
	row := x.cur[(depth+1)*nm : (depth+2)*nm]
	for ci := next; ci <= last; ci++ {
		col := x.wd[ci*nm : (ci+1)*nm]
		suf := x.suf[(ci+1)*nm : (ci+2)*nm]
		var lb float64
		for i := range row {
			v := min(prev[i], col[i])
			row[i] = v
			lb += min(v, suf[i])
		}
		if lb >= x.bestVal {
			continue // cannot strictly improve: prune
		}
		x.pick[depth] = ci
		x.search(depth+1, ci+1)
	}
}

// ExactSubset returns the k of the candidates ids that minimize the
// summed weighted delay of a set of points, each served by its cheapest
// chosen candidate, and the number of k-subsets the search scored (the
// other C(len(ids), k) − visited were cut by the bound). wd is the
// candidate-major table of exactSearch — wd[c*nm+i] is point i's weight
// times its delay to candidate ids[c], nm = len(wd)/len(ids) — and the
// caller guarantees its contract: entries non-negative or +Inf, never
// NaN. Among equally cheap subsets the lexicographically first in
// candidate order wins. Requires 1 <= k <= len(ids).
func ExactSubset(wd []float64, ids []int, k int) (best []int, visited int64) {
	x := exactSearch{wd: wd} // size keeps the caller's table: it already has the capacity
	x.size(len(wd)/len(ids), len(ids), k)
	x.prepare(ids)
	x.search(0, 0)
	return x.best, x.visited
}
