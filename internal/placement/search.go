package placement

import (
	"math"

	"github.com/georep/georep/internal/metrics"
)

// objectiveFn reduces a per-client closest-replica delay vector to the
// scalar being minimized. scratch is a caller-owned buffer of the same
// length that the function may overwrite (the percentile objective sorts
// into it). Implementations must be monotone: pointwise-smaller delays
// must never produce a larger result.
type objectiveFn func(delays, scratch []float64) float64

// searchCombos finds the K-combination of in.Candidates minimizing obj
// over the per-client closest-replica delay vector, returning candidate
// node ids: the generic enumerator for objectives that are not a sum
// over clients (additive ones run on exactSearch). It walks the
// combinations in lexicographic order and adopts only strict
// improvements, so the first combination attaining the optimum wins,
// exactly as in a naive enumeration; a subtree is skipped when its bound
// — obj over each client's better of its delay so far and its best delay
// to any still-eligible candidate, which monotonicity makes admissible —
// cannot strictly beat the incumbent. reg, when non-nil, receives
// placement_search_visited_total / placement_search_pruned_total.
func searchCombos(in *Instance, reg *metrics.Registry, obj objectiveFn) []int {
	nCand, nCli, k := len(in.Candidates), len(in.Clients), in.K

	// dm[ci*nCli+u] is the true RTT from client u to candidate ci;
	// sm[s*nCli+u] is client u's best delay over candidates [s, nCand).
	dm := make([]float64, nCand*nCli)
	for ci, cand := range in.Candidates {
		for u, cli := range in.Clients {
			dm[ci*nCli+u] = in.RTT(cli, cand)
		}
	}
	sm := make([]float64, (nCand+1)*nCli)
	for u := 0; u < nCli; u++ {
		sm[nCand*nCli+u] = math.Inf(1)
	}
	for ci := nCand - 1; ci >= 0; ci-- {
		for u := 0; u < nCli; u++ {
			sm[ci*nCli+u] = min(dm[ci*nCli+u], sm[(ci+1)*nCli+u])
		}
	}

	// vecs row d holds the per-client minimum over the first d picks.
	vecs := make([]float64, (k+1)*nCli)
	for u := 0; u < nCli; u++ {
		vecs[u] = math.Inf(1)
	}
	lb := make([]float64, nCli)
	scratch := make([]float64, nCli)
	combo := make([]int, k)
	best := make([]int, k)
	for i := range best {
		best[i] = i
	}
	bestVal := math.Inf(1)
	var visited int64

	var visit func(start, depth int)
	visit = func(start, depth int) {
		cur := vecs[depth*nCli : (depth+1)*nCli]
		if depth == k {
			visited++
			if v := obj(cur, scratch); v < bestVal {
				bestVal = v
				copy(best, combo)
			}
			return
		}
		suffix := sm[start*nCli:]
		for u := range lb {
			lb[u] = min(cur[u], suffix[u])
		}
		if obj(lb, scratch) >= bestVal {
			return
		}
		next := vecs[(depth+1)*nCli : (depth+2)*nCli]
		for i := start; i <= nCand-(k-depth); i++ {
			row := dm[i*nCli:]
			for u := range next {
				next[u] = min(cur[u], row[u])
			}
			combo[depth] = i
			visit(i+1, depth+1)
		}
	}
	visit(0, 0)
	reg.Counter("placement_search_visited_total").Add(visited)
	reg.Counter("placement_search_pruned_total").Add(int64(Binomial(nCand, k)) - visited)

	out := make([]int, k)
	for i, ci := range best {
		out[i] = in.Candidates[ci]
	}
	return out
}
