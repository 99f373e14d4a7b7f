package placement

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/provenance"
)

// Group-solve refinement: an exhaustive branch-and-bound search over
// k-subsets of the candidate set, minimizing the summary-estimated mean
// delay of the group leader's micro view — the same objective
// replica.EstimateMeanDelay scores placements with. The k-means
// proposal (plus, when available, a cached placement for this demand
// shape) seeds the incumbent, and nodes are pruned with an admissible
// bound: current partial assignment cost, relaxed by the best delay any
// still-choosable candidate could offer each micro. Because the bound
// never overestimates, pruning cannot change the optimum — only how
// fast the search reaches it. Incumbents are cached per quantized
// signature, so a recurring demand shape starts at (typically) its own
// optimal value and prunes almost the whole tree.
type boundCache struct {
	m   map[string][]int
	key []byte // scratch for key construction
}

func newBoundCache() *boundCache {
	return &boundCache{m: make(map[string][]int)}
}

// sigQuant is the signature quantization grid for bound-cache keys:
// 1/64 of total demand per component groups shapes coarsely enough to
// hit across epochs of a drifting workload without conflating
// genuinely different shapes.
const sigQuant = 64

// keyFor builds the cache key for a signature: quantized components,
// length-tagged, in a scratch buffer that the next call overwrites.
// Lookups convert it in place (no allocation); only storing a new shape
// copies it into an immutable map key.
func (c *boundCache) keyFor(sig []float64) []byte {
	b := c.key[:0]
	b = binary.AppendUvarint(b, uint64(len(sig)))
	for _, v := range sig {
		b = binary.AppendUvarint(b, uint64(v*sigQuant+0.5))
	}
	c.key = b
	return b
}

// store remembers best as the incumbent for key, overwriting the
// shape's previous entry in place.
func (c *boundCache) store(key []byte, best []int) {
	if cached, ok := c.m[string(key)]; ok && len(cached) == len(best) {
		copy(cached, best)
		return
	}
	c.m[string(key)] = append([]int(nil), best...)
}

// refineScratch is the working set of one refine call, kept on the
// Service so a steady-state solve allocates nothing. With nm micros, n
// candidates and k replicas:
//
//	wd[c*nm+i]  = w_i·d_ic, micro i's weight times its delay to
//	              candidate c (distance to the centroid plus the
//	              candidate's height);
//	suf[c*nm+i] = min over c' >= c of wd[c'*nm+i], the best any
//	              still-choosable candidate could offer micro i;
//	cur[t*nm+i] = micro i's weighted delay under the first t picks
//	              (row 0 is +Inf).
//
// Everything is candidate-major, so extending a partial cover by one
// candidate reads three contiguous rows. Weighting the delays up front
// is exact — rounding is monotone, so min(w·a, w·b) == w·min(a, b) for
// w >= 0 — which makes every total bit-identical to weighting after the
// minimum, and removes the multiply from the search.
//
// The kernel relies on finite, non-negative inputs: ServiceConfig
// validates the candidate coordinates, and summaries hold only finite
// points (Summarizer.Observe rejects the rest) with non-negative
// weights. A NaN or Inf would break both the pre-weighting identity and
// the early exit on partial sums.
type refineScratch struct {
	nm, n, k int
	wd       []float64
	suf      []float64
	cur      []float64
	pick     []int // candidate indexes of the partial cover
	best     []int // incumbent placement (node ids)
	bestVal  float64

	// Provenance: the incumbent's source, the total weight that turns a
	// weighted total into a mean delay, and the leader whose frontier
	// collects displaced incumbents.
	src    provenance.Source
	mass   float64
	leader *Object
}

// refine improves a group's k-means proposal by exhaustive search when
// the candidate set is small enough, returning the best placement found
// (the proposal itself when the search cannot beat it). The result
// aliases service scratch: copy it before the next solve. Deterministic:
// lexicographic candidate order, strict-improvement adoption.
func (s *Service) refine(leader *Object, proposed []int) []int {
	maxCand := s.cfg.MaxRefineCandidates
	if maxCand == 0 {
		maxCand = 16
	}
	if len(s.cfg.Candidates) > maxCand {
		return proposed
	}
	return s.refineMicros(leader, leader.pending.Micros(), proposed)
}

// refineMicros is refine over an explicit micro view.
func (s *Service) refineMicros(leader *Object, micros []cluster.Micro, proposed []int) []int {
	r := &s.ref
	nm, n, k := len(micros), len(s.cfg.Candidates), len(proposed)
	r.nm, r.n, r.k, r.leader = nm, n, k, leader
	r.wd = slices.Grow(r.wd[:0], n*nm)[:n*nm]
	r.suf = slices.Grow(r.suf[:0], n*nm)[:n*nm]
	r.cur = slices.Grow(r.cur[:0], k*nm)[:k*nm]
	r.pick = slices.Grow(r.pick[:0], k)[:k]
	r.best = slices.Grow(r.best[:0], k)[:k]

	r.mass = 0
	for i := range micros {
		wi := micros[i].Weight
		if wi == 0 {
			wi = float64(micros[i].Count)
		}
		r.mass += wi
		micros[i].CentroidInto(s.cent)
		for ci, cand := range s.cfg.Candidates {
			c := &s.cfg.Coords[cand]
			r.wd[ci*nm+i] = wi * (c.Pos.Dist(s.cent) + c.Height)
		}
	}
	copy(r.suf[(n-1)*nm:], r.wd[(n-1)*nm:])
	for c := n - 2; c > 0; c-- { // row 0 is never read: the bound looks past the pick
		below, col, row := r.suf[(c+1)*nm:(c+2)*nm], r.wd[c*nm:(c+1)*nm], r.suf[c*nm:(c+1)*nm]
		for i := range row {
			row[i] = min(below[i], col[i])
		}
	}
	for i := 0; i < nm; i++ {
		r.cur[i] = math.Inf(1)
	}

	copy(r.best, proposed)
	r.bestVal = s.score(proposed)
	r.src = provenance.SourceProposed
	proposedVal := r.bestVal

	var key []byte
	if s.bounds != nil {
		key = s.bounds.keyFor(leader.sig)
		if cached, ok := s.bounds.m[string(key)]; ok && len(cached) == k {
			s.stats.BoundHits++
			if v := s.score(cached); v < r.bestVal {
				s.adopt(provenance.SourceCached, v)
				copy(r.best, cached)
			}
		}
	}

	s.search(0, 0)

	if s.bounds != nil {
		s.bounds.store(key, r.best)
	}
	if r.bestVal < proposedVal {
		s.stats.Refined++
	}
	r.leader = nil
	return r.best
}

// score returns the search objective of a placement: the summed
// weighted delay of every micro to its closest replica.
func (s *Service) score(placement []int) float64 {
	r := &s.ref
	cols := r.pick[:len(placement)]
	for j, node := range placement {
		cols[j] = s.candIdx[node]
	}
	var total float64
	for i := 0; i < r.nm; i++ {
		best := math.Inf(1)
		for _, c := range cols {
			best = min(best, r.wd[c*r.nm+i])
		}
		total += best
	}
	return total
}

// adopt makes a strictly better placement, scored val, the incumbent;
// the caller then writes it to best. The placement it displaces was a
// fully scored alternative, so with provenance on it joins the leader's
// frontier under its mean-delay cost and the source it came from: the
// k-means proposal, the bound cache, or a branch-and-bound leaf.
func (s *Service) adopt(src provenance.Source, val float64) {
	r := &s.ref
	if s.cfg.Object.Provenance {
		mean := 0.0
		if r.mass > 0 {
			mean = r.bestVal / r.mass
		}
		s.pushFrontier(r.leader, r.src, mean, r.best)
	}
	r.src, r.bestVal = src, val
}

// search extends the partial cover of the first depth picks with every
// candidate from next on, depth-first in lexicographic index order,
// pruning a subtree when its bound — each micro charged the better of
// its delay under the picks so far and the best any later candidate
// offers — cannot strictly beat the incumbent.
//
// The enumeration order and the strict-improvement rule are frozen:
// they fix the sequence of incumbents, which is the provenance frontier
// and so part of every ledger record. Any admissible bound prunes only
// subtrees without a strictly better leaf, so a tighter one is safe; a
// different visiting order is a behaviour change.
func (s *Service) search(depth, next int) {
	r := &s.ref
	nm := r.nm
	prev := r.cur[depth*nm : (depth+1)*nm]
	last := r.n - (r.k - depth) // the highest index that leaves room for the remaining picks
	if depth+1 == r.k {
		// Final pick: the bound is the placement's own total. Its terms
		// are non-negative, so a partial sum that reaches the incumbent
		// already rules the candidate out.
		for ci := next; ci <= last; ci++ {
			col := r.wd[ci*nm : (ci+1)*nm]
			bestVal := r.bestVal
			var total float64
			for i := 0; i < len(prev) && total < bestVal; i++ {
				total += min(prev[i], col[i])
			}
			if total < bestVal {
				s.adopt(provenance.SourceFrontier, total)
				r.pick[depth] = ci
				for j, c := range r.pick {
					r.best[j] = s.cfg.Candidates[c]
				}
			}
		}
		return
	}
	row := r.cur[(depth+1)*nm : (depth+2)*nm]
	for ci := next; ci <= last; ci++ {
		col := r.wd[ci*nm : (ci+1)*nm]
		suf := r.suf[(ci+1)*nm : (ci+2)*nm]
		var lb float64
		for i := range row {
			v := min(prev[i], col[i])
			row[i] = v
			lb += min(v, suf[i])
		}
		if lb >= r.bestVal {
			continue // cannot strictly improve: prune
		}
		r.pick[depth] = ci
		s.search(depth+1, ci+1)
	}
}

// pushFrontier appends one displaced incumbent to the leader's scored
// frontier, keeping the provenance-record bound: when full, the oldest
// entry goes — incumbents only improve, so the oldest is the most
// expensive and least interesting alternative.
func (s *Service) pushFrontier(leader *Object, src provenance.Source, meanMs float64, reps []int) {
	f := leader.frontier
	if len(f) >= provenance.MaxCounterfactuals {
		copy(f, f[1:])
		f = f[:len(f)-1]
	}
	leader.frontier = append(f, provenance.Candidate{
		Source:   src,
		CostMs:   meanMs,
		Replicas: append([]int(nil), reps...),
	})
}
