package placement

import (
	"encoding/binary"
	"math"

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

// refineMicros is refine over an explicit micro view. The table it hands
// exactSearch meets the kernel's input contract by construction:
// ServiceConfig validates the candidate coordinates, and summaries hold
// only finite points (Summarizer.Observe rejects the rest) with
// non-negative weights.
func (s *Service) refineMicros(leader *Object, micros []cluster.Micro, proposed []int) []int {
	x := &s.ref
	nm, k := len(micros), len(proposed)
	x.size(nm, len(s.cfg.Candidates), k)
	s.refLeader, s.refMass = leader, 0
	for i := range micros {
		wi := micros[i].Weight
		if wi == 0 {
			wi = float64(micros[i].Count)
		}
		s.refMass += wi
		micros[i].CentroidInto(s.cent)
		for ci, cand := range s.cfg.Candidates {
			c := &s.cfg.Coords[cand]
			x.wd[ci*nm+i] = wi * (c.Pos.Dist(s.cent) + c.Height)
		}
	}
	x.prepare(s.cfg.Candidates)

	copy(x.best, proposed)
	x.bestVal = s.score(proposed)
	s.refSrc = provenance.SourceProposed
	proposedVal := x.bestVal

	var key []byte
	if s.bounds != nil {
		key = s.bounds.keyFor(leader.sig)
		if cached, ok := s.bounds.m[string(key)]; ok && len(cached) == k {
			s.stats.BoundHits++
			if v := s.score(cached); v < x.bestVal {
				x.adopt(v)
				s.refSrc = provenance.SourceCached
				copy(x.best, cached)
			}
		}
	}

	x.search(0, 0)

	if s.bounds != nil {
		s.bounds.store(key, x.best)
	}
	if x.bestVal < proposedVal {
		s.stats.Refined++
	}
	s.refLeader = nil
	return x.best
}

// score returns the search objective of a placement: the summed
// weighted delay of every micro to its closest replica.
func (s *Service) score(placement []int) float64 {
	x := &s.ref
	cols := x.pick[:len(placement)]
	for j, node := range placement {
		cols[j] = s.candIdx[node]
	}
	var total float64
	for i := 0; i < x.nm; i++ {
		best := math.Inf(1)
		for _, c := range cols {
			best = min(best, x.wd[c*x.nm+i])
		}
		total += best
	}
	return total
}

// displacedIncumbent is the kernel's adoption hook, installed when
// provenance is on. The placement about to be displaced was a fully
// scored alternative, so it joins the leader's frontier under its
// mean-delay cost and the source it came from: the k-means proposal, the
// bound cache, or a branch-and-bound leaf — which is what its successor
// is unless refineMicros says otherwise.
func (s *Service) displacedIncumbent() {
	x := &s.ref
	mean := 0.0
	if s.refMass > 0 {
		mean = x.bestVal / s.refMass
	}
	s.pushFrontier(s.refLeader, s.refSrc, mean, x.best)
	s.refSrc = provenance.SourceFrontier
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
