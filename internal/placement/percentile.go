package placement

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/stats"
)

// Tail-latency objective: the paper minimizes the mean access delay, but
// interactive services usually budget a percentile (e.g. "99% of reads
// under 300 ms", the paper's §I example time limit is 300 ms). This file
// adds the percentile objective and its exhaustive optimum so the
// mean-vs-tail tension is measurable: a mean-optimal placement may
// strand a small population far from every replica.

// PercentileAccessDelay returns the p-th percentile (0 < p <= 100) of
// per-client closest-replica delays.
func PercentileAccessDelay(in *Instance, replicas []int, p float64) (float64, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("placement: no replicas")
	}
	if len(in.Clients) == 0 {
		return 0, fmt.Errorf("placement: no clients")
	}
	delays := make([]float64, len(in.Clients))
	for i, u := range in.Clients {
		best := math.Inf(1)
		for _, rep := range replicas {
			if d := in.RTT(u, rep); d < best {
				best = d
			}
		}
		delays[i] = best
	}
	return stats.Percentile(delays, p)
}

// OptimalPercentile exhaustively minimizes the p-th percentile of client
// delays — ground truth for tail-latency placement. A percentile is not
// a sum over clients, so it runs on the generic enumerator of search.go
// rather than on exactSearch; it is monotone in the pointwise per-client
// delays, which is all that enumerator's bound needs.
type OptimalPercentile struct {
	// P is the percentile to minimize, e.g. 95.
	P float64
	// MaxCombinations guards the search; zero means the default.
	MaxCombinations int
	// Metrics, when non-nil, receives the search counters.
	Metrics *metrics.Registry
}

// Name implements Strategy.
func (s OptimalPercentile) Name() string { return fmt.Sprintf("optimal-p%g", s.P) }

// Place implements Strategy; deterministic, the rand source is unused.
func (s OptimalPercentile) Place(_ *rand.Rand, in *Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if s.P <= 0 || s.P > 100 {
		return nil, fmt.Errorf("placement: percentile %v out of (0,100]", s.P)
	}
	limit := s.MaxCombinations
	if limit <= 0 {
		limit = DefaultMaxCombinations
	}
	if c := Binomial(len(in.Candidates), in.K); c > limit {
		return nil, fmt.Errorf("placement: percentile search needs %d combinations, limit %d", c, limit)
	}
	return searchCombos(in, s.Metrics, percentileObjective(s.P)), nil
}

// percentileObjective returns an objectiveFn computing the p-th
// percentile of the delay vector with arithmetic identical to
// stats.Percentile (sort, then linear interpolation between the two
// neighboring order statistics), but sorting into a reused scratch
// buffer instead of allocating per leaf.
func percentileObjective(p float64) objectiveFn {
	return func(delays, scratch []float64) float64 {
		copy(scratch, delays)
		sort.Float64s(scratch)
		if len(scratch) == 1 {
			return scratch[0]
		}
		rank := p / 100 * float64(len(scratch)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			return scratch[lo]
		}
		frac := rank - float64(lo)
		return scratch[lo]*(1-frac) + scratch[hi]*frac
	}
}
