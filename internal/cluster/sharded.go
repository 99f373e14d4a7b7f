package cluster

import (
	"fmt"
	"math"
	"sync"

	"github.com/georep/georep/internal/vec"
)

// Sharded partitions micro-cluster maintenance across a power-of-two
// number of independently locked shards, keyed by client hash. Each shard
// owns a full-budget Summarizer, so concurrent writers touching different
// shards never contend, and the ingest hot path stays allocation-free.
// The shards are reconciled only at epoch summary time, when Summary
// merges all per-shard clusters down to the configured budget.
//
// The merge is lossless in the additive features: total Count, Weight,
// and coordinate Sum (hence the global weighted centroid) are exactly
// preserved for any shard count, because sharding only changes how
// observations are partitioned, never drops or double-counts them.
type Sharded struct {
	shards      []ingestShard
	mask        uint32
	maxClusters int
	dims        int
}

// ingestShard pads each shard's lock and summarizer pointer onto its own
// cache line so concurrent writers on neighboring shards do not false-share.
type ingestShard struct {
	mu  sync.Mutex
	sum *Summarizer
	_   [64]byte
}

// NewSharded returns a sharded micro-cluster set with the given
// power-of-two shard count. Each shard holds up to maxClusters clusters
// of the given dimensionality; Summary merges them back down to
// maxClusters. shards == 1 degenerates to a locked Summarizer.
func NewSharded(shards, maxClusters, dims int) (*Sharded, error) {
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("cluster: shard count %d must be a positive power of two", shards)
	}
	s := &Sharded{
		shards:      make([]ingestShard, shards),
		mask:        uint32(shards - 1),
		maxClusters: maxClusters,
		dims:        dims,
	}
	for i := range s.shards {
		sum, err := NewSummarizer(maxClusters, dims)
		if err != nil {
			return nil, err
		}
		s.shards[i].sum = sum
	}
	return s, nil
}

// ShardOf returns the shard index a client hashes to. Fibonacci hashing
// on the client id spreads sequential ids uniformly; taking bits 16..31
// keeps the map stable across shard counts that share a prefix.
func (s *Sharded) ShardOf(client int) int {
	return int((uint32(client) * 2654435761 >> 16) & s.mask)
}

// Observe folds one access by client at coordinate p into the client's
// shard. Safe for concurrent use with other Observe/ObserveBatch calls.
func (s *Sharded) Observe(client int, p vec.Vec, weight float64) error {
	sh := &s.shards[s.ShardOf(client)]
	sh.mu.Lock()
	err := sh.sum.Observe(p, weight)
	sh.mu.Unlock()
	return err
}

// ObserveBatch folds a batch of accesses into their shards: clients[i]
// accessed with weights[i] from position pos[clients[i]]. A nil weights
// slice means unit weight per access. Each shard is locked exactly once
// per batch and the batch is scanned per shard, so the call allocates
// nothing and is safe for concurrent use with other writers and with
// Summary/Decay/Reset.
func (s *Sharded) ObserveBatch(clients []int, pos []vec.Vec, weights []float64) error {
	if weights != nil && len(weights) != len(clients) {
		return fmt.Errorf("cluster: batch of %d clients with %d weights", len(clients), len(weights))
	}
	var firstErr error
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for i, c := range clients {
			if s.ShardOf(c) != si {
				continue
			}
			if c < 0 || c >= len(pos) {
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: client %d outside position table of %d", c, len(pos))
				}
				continue
			}
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			if err := sh.sum.Observe(pos[c], w); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Summary returns the merged micro-cluster summary across all shards,
// reduced to at most the configured budget. Shards are folded in index
// order and merged down greedily after each fold, keeping the reduction
// O(shards · budget³) instead of quadratic in the total cluster count.
// The result is freshly allocated; ingest may continue concurrently.
func (s *Sharded) Summary() []Micro {
	out := make([]Micro, 0, s.maxClusters+s.maxClusters)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.sum.clusters {
			out = append(out, sh.sum.clusters[j].Clone())
		}
		sh.mu.Unlock()
		out = MergeDown(out, s.maxClusters)
	}
	return out
}

// MergeDown greedily merges the closest centroid pair until at most
// budget clusters remain, mutating and returning clusters. Additive
// features (Count, Weight, Sum, Sum2) are exactly conserved. The order
// of merges is deterministic for a given input order.
func MergeDown(clusters []Micro, budget int) []Micro {
	if budget < 1 {
		budget = 1
	}
	for len(clusters) > budget {
		bi, bj, bestD2 := 0, 1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d2 := centroidDist2(&clusters[i], &clusters[j]); d2 < bestD2 {
					bi, bj, bestD2 = i, j, d2
				}
			}
		}
		absorbMicro(&clusters[bi], &clusters[bj])
		last := len(clusters) - 1
		clusters[bj] = clusters[last]
		clusters[last] = Micro{}
		clusters = clusters[:last]
	}
	return clusters
}

// Decay ages every shard's clusters by factor in (0, 1].
func (s *Sharded) Decay(factor float64) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.sum.Decay(factor)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Reset discards all shard state, keeping configuration and buffers.
func (s *Sharded) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.sum.Reset()
		sh.mu.Unlock()
	}
}

// Len returns the current total micro-cluster count across shards.
func (s *Sharded) Len() int {
	var n int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.sum.Len()
		sh.mu.Unlock()
	}
	return n
}
