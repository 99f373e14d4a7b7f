package replica

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

// Property: across arbitrary access streams and epoch schedules, the
// manager's invariants hold — replicas are always distinct candidates,
// |replicas| == k, and k stays within the policy bounds.
func TestQuickManagerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))

		// Random candidate geometry.
		nCand := 4 + r.Intn(6)
		nodes := nCand + 5
		coords := make([]coord.Coordinate, nodes)
		for i := range coords {
			coords[i] = coord.Coordinate{
				Pos:    vec.Vec{r.NormFloat64() * 100, r.NormFloat64() * 100},
				Height: r.Float64() * 5,
			}
		}
		candidates := make([]int, nCand)
		for i := range candidates {
			candidates[i] = i
		}
		kMax := 1 + r.Intn(nCand)
		kMin := 1 + r.Intn(kMax)
		k := kMin + r.Intn(kMax-kMin+1)
		cfg := Config{
			K: k, M: 1 + r.Intn(8), Dims: 2,
			Migration: MigrationPolicy{MinRelativeGain: r.Float64() * 0.5},
			KPolicy: KPolicy{
				Min: kMin, Max: kMax,
				GrowAbove:   10 + r.Float64()*100,
				ShrinkBelow: r.Float64() * 10,
			},
			DecayFactor: 0.1 + r.Float64()*0.9,
		}
		m, err := NewManager(cfg, candidates, coords, nil)
		if err != nil {
			return false
		}

		check := func() bool {
			reps := m.Replicas()
			if len(reps) != m.K() {
				return false
			}
			if m.K() < kMin || m.K() > kMax {
				return false
			}
			seen := make(map[int]bool, len(reps))
			for _, rep := range reps {
				if rep < 0 || rep >= nCand || seen[rep] {
					return false
				}
				seen[rep] = true
			}
			return true
		}

		for epoch := 0; epoch < 4; epoch++ {
			accesses := r.Intn(200)
			for a := 0; a < accesses; a++ {
				client := coord.Coordinate{
					Pos: vec.Vec{r.NormFloat64() * 100, r.NormFloat64() * 100},
				}
				if _, err := m.Record(client, r.Float64()*3); err != nil {
					return false
				}
			}
			if _, err := m.EndEpoch(rand.New(rand.NewSource(seed + int64(epoch)))); err != nil {
				return false
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a proposed placement never worsens the summary-estimated
// delay relative to what EndEpoch adopts — i.e. adopted migrations are
// justified by their own estimates.
func TestQuickAdoptedMigrationsEstimateJustified(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		coords := lineCoords(0, 40, 80, 120, 160)
		m, err := NewManager(Config{
			K: 2, M: 4, Dims: 2,
			Migration: MigrationPolicy{MinRelativeGain: 0.05},
		}, []int{0, 1, 2, 3, 4}, coords, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			client := coord.Coordinate{Pos: vec.Vec{r.Float64() * 160, 0}}
			if _, err := m.Record(client, 1); err != nil {
				return false
			}
		}
		dec, err := m.EndEpoch(rand.New(rand.NewSource(seed + 7)))
		if err != nil {
			return false
		}
		if dec.Migrate && dec.MovedReplicas > 0 {
			// An adopted move must improve the estimate by the bar.
			if dec.EstimatedNewMs >= dec.EstimatedOldMs {
				return false
			}
			rel := (dec.EstimatedOldMs - dec.EstimatedNewMs) / dec.EstimatedOldMs
			if rel < 0.05-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
