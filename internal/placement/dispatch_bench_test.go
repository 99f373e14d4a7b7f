package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/replica"
)

// dispatchService builds a service in steady state: n objects in three
// demand classes, grouped, solved, and converged so further dispatch
// rounds are pure group-and-skip. Every object has a live pending epoch
// (phase 1 already run) so phase 2 can be driven directly.
func dispatchService(tb testing.TB, n int) *Service {
	tb.Helper()
	cfg := svcConfig(2)
	cfg.GroupEpsilon = 0.25
	cfg.DriftThreshold = 0.1
	cfg.WarmStart = true
	svc, err := NewService(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var objs []*Object
	for i := 0; i < n; i++ {
		o, err := svc.Register(fmt.Sprintf("o%d", i), fmt.Sprintf("c%d", i%3))
		if err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, o)
	}
	// Two full epochs converge every group (solve, then drift-skip).
	for e := 0; e < 2; e++ {
		for i, o := range objs {
			feed(tb, o, 13, 0, i)
		}
		if _, err := svc.EndEpoch(); err != nil {
			tb.Fatal(err)
		}
	}
	// Phase 1 by hand: a fresh epoch of the same demand, pending views
	// open, signatures filled — the state the dispatch loop consumes.
	for i, o := range objs {
		feed(tb, o, 13, 0, i)
	}
	svc.epoch++
	for _, o := range svc.objects {
		p, err := o.mgr.BeginEpoch(nil)
		if err != nil {
			tb.Fatal(err)
		}
		o.pending = p
		o.demand = p.Demand()
		o.leader = -1
		if p.CanDecide() {
			svc.signature(o)
		}
	}
	return svc
}

// TestGroupDispatchSteadyStateAllocs pins the amortization point's
// allocation contract: once groups have converged, a dispatch round
// (grouping + drift-skipped solveGroups) allocates nothing — per-object
// signature buffers, the leader list, and k-means scratch are all
// reused, and the solve generator is only reseeded past the skip
// check. scripts/bench_multiobject.sh gates on this test.
func TestGroupDispatchSteadyStateAllocs(t *testing.T) {
	svc := dispatchService(t, 60)
	defer svc.abandonFrom(0)
	allocs := testing.AllocsPerRun(200, func() {
		svc.stats = EpochStats{}
		svc.group()
		if err := svc.solveGroups(); err != nil {
			t.Fatal(err)
		}
	})
	if svc.stats.DriftSkips != svc.stats.Groups {
		t.Fatalf("dispatch not in steady state: %d of %d groups skipped", svc.stats.DriftSkips, svc.stats.Groups)
	}
	if allocs != 0 {
		t.Errorf("steady-state dispatch allocates: %.1f allocs/round, want 0", allocs)
	}
}

// BenchmarkPerObjectSolve times the decision stage a naive per-object
// loop pays every epoch: one full k-means placement solve per object
// over its own pending micros, no grouping, no drift skipping. Its
// ns_object against BenchmarkGroupDispatch's is the decision-stage
// amortization factor scripts/bench_multiobject.sh gates on.
func BenchmarkPerObjectSolve(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			svc := dispatchService(b, n)
			defer svc.abandonFrom(0)
			k := svc.cfg.Object.K
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, o := range svc.objects {
					r := rand.New(rand.NewSource(int64(i)<<32 + int64(o.idx)))
					if _, _, err := replica.ProposePlacementResult(r, o.pending.Micros(), k,
						svc.cfg.Candidates, svc.cfg.Coords,
						cluster.Options{Scratch: &svc.kmScratch}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns_object")
		})
	}
}

// BenchmarkGroupDispatch times one steady-state dispatch round.
func BenchmarkGroupDispatch(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			svc := dispatchService(b, n)
			defer svc.abandonFrom(0)
			// One cold round absorbs any leader whose signature moved
			// past the drift threshold since warm-up; the timed loop is
			// the pure skip path.
			svc.stats = EpochStats{}
			svc.group()
			if err := svc.solveGroups(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.stats = EpochStats{}
				svc.group()
				if err := svc.solveGroups(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns_object")
		})
	}
}

// BenchmarkRefineK4 times one branch-and-bound refinement at the
// decide_k4 shape (16 candidates, k=4, 80 micros), bound cache off so
// that every solve searches from the proposal rather than from its own
// cached optimum.
func BenchmarkRefineK4(b *testing.B) {
	svc, leader, micros, proposed := refineK4Fixture(b)
	svc.bounds = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.refineMicros(leader, micros, proposed)
	}
}
