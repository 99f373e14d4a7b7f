package placement

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/vec"
)

// svcWorld is a small deterministic test world: candidate DCs on a
// line, clients clustered around a few hotspots.
func svcCoords(xs ...float64) []coord.Coordinate {
	out := make([]coord.Coordinate, len(xs))
	for i, x := range xs {
		out[i] = coord.Coordinate{Pos: vec.Vec{x, 0}}
	}
	return out
}

func svcConfig(k int) ServiceConfig {
	return ServiceConfig{
		Object:     replica.Config{K: k, M: 4, Dims: 2},
		Candidates: []int{0, 1, 2, 3, 4},
		Coords:     svcCoords(0, 50, 100, 150, 200),
		Seed:       7,
	}
}

// feed records a deterministic per-object access pattern: object i's
// demand concentrates around one of three hotspots by class.
func feed(t testing.TB, o *Object, seedBase int64, epoch, idx int) {
	t.Helper()
	r := rand.New(rand.NewSource(seedBase + int64(epoch)*1000 + int64(idx)))
	center := []float64{10, 95, 190}[idx%3]
	for a := 0; a < 30; a++ {
		pos := center + r.Float64()*20 - 10
		if _, err := o.Record(coord.Coordinate{Pos: vec.Vec{pos, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// dirDigest hashes a ledger directory's segment bytes: byte-identity
// down to the on-disk encoding.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSingletonByteIdentity pins the exact-fallback contract: a service
// with GroupEpsilon 0 (singleton groups, no warm start, no drift skips)
// must reproduce a naive per-object replica.Manager loop byte-for-byte —
// same placements, same decisions, and the same ledger bytes on disk —
// across seeds.
func TestSingletonByteIdentity(t *testing.T) {
	const objects, epochs, k = 6, 5, 2
	for _, seed := range []int64{1, 17, 923} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := svcConfig(k)
			cfg.Seed = seed

			// Service pass, fleet ledger.
			svcDir := t.TempDir()
			svcLed, err := ledger.Open(svcDir, ledger.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Object.Ledger = svcLed
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var objs []*Object
			for i := 0; i < objects; i++ {
				o, err := svc.Register(fmt.Sprintf("obj-%d", i), fmt.Sprintf("class-%d", i%3))
				if err != nil {
					t.Fatal(err)
				}
				objs = append(objs, o)
			}
			var svcDecs [][]replica.Decision
			for e := 0; e < epochs; e++ {
				for i, o := range objs {
					feed(t, o, seed*999, e, i)
				}
				if _, err := svc.EndEpoch(); err != nil {
					t.Fatal(err)
				}
				decs := make([]replica.Decision, objects)
				for i, o := range objs {
					decs[i] = o.lastDec
				}
				svcDecs = append(svcDecs, decs)
			}
			if err := svcLed.Close(); err != nil {
				t.Fatal(err)
			}

			// Naive pass: one replica.Manager per object over a shared
			// ledger, epochs completed in registration order with the
			// exact seed stream the service documents.
			naiveDir := t.TempDir()
			naiveLed, err := ledger.Open(naiveDir, ledger.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var mgrs []*replica.Manager
			for i := 0; i < objects; i++ {
				mc := cfg.Object
				mc.Ledger = naiveLed
				mc.ObjectID = fmt.Sprintf("obj-%d", i)
				mc.Class = fmt.Sprintf("class-%d", i%3)
				m, err := replica.NewManager(mc, cfg.Candidates, cfg.Coords, nil)
				if err != nil {
					t.Fatal(err)
				}
				mgrs = append(mgrs, m)
			}
			record := func(m *replica.Manager, seedBase int64, epoch, idx int) {
				r := rand.New(rand.NewSource(seedBase + int64(epoch)*1000 + int64(idx)))
				center := []float64{10, 95, 190}[idx%3]
				for a := 0; a < 30; a++ {
					pos := center + r.Float64()*20 - 10
					if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{pos, 0}}, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			for e := 0; e < epochs; e++ {
				for i, m := range mgrs {
					record(m, seed*999, e, i)
				}
				for i, m := range mgrs {
					r := rand.New(rand.NewSource(seed + int64(e+1)*epochSeedStride + int64(i)))
					dec, err := m.EndEpoch(r)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(dec, svcDecs[e][i]) {
						t.Fatalf("epoch %d object %d decision diverged:\nservice: %+v\nnaive:   %+v", e, i, svcDecs[e][i], dec)
					}
				}
			}
			if err := naiveLed.Close(); err != nil {
				t.Fatal(err)
			}
			for i, o := range objs {
				if got, want := o.Replicas(), mgrs[i].Replicas(); !reflect.DeepEqual(got, want) {
					t.Errorf("object %d final placement: service %v, naive %v", i, got, want)
				}
			}
			if got, want := dirDigest(t, svcDir), dirDigest(t, naiveDir); got != want {
				t.Errorf("ledger bytes diverged: service %s, naive %s", got, want)
			}
		})
	}
}

// TestGroupingSharesSolves checks that objects with near-identical
// demand share one solve and end with the group's placement.
func TestGroupingSharesSolves(t *testing.T) {
	cfg := svcConfig(2)
	cfg.GroupEpsilon = 0.3
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var objs []*Object
	for i := 0; i < 9; i++ {
		o, err := svc.Register(fmt.Sprintf("o%d", i), "c")
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for i, o := range objs {
		feed(t, o, 5, 0, i)
	}
	st, err := svc.EndEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups >= st.Objects {
		t.Fatalf("no grouping: %d groups for %d objects", st.Groups, st.Objects)
	}
	if st.Solves != st.Groups {
		t.Errorf("Solves = %d, want %d (one per group)", st.Solves, st.Groups)
	}
	// Same class (same hotspot) objects must share their leader's
	// placement.
	for i := 3; i < 9; i++ {
		if !reflect.DeepEqual(objs[i].Replicas(), objs[i%3].Replicas()) {
			t.Errorf("object %d placement %v differs from same-class leader %v", i, objs[i].Replicas(), objs[i%3].Replicas())
		}
	}
}

// TestDriftSkipReusesPlacement checks that a statically-distributed
// workload stops re-solving once DriftThreshold is set.
func TestDriftSkipReusesPlacement(t *testing.T) {
	cfg := svcConfig(2)
	cfg.GroupEpsilon = 0.3
	cfg.DriftThreshold = 0.2
	cfg.WarmStart = true
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var objs []*Object
	for i := 0; i < 6; i++ {
		o, err := svc.Register(fmt.Sprintf("o%d", i), "c")
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for e := 0; e < 3; e++ {
		for i, o := range objs {
			// Same distribution every epoch: signatures barely move.
			feed(t, o, 5, 0, i)
		}
		st, err := svc.EndEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if e > 0 && st.DriftSkips != st.Groups {
			t.Errorf("epoch %d: DriftSkips = %d, want %d (all groups converged)", e, st.DriftSkips, st.Groups)
		}
	}
}

// TestRefineDeterministicAndCached checks the branch-and-bound stage:
// refinement keeps placements valid (k distinct candidates), two
// identical runs agree byte-for-byte, and repeat demand shapes hit the
// signature-keyed bound cache.
func TestRefineDeterministicAndCached(t *testing.T) {
	run := func() ([][]int, EpochStats) {
		cfg := svcConfig(2)
		cfg.Refine = true
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var objs []*Object
		for i := 0; i < 4; i++ {
			o, err := svc.Register(fmt.Sprintf("o%d", i), "c")
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		var st EpochStats
		for e := 0; e < 4; e++ {
			for i, o := range objs {
				// Same distribution each epoch → stable signatures →
				// repeat bound-cache keys.
				feed(t, o, 11, 0, i)
			}
			if st, err = svc.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		placements := make([][]int, len(objs))
		for i, o := range objs {
			placements[i] = o.Replicas()
		}
		return placements, st
	}
	p1, st := run()
	p2, _ := run()
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("refined placements diverged across identical runs:\n%v\n%v", p1, p2)
	}
	if st.BoundHits == 0 {
		t.Errorf("bound cache never hit across repeat epochs: %+v", st)
	}
	for i, p := range p1 {
		if len(p) != 2 {
			t.Fatalf("object %d placement has %d replicas, want 2: %v", i, len(p), p)
		}
		seen := map[int]bool{}
		for _, n := range p {
			if n < 0 || n > 4 {
				t.Errorf("object %d placed off the candidate set: %v", i, p)
			}
			if seen[n] {
				t.Errorf("object %d placement repeats a node: %v", i, p)
			}
			seen[n] = true
		}
	}
}

// TestCapacityAdmission checks registration-time admission control: the
// fleet cannot oversubscribe the aggregate slot budget.
func TestCapacityAdmission(t *testing.T) {
	cfg := svcConfig(2)
	cfg.Capacity = []int{1, 1, 1, 1, 1} // 5 slots, k=2 → at most 2 objects
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("a", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("overflow", "c"); err == nil {
		t.Fatal("third registration accepted over a 5-slot budget at k=2")
	}
}

// TestCapacityDisplacement checks the epoch slot competition: with every
// object's demand at one hotspot and one slot per DC, the heavier (or
// earlier-registered, under equal demand) object keeps the contested
// DCs and the other is displaced — deterministically — with the
// displacement recorded in decision and ledger.
func TestCapacityDisplacement(t *testing.T) {
	dir := t.TempDir()
	led, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := svcConfig(2)
	cfg.Capacity = []int{1, 1, 1, 1, 1}
	cfg.Object.Ledger = led
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Register("a", "heavy")
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register("b", "light")
	if err != nil {
		t.Fatal(err)
	}
	// Identical hotspot, identical weight per access, same access count:
	// equal demand → registration order breaks the tie, a wins.
	for _, o := range []*Object{a, b} {
		for i := 0; i < 40; i++ {
			if _, err := o.Record(coord.Coordinate{Pos: vec.Vec{10, 0}}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := svc.EndEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Displaced == 0 {
		t.Fatalf("no displacement under full contention: %+v", st)
	}
	if a.lastDec.Displaced != 0 {
		t.Errorf("earlier-registered equal-demand object was displaced: %+v", a.lastDec)
	}
	if b.lastDec.Displaced == 0 {
		t.Errorf("later-registered object kept contested slots: %+v", b.lastDec)
	}
	// Slots stay exclusive: across both objects every node holds at most
	// its capacity.
	occ := map[int]int{}
	for _, o := range []*Object{a, b} {
		reps := o.Replicas()
		seen := map[int]bool{}
		for _, rep := range reps {
			if seen[rep] {
				t.Errorf("object holds duplicate replica node %d: %v", rep, reps)
			}
			seen[rep] = true
			occ[rep]++
		}
	}
	for node, n := range occ {
		if n > 1 {
			t.Errorf("node %d oversubscribed: %d slots of 1", node, n)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	foundDisplaced := false
	for _, r := range recs {
		if r.ObjectID == "b" && r.Displaced > 0 {
			foundDisplaced = true
		}
		if r.ObjectID == "" {
			t.Errorf("fleet ledger record lost its object id: %+v", r)
		}
	}
	if !foundDisplaced {
		t.Errorf("displacement not recorded in ledger: %+v", recs)
	}
}

// TestCapacityDisplacementDeterministic reruns the same contended epoch
// and requires identical placements and displacement counts.
func TestCapacityDisplacementDeterministic(t *testing.T) {
	run := func() ([][]int, []int) {
		cfg := svcConfig(2)
		cfg.Capacity = []int{2, 2, 2, 2, 2}
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var objs []*Object
		for i := 0; i < 5; i++ {
			o, err := svc.Register(fmt.Sprintf("o%d", i), "c")
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		for e := 0; e < 3; e++ {
			for i, o := range objs {
				feed(t, o, 31, e, i)
			}
			if _, err := svc.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		placements := make([][]int, len(objs))
		disp := make([]int, len(objs))
		for i, o := range objs {
			placements[i] = o.Replicas()
			disp[i] = o.lastDec.Displaced
		}
		return placements, disp
	}
	p1, d1 := run()
	p2, d2 := run()
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("placements diverged across identical runs:\n%v\n%v", p1, p2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("displacement counts diverged: %v vs %v", d1, d2)
	}
}

// TestServiceConcurrentStress drives registration, recording, and epoch
// ticks concurrently; run with -race. Placements are not asserted (the
// interleaving is nondeterministic by construction) — the test is the
// absence of data races and deadlocks.
func TestServiceConcurrentStress(t *testing.T) {
	cfg := svcConfig(2)
	cfg.GroupEpsilon = 0.3
	cfg.DriftThreshold = 0.1
	cfg.WarmStart = true
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedObj, err := svc.Register("seed", "c")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	handles := []*Object{seedObj}

	wg.Add(1)
	go func() { // registrar
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o, err := svc.Register(fmt.Sprintf("live-%d", i), "c")
			if err != nil {
				continue
			}
			mu.Lock()
			handles = append(handles, o)
			mu.Unlock()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // recorders
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				o := handles[r.Intn(len(handles))]
				mu.Unlock()
				_, _ = o.Record(coord.Coordinate{Pos: vec.Vec{r.Float64() * 200, 0}}, 1)
			}
		}(g)
	}
	for e := 0; e < 20; e++ {
		if _, err := svc.EndEpoch(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestServiceValidation covers config rejection paths.
func TestServiceValidation(t *testing.T) {
	adaptive := svcConfig(2)
	adaptive.Object.KPolicy = replica.KPolicy{Min: 1, Max: 4, GrowAbove: 10}
	if _, err := NewService(adaptive); err == nil {
		t.Error("adaptive KPolicy accepted")
	}
	misaligned := svcConfig(2)
	misaligned.Capacity = []int{1, 1}
	if _, err := NewService(misaligned); err == nil {
		t.Error("misaligned capacity accepted")
	}
	negEps := svcConfig(2)
	negEps.GroupEpsilon = -1
	if _, err := NewService(negEps); err == nil {
		t.Error("negative epsilon accepted")
	}
	// Candidates index Coords in the signature and refine kernels, which
	// also assume finite non-negative delays: each bad candidate must be
	// refused at construction, not panic in (or quietly skew) an epoch.
	badCandidates := []struct {
		name string
		mut  func(*ServiceConfig)
	}{
		{"out of range", func(c *ServiceConfig) { c.Candidates[4] = 5 }},
		{"negative id", func(c *ServiceConfig) { c.Candidates[0] = -1 }},
		{"duplicate", func(c *ServiceConfig) { c.Candidates[3] = 1 }},
		{"NaN position", func(c *ServiceConfig) { c.Coords[2].Pos[1] = math.NaN() }},
		{"infinite position", func(c *ServiceConfig) { c.Coords[2].Pos[0] = math.Inf(1) }},
		{"negative height", func(c *ServiceConfig) { c.Coords[4].Height = -1 }},
		{"NaN height", func(c *ServiceConfig) { c.Coords[0].Height = math.NaN() }},
		{"wrong dimension", func(c *ServiceConfig) { c.Coords[1].Pos = vec.Vec{50, 0, 0} }},
	}
	for _, tc := range badCandidates {
		cfg := svcConfig(2)
		tc.mut(&cfg)
		if _, err := NewService(cfg); err == nil {
			t.Errorf("candidate with %s accepted", tc.name)
		}
	}
	// A node that is not a candidate is not the service's to judge.
	spare := svcConfig(2)
	spare.Coords = append(spare.Coords, coord.Coordinate{Pos: vec.Vec{math.NaN(), 0}})
	if _, err := NewService(spare); err != nil {
		t.Errorf("invalid non-candidate node rejected: %v", err)
	}
	svc, err := NewService(svcConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("", "c"); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := svc.Register("dup", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("dup", "c"); err == nil {
		t.Error("duplicate id accepted")
	}
}

// TestFleetTracesWhole pins that the flight recorder keeps whole epoch
// trees in fleet mode. The service begins every object's epoch before
// completing any, so 300 trees are open at once — far more than the
// recorder retains. Every retained trace must hold its root, one
// collect span per replica, the decide span and nothing foreign; a
// torn trace (the early spans evicted while its root was open) fails.
func TestFleetTracesWhole(t *testing.T) {
	const objects, ticks, k = 300, 3, 2
	rec := trace.NewFlightRecorder(0, 0)
	cfg := svcConfig(k)
	cfg.Object.Tracer = trace.New(rec, "coordinator", trace.WithRand(rand.New(rand.NewSource(1))))
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]*Object, objects)
	for i := range objs {
		if objs[i], err = svc.Register(fmt.Sprintf("obj-%d", i), fmt.Sprintf("class-%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < ticks; e++ {
		for i, o := range objs {
			feed(t, o, 5, e, i)
		}
		if _, err := svc.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// A trace pinned after it entered leaves the plain window one short,
	// so the recorder holds just under its two budgets.
	traces := rec.Traces()
	if n, most := len(traces), trace.DefaultRecent+trace.DefaultAnomalous; n < trace.DefaultRecent || n > most {
		t.Fatalf("recorder retains %d traces, want %d to %d", n, trace.DefaultRecent, most)
	}
	for _, tr := range traces {
		var root *trace.Span
		kinds := map[string]int{}
		for i := range tr.Spans {
			s := &tr.Spans[i]
			kinds[s.Kind]++
			if s.Root() {
				root = s
			}
		}
		if root == nil || root.Kind != trace.KindEpoch {
			t.Fatalf("trace %s has no epoch root: %+v", tr.TraceID, tr.Spans)
		}
		for _, s := range tr.Spans {
			if s.SpanID != root.SpanID && s.ParentID != root.SpanID {
				t.Fatalf("trace %s: span %q hangs off %s, not the root", tr.TraceID, s.Name, s.ParentID)
			}
		}
		if kinds[trace.KindCollect] != k || kinds[trace.KindDecide] != 1 || len(tr.Spans) != k+2+kinds[trace.KindKMeans] {
			t.Fatalf("trace %s is torn: span kinds %v", tr.TraceID, kinds)
		}
	}
}

// TestProvenanceIdleObjectBesideBusyOne runs one provenance-on tick in
// which one object has accesses and the next has never had any: the
// idle object's capture runs on the scratch the busy one just used and
// must attribute nothing.
func TestProvenanceIdleObjectBesideBusyOne(t *testing.T) {
	cfg := svcConfig(2)
	cfg.Object.Provenance = true
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := svc.Register("busy", "c")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := svc.Register("idle", "c")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, busy, 11, 0, 0)
	if _, err := svc.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	if prov := busy.LastProvenance(); prov == nil || len(prov.PerDC) == 0 {
		t.Fatalf("busy object attributed nothing: %+v", prov)
	}
	prov := idle.LastProvenance()
	if prov == nil {
		t.Fatal("no provenance for the idle object")
	}
	if len(prov.PerDC) != 0 || len(prov.Counterfactuals) != 0 {
		t.Fatalf("idle object attributed demand it never saw: %+v", prov)
	}
}
