// Integration tests exercising whole-system paths across package
// boundaries: the public API pipeline, the TCP daemon cluster with
// summary collection and object migration over the wire, and grouped
// workload-driven epochs.
package georep_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/georep/georep"
	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/vec"
	"github.com/georep/georep/internal/workload"
)

// TestIntegrationPublicPipeline drives the public API end to end:
// deployment → one-shot placement sanity → manager epochs that improve a
// deliberately bad initial placement.
func TestIntegrationPublicPipeline(t *testing.T) {
	dep, err := georep.Simulate(21, georep.WithNodes(80), georep.WithEmbeddingRounds(150))
	if err != nil {
		t.Fatal(err)
	}
	var candidates, clients []int
	for i := 0; i < dep.Nodes(); i++ {
		if i < 12 {
			candidates = append(candidates, i)
		} else {
			clients = append(clients, i)
		}
	}

	// One-shot: optimal lower-bounds online, online beats random.
	opt, err := dep.Place(georep.StrategyOptimal, georep.PlaceConfig{
		K: 3, Candidates: candidates, Clients: clients, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	on, err := dep.Place(georep.StrategyOnline, georep.PlaceConfig{
		K: 3, Candidates: candidates, Clients: clients, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.MeanDelayMs < opt.MeanDelayMs-1e-9 {
		t.Fatalf("online %v beats optimal %v — objective broken", on.MeanDelayMs, opt.MeanDelayMs)
	}

	// Live manager: pick the WORST initial placement, run epochs, and
	// require the managed placement to close most of the gap to optimal.
	worstReps := candidates[:3]
	worstDelay := -1.0
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			for l := j + 1; l < len(candidates); l++ {
				d, err := dep.MeanAccessDelay(clients, []int{candidates[i], candidates[j], candidates[l]})
				if err != nil {
					t.Fatal(err)
				}
				if d > worstDelay {
					worstDelay = d
					worstReps = []int{candidates[i], candidates[j], candidates[l]}
				}
			}
		}
	}
	mgr, err := dep.NewManager(georep.ManagerConfig{
		K: 3, Candidates: candidates, InitialReplicas: worstReps,
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		for _, c := range clients {
			if _, _, err := mgr.RecordAccess(c, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mgr.EndEpoch(int64(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	final, err := dep.MeanAccessDelay(clients, mgr.Replicas())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst=%.1f managed=%.1f optimal=%.1f", worstDelay, final, opt.MeanDelayMs)
	if final > worstDelay*0.8 {
		t.Errorf("manager barely improved the worst placement: %v -> %v", worstDelay, final)
	}
	if final > opt.MeanDelayMs*2 {
		t.Errorf("managed placement %v too far from optimal %v", final, opt.MeanDelayMs)
	}
}

// TestIntegrationDaemonCluster runs the networked system: TCP daemons
// with emulated WAN delays, client reads routed by coordinates, summary
// collection over the wire, Algorithm 1 at the coordinator, and object
// migration executed with put/delete RPCs.
func TestIntegrationDaemonCluster(t *testing.T) {
	const timescale = 0.002 // keep the test fast
	dep, err := georep.Simulate(31, georep.WithNodes(14), georep.WithEmbeddingRounds(150))
	if err != nil {
		t.Fatal(err)
	}
	candidates := []int{0, 1, 2, 3}
	var clients []int
	for i := 4; i < dep.Nodes(); i++ {
		clients = append(clients, i)
	}
	coords := make([]coord.Coordinate, dep.Nodes())
	for i := range coords {
		c := dep.Coordinate(i)
		coords[i] = coord.Coordinate{Pos: vec.Vec(c.Pos), Height: c.Height}
	}

	conns := make(map[int]*daemon.Client, len(candidates))
	for _, dc := range candidates {
		dc := dc
		n, err := daemon.NewNode(daemon.Config{
			ID: dc, MicroClusters: 6, Dims: len(coords[dc].Pos),
			Delay: func(client int) time.Duration {
				if client < 0 || client >= dep.Nodes() {
					return 0
				}
				return time.Duration(dep.RTT(client, dc) * timescale * float64(time.Millisecond))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		c, err := daemon.DialNode(n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[dc] = c
	}

	// Seed the object at the worst candidate pair.
	const obj = "it"
	payload := []byte("integration payload")
	replicas := []int{candidates[0], candidates[1]}
	worst := -1.0
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			d, err := dep.MeanAccessDelay(clients, []int{candidates[i], candidates[j]})
			if err != nil {
				t.Fatal(err)
			}
			if d > worst {
				worst = d
				replicas = []int{candidates[i], candidates[j]}
			}
		}
	}
	for _, dc := range replicas {
		if err := conns[dc].Put(obj, payload, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Clients read via predicted-closest routing; daemons summarize.
	for round := 0; round < 3; round++ {
		for _, cl := range clients {
			best, bestD := replicas[0], math.Inf(1)
			for _, rep := range replicas {
				if d := dep.PredictedRTT(cl, rep); d < bestD {
					best, bestD = rep, d
				}
			}
			resp, rtt, err := conns[best].Get(cl, dep.Coordinate(cl).Pos, obj)
			if err != nil {
				t.Fatal(err)
			}
			if string(resp.Data) != string(payload) {
				t.Fatalf("payload corrupted: %q", resp.Data)
			}
			if rtt <= 0 {
				t.Fatal("no measured RTT")
			}
		}
	}

	// Coordinator: collect over the wire, decide, migrate via RPC.
	var micros []cluster.Micro
	for _, dc := range replicas {
		ms, nbytes, err := conns[dc].Micros()
		if err != nil {
			t.Fatal(err)
		}
		if nbytes <= 0 {
			t.Fatal("summary bytes not accounted")
		}
		micros = append(micros, ms...)
	}
	if len(micros) == 0 {
		t.Fatal("no summaries collected")
	}
	proposed, err := replica.ProposePlacement(rand.New(rand.NewSource(1)), micros, 2, candidates, coords)
	if err != nil {
		t.Fatal(err)
	}
	oldEst, err := replica.EstimateMeanDelay(micros, replicas, coords)
	if err != nil {
		t.Fatal(err)
	}
	newEst, err := replica.EstimateMeanDelay(micros, proposed, coords)
	if err != nil {
		t.Fatal(err)
	}
	if newEst > oldEst+1e-9 {
		t.Fatalf("proposal estimate got worse: %v -> %v", oldEst, newEst)
	}

	ops, err := store.PlanMigration(store.ObjectID(obj), replicas, proposed)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Copy {
			resp, _, err := conns[op.Source].Get(-1, nil, obj)
			if err != nil {
				t.Fatal(err)
			}
			if err := conns[op.Target].Put(obj, resp.Data, resp.Version+1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := conns[op.Target].Delete(obj); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Exactly the proposed nodes hold the object now.
	inProposed := make(map[int]bool)
	for _, dc := range proposed {
		inProposed[dc] = true
	}
	for _, dc := range candidates {
		st, err := conns[dc].Stats()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if inProposed[dc] {
			want = 1
		}
		if st.Objects != want {
			t.Errorf("DC %d holds %d objects, want %d", dc, st.Objects, want)
		}
	}

	// Ground truth improved (or held) versus the deliberately bad start.
	after, err := dep.MeanAccessDelay(clients, proposed)
	if err != nil {
		t.Fatal(err)
	}
	if after > worst+1e-9 {
		t.Errorf("migration made ground truth worse: %v -> %v", worst, after)
	}
}

// TestIntegrationGroupedWorkload drives a GroupSet with the workload
// generator: two object groups with different regional audiences end up
// placed differently.
func TestIntegrationGroupedWorkload(t *testing.T) {
	dep, err := georep.Simulate(41, georep.WithNodes(60), georep.WithEmbeddingRounds(150))
	if err != nil {
		t.Fatal(err)
	}
	var candidates, clients []int
	for i := 0; i < dep.Nodes(); i++ {
		if i < 10 {
			candidates = append(candidates, i)
		} else {
			clients = append(clients, i)
		}
	}
	// Audience A = clients closest to anchor clients[0]; audience B =
	// the rest (split by predicted RTT).
	anchor := clients[0]
	var audienceA, audienceB []int
	for _, c := range clients {
		if dep.PredictedRTT(c, anchor) < 80 {
			audienceA = append(audienceA, c)
		} else {
			audienceB = append(audienceB, c)
		}
	}
	if len(audienceA) < 5 || len(audienceB) < 5 {
		t.Skipf("degenerate audience split %d/%d", len(audienceA), len(audienceB))
	}

	gs, err := dep.NewGroupSet(georep.ManagerConfig{K: 2, Candidates: candidates})
	if err != nil {
		t.Fatal(err)
	}
	specA, err := workload.UniformClients(audienceA, nil)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := workload.UniformClients(audienceB, nil)
	if err != nil {
		t.Fatal(err)
	}
	genA, err := workload.NewGenerator(rand.New(rand.NewSource(1)), workload.Spec{
		Clients: specA, Objects: 5, ZipfExponent: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	genB, err := workload.NewGenerator(rand.New(rand.NewSource(2)), workload.Spec{
		Clients: specB, Objects: 5, ZipfExponent: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 2; epoch++ {
		aAccesses, err := genA.EpochInto(rng, 300, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range aAccesses {
			if _, _, err := gs.RecordAccess("group-a", a.Client, a.Bytes); err != nil {
				t.Fatal(err)
			}
		}
		bAccesses, err := genB.EpochInto(rng, 300, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range bAccesses {
			if _, _, err := gs.RecordAccess("group-b", a.Client, a.Bytes); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := gs.EndEpoch(int64(epoch)); err != nil {
			t.Fatal(err)
		}
	}

	repsA, err := gs.Replicas("group-a")
	if err != nil {
		t.Fatal(err)
	}
	repsB, err := gs.Replicas("group-b")
	if err != nil {
		t.Fatal(err)
	}
	// Each group's placement should serve its own audience at least as
	// well as it serves the other group's audience.
	aOwn, err := dep.MeanAccessDelay(audienceA, repsA)
	if err != nil {
		t.Fatal(err)
	}
	aCross, err := dep.MeanAccessDelay(audienceA, repsB)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("audience A: own placement %.1f ms, other group's %.1f ms (repsA=%v repsB=%v)",
		aOwn, aCross, repsA, repsB)
	if aOwn > aCross*1.25 {
		t.Errorf("group-a placement (%v ms) much worse for its audience than group-b's (%v ms)",
			aOwn, aCross)
	}
}
