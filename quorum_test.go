package georep

import (
	"testing"
)

func TestMeanQuorumDelayFacade(t *testing.T) {
	d := smallDeployment(t)
	_, clients := splitNodes(d, 10)
	reps := []int{0, 1, 2}

	q1, err := d.MeanQuorumDelay(clients, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	closest, err := d.MeanAccessDelay(clients, reps)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != closest {
		t.Errorf("quorum-1 (%v) should equal closest-replica delay (%v)", q1, closest)
	}
	q3, err := d.MeanQuorumDelay(clients, reps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q3 < q1 {
		t.Errorf("quorum-3 (%v) cannot beat quorum-1 (%v)", q3, q1)
	}

	if _, err := d.MeanQuorumDelay(clients, reps, 0); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := d.MeanQuorumDelay(clients, reps, 4); err == nil {
		t.Error("r>len should fail")
	}
	if _, err := d.MeanQuorumDelay(nil, reps, 1); err == nil {
		t.Error("no clients should fail")
	}
	if _, err := d.MeanQuorumDelay(clients, nil, 1); err == nil {
		t.Error("no replicas should fail")
	}
	if _, err := d.MeanQuorumDelay([]int{9999}, reps, 1); err == nil {
		t.Error("out-of-range client should fail")
	}
}

func TestPlaceQuorumOptimalFacade(t *testing.T) {
	d := smallDeployment(t)
	candidates, clients := splitNodes(d, 8)
	cfg := PlaceConfig{K: 2, Candidates: candidates, Clients: clients}

	p2, err := d.PlaceQuorumOptimal(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Replicas) != 2 || p2.MeanDelayMs <= 0 {
		t.Errorf("placement = %+v", p2)
	}
	// Ground truth: no other pair beats it under the r=2 objective.
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			alt, err := d.MeanQuorumDelay(clients, []int{candidates[i], candidates[j]}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if alt < p2.MeanDelayMs-1e-9 {
				t.Fatalf("pair (%d,%d) delay %v beats 'optimal' %v",
					candidates[i], candidates[j], alt, p2.MeanDelayMs)
			}
		}
	}
	if _, err := d.PlaceQuorumOptimal(cfg, 0); err == nil {
		t.Error("r=0 should fail")
	}
}

func TestGroupSetLifecycle(t *testing.T) {
	d := smallDeployment(t)
	candidates, clients := splitNodes(d, 10)
	gs, err := d.NewGroupSet(ManagerConfig{K: 2, Candidates: candidates})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Groups()) != 0 {
		t.Error("fresh group set should be empty")
	}

	// Two groups with disjoint audiences: the first 20 clients hit
	// "hot", the rest hit "cold".
	for i, c := range clients {
		group := "hot"
		if i >= 20 {
			group = "cold"
		}
		servedBy, rtt, err := gs.RecordAccess(group, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if servedBy < 0 || rtt < 0 {
			t.Fatalf("access result: %d, %v", servedBy, rtt)
		}
	}
	reports, err := gs.EndEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %v", reports)
	}
	for name, rep := range reports {
		if len(rep.Replicas) != rep.K {
			t.Errorf("group %s: k=%d but %d replicas", name, rep.K, len(rep.Replicas))
		}
		if rep.SummaryBytes <= 0 {
			t.Errorf("group %s: summary bytes not accounted", name)
		}
	}
	if got := gs.Groups(); len(got) != 2 || got[0] != "cold" || got[1] != "hot" {
		t.Errorf("groups = %v", got)
	}
	if _, err := gs.Replicas("hot"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gs.RecordAccess("hot", -1, 1); err == nil {
		t.Error("out-of-range client should fail")
	}
	_ = gs.TotalMigrations() // must not panic; value depends on geometry
}

// TestGroupSetReportOnMigration: a group's report comes from the same
// Decision mapping as Manager's, so an epoch that migrated says the
// quorum held and, with the write path off, names no leader.
func TestGroupSetReportOnMigration(t *testing.T) {
	d := smallDeployment(t)
	candidates, clients := splitNodes(d, 10)
	gs, err := d.NewGroupSet(ManagerConfig{K: 2, Candidates: candidates})
	if err != nil {
		t.Fatal(err)
	}
	migrated := false
	for epoch := int64(1); epoch <= 3 && !migrated; epoch++ {
		for _, c := range clients {
			if _, _, err := gs.RecordAccess("g", c, 1); err != nil {
				t.Fatal(err)
			}
		}
		reports, err := gs.EndEpoch(epoch)
		if err != nil {
			t.Fatal(err)
		}
		rep := reports["g"]
		if !rep.Migrated {
			continue
		}
		migrated = true
		if !rep.QuorumOK {
			t.Errorf("migrating epoch reports QuorumOK=false: %+v", rep)
		}
		if rep.Leader != -1 {
			t.Errorf("write path off but Leader = %d, want -1", rep.Leader)
		}
	}
	if !migrated {
		t.Fatal("no epoch migrated; the test needs a placement that moves")
	}
}

func TestGroupSetValidation(t *testing.T) {
	d := smallDeployment(t)
	if _, err := d.NewGroupSet(ManagerConfig{K: 0, Candidates: []int{0, 1}}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := d.NewGroupSet(ManagerConfig{K: 1, Candidates: []int{0, 9999}}); err == nil {
		t.Error("out-of-range candidate should fail")
	}
}
