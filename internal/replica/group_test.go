package replica

import (
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

func groupFixture(t *testing.T) *GroupManager {
	t.Helper()
	coords := lineCoords(0, 50, 100, 150)
	g, err := NewGroupManager(Config{K: 2, M: 4, Dims: 2}, []int{0, 1, 2, 3}, coords)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGroupManagerValidatesEagerly(t *testing.T) {
	coords := lineCoords(0, 50)
	if _, err := NewGroupManager(Config{K: 0, M: 4, Dims: 2}, []int{0, 1}, coords); err == nil {
		t.Error("bad config should fail at construction")
	}
}

func TestGroupLazyCreation(t *testing.T) {
	g := groupFixture(t)
	if got := g.Groups(); len(got) != 0 {
		t.Fatalf("fresh group manager should be empty, got %v", got)
	}
	m1, err := g.Group("videos")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := g.Group("videos")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("same name should return the same manager")
	}
	if _, err := g.Group(""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := g.Group("images"); err != nil {
		t.Fatal(err)
	}
	got := g.Groups()
	if len(got) != 2 || got[0] != "images" || got[1] != "videos" {
		t.Errorf("groups = %v", got)
	}
}

func TestGroupsMigrateIndependently(t *testing.T) {
	g := groupFixture(t)
	rng := rand.New(rand.NewSource(1))
	// "videos" demand sits at x≈150, "images" demand at x≈0.
	for i := 0; i < 200; i++ {
		if _, err := g.Record("videos", coord.Coordinate{Pos: vec.Vec{148 + rng.Float64()*4, 0}}, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Record("images", coord.Coordinate{Pos: vec.Vec{rng.Float64() * 4, 0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	decs, err := g.EndEpoch(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 2 {
		t.Fatalf("decisions = %v", decs)
	}
	vids, err := g.Replicas("videos")
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := g.Replicas("images")
	if err != nil {
		t.Fatal(err)
	}
	// Videos should hold node 3 (x=150); images should hold node 0.
	if !contains(vids, 3) {
		t.Errorf("videos replicas %v should include node 3", vids)
	}
	if !contains(imgs, 0) {
		t.Errorf("images replicas %v should include node 0", imgs)
	}
	if g.TotalMigrations() == 0 {
		t.Error("expected at least one migration across groups")
	}
}

func TestGroupReplicasCreatesGroup(t *testing.T) {
	g := groupFixture(t)
	reps, err := g.Replicas("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Errorf("fresh group replicas = %v", reps)
	}
}

func TestGroupEndEpochEmpty(t *testing.T) {
	g := groupFixture(t)
	decs, err := g.EndEpoch(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 0 {
		t.Errorf("no groups should yield no decisions, got %v", decs)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
