package replica

import (
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/vec"
)

// TestHoldMigrationsGate drives the demand-shift scenario that
// normally migrates, with the SLO hold hook answering "budget spent":
// the decision must keep the placement, mark Held, and count it — and
// the identical epoch with the hook answering false must migrate.
func TestHoldMigrationsGate(t *testing.T) {
	run := func(hold bool) (Decision, *Manager, *metrics.Registry) {
		reg := metrics.NewRegistry()
		cfg := Config{K: 2, M: 6, Dims: 2, Metrics: reg,
			HoldMigrations: func() bool { return hold }}
		m := managerFixture(t, cfg)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 300; i++ {
			x := 95 + rng.Float64()*5
			if i%2 == 0 {
				x = 148 + rng.Float64()*4
			}
			if _, err := m.Record(coord.Coordinate{Pos: vec.Vec{x, 0}}, 1); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := m.EndEpoch(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return dec, m, reg
	}

	dec, m, reg := run(true)
	if dec.Migrate || !dec.Held {
		t.Fatalf("held epoch: Migrate=%v Held=%v; want false/true", dec.Migrate, dec.Held)
	}
	if got := m.Replicas(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("held epoch moved replicas: %v", got)
	}
	if v := reg.Counter("replica_migrations_held_total").Value(); v != 1 {
		t.Fatalf("replica_migrations_held_total = %d; want 1", v)
	}

	dec, _, reg = run(false)
	if !dec.Migrate || dec.Held {
		t.Fatalf("free epoch: Migrate=%v Held=%v; want true/false", dec.Migrate, dec.Held)
	}
	if v := reg.Counter("replica_migrations_held_total").Value(); v != 0 {
		t.Fatalf("replica_migrations_held_total = %d; want 0", v)
	}
}
