package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestStorePutGet(t *testing.T) {
	s := New()
	if err := s.Put(Object{ID: "a", Data: []byte("v1"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	o, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "v1" || o.Version != 1 {
		t.Errorf("got %+v", o)
	}
	// Returned data is a copy.
	o.Data[0] = 'X'
	o2, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(o2.Data) != "v1" {
		t.Error("Get returned aliased data")
	}
}

func TestStorePutValidation(t *testing.T) {
	s := New()
	if err := s.Put(Object{ID: "", Version: 1}); err == nil {
		t.Error("empty id should fail")
	}
	if err := s.Put(Object{ID: "a", Version: 0}); err == nil {
		t.Error("version 0 should fail")
	}
}

func TestStoreLastWriterWins(t *testing.T) {
	s := New()
	if err := s.Put(Object{ID: "a", Data: []byte("new"), Version: 5}); err != nil {
		t.Fatal(err)
	}
	err := s.Put(Object{ID: "a", Data: []byte("old"), Version: 3})
	if !errors.Is(err, ErrStaleWrite) {
		t.Errorf("stale write err = %v", err)
	}
	err = s.Put(Object{ID: "a", Data: []byte("same"), Version: 5})
	if !errors.Is(err, ErrStaleWrite) {
		t.Errorf("equal-version write err = %v", err)
	}
	o, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "new" {
		t.Errorf("data = %q", o.Data)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := New()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestStoreDeleteAndKeys(t *testing.T) {
	s := New()
	for _, id := range []ObjectID{"b", "a", "c"} {
		if err := s.Put(Object{ID: id, Data: []byte("x"), Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("b")
	s.Delete("missing") // no-op
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "c" {
		t.Errorf("keys = %v", keys)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if _, err := s.Get("b"); err == nil {
		t.Error("deleted object still readable")
	}
	if s.TotalBytes() != 2 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				id := ObjectID(fmt.Sprintf("obj-%d", g))
				_ = s.Put(Object{ID: id, Data: []byte("d"), Version: uint64(i)})
				if _, err := s.Get(id); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				s.Keys()
				s.TotalBytes()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if err := c.Set("a", []int{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	got := c.Replicas("a")
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("replicas = %v, want sorted [1 2 3]", got)
	}
	// Returned slice is a copy.
	got[0] = 99
	if c.Replicas("a")[0] != 1 {
		t.Error("Replicas returned aliased slice")
	}
	if c.Replicas("missing") != nil {
		t.Error("unknown object should be nil")
	}
	if err := c.Set("", []int{1}); err == nil {
		t.Error("empty id should fail")
	}
	if err := c.Set("a", []int{1, 1}); err == nil {
		t.Error("duplicate replicas should fail")
	}
	if err := c.Set("a", nil); err != nil {
		t.Fatal(err)
	}
	if c.Replicas("a") != nil {
		t.Error("empty set should remove the entry")
	}
}

func TestPlanMigration(t *testing.T) {
	ops, err := PlanMigration("a", []int{1, 2, 3}, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// One copy (to 4) then one delete (at 1).
	if len(ops) != 2 {
		t.Fatalf("ops = %+v", ops)
	}
	if !ops[0].Copy || ops[0].Target != 4 {
		t.Errorf("first op should copy to 4: %+v", ops[0])
	}
	// Source must survive the migration.
	if ops[0].Source != 2 && ops[0].Source != 3 {
		t.Errorf("copy source %d should be a surviving replica", ops[0].Source)
	}
	if ops[1].Copy || ops[1].Target != 1 {
		t.Errorf("second op should delete at 1: %+v", ops[1])
	}
}

func TestPlanMigrationNoOverlap(t *testing.T) {
	ops, err := PlanMigration("a", []int{1}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Two copies from the only old holder, then delete at 1.
	if len(ops) != 3 {
		t.Fatalf("ops = %+v", ops)
	}
	for _, op := range ops[:2] {
		if !op.Copy || op.Source != 1 {
			t.Errorf("copy op = %+v", op)
		}
	}
	if ops[2].Copy || ops[2].Target != 1 {
		t.Errorf("delete op = %+v", ops[2])
	}
}

func TestPlanMigrationValidation(t *testing.T) {
	if _, err := PlanMigration("", []int{1}, []int{2}); err == nil {
		t.Error("empty id should fail")
	}
	if _, err := PlanMigration("a", nil, []int{2}); err == nil {
		t.Error("no source replicas should fail")
	}
}

func TestPlanMigrationIdentity(t *testing.T) {
	ops, err := PlanMigration("a", []int{1, 2}, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Errorf("identity migration should be empty, got %+v", ops)
	}
}

// Property: after applying a migration plan, exactly the new replica set
// holds the object (assuming it started exactly at the old set).
func TestQuickMigrationReachesTarget(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func(n int) int { // tiny deterministic PRNG
			r = r*6364136223846793005 + 1442695040888963407
			v := int(r>>33) % n
			if v < 0 {
				v = -v
			}
			return v
		}
		nodes := 8
		oldN := 1 + next(4)
		newN := 1 + next(4)
		pick := func(n int) []int {
			seen := make(map[int]bool)
			var out []int
			for len(out) < n {
				c := next(nodes)
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
			return out
		}
		old, new := pick(oldN), pick(newN)

		holds := make(map[int]bool)
		for _, n := range old {
			holds[n] = true
		}
		ops, err := PlanMigration("x", old, new)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if !op.Copy {
				delete(holds, op.Target)
				continue
			}
			if !holds[op.Source] {
				return false // copy from a node that no longer holds it
			}
			holds[op.Target] = true
		}
		inNew := make(map[int]bool)
		for _, n := range new {
			inNew[n] = true
		}
		for n := 0; n < nodes; n++ {
			if holds[n] != inNew[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
