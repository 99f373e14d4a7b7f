// Package store is the wide-area object-storage substrate the paper
// assumes (§II-A): a read-mostly replicated key-value store in the spirit
// of Dynamo/PNUTS, reduced to what replica placement needs — versioned
// objects, a placement catalog mapping each object (group) to its replica
// locations, and migration plans that turn a placement change into copy
// and delete operations.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ObjectID names a data object.
type ObjectID string

// Object is a versioned blob. Versions are writer-assigned and
// monotonically increasing; replicas resolve conflicts last-writer-wins,
// which is the consistency level the paper assumes ("accessing only one
// data replica leads to fast data acquisition at the expense of
// consistency").
type Object struct {
	ID      ObjectID
	Data    []byte
	Version uint64
}

// ErrNotFound is returned when an object is absent from a store.
var ErrNotFound = errors.New("store: object not found")

// ErrStaleWrite is returned when a Put carries a version at or below the
// stored one.
var ErrStaleWrite = errors.New("store: stale write")

// Store is one data center's local object store. It is safe for
// concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[ObjectID]Object
}

// New returns an empty store.
func New() *Store {
	return &Store{objects: make(map[ObjectID]Object)}
}

// Get returns a copy of the object.
func (s *Store) Get(id ObjectID) (Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[id]
	if !ok {
		return Object{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	o.Data = append([]byte(nil), o.Data...)
	return o, nil
}

// Put stores the object if its version is newer than any stored version.
// Version 0 is reserved for "unversioned" and always rejected.
func (s *Store) Put(o Object) error {
	if o.ID == "" {
		return errors.New("store: empty object id")
	}
	if o.Version == 0 {
		return errors.New("store: version must be positive")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.objects[o.ID]; ok && cur.Version >= o.Version {
		return fmt.Errorf("%w: %s has v%d, got v%d", ErrStaleWrite, o.ID, cur.Version, o.Version)
	}
	o.Data = append([]byte(nil), o.Data...)
	s.objects[o.ID] = o
	return nil
}

// Delete removes an object; deleting a missing object is a no-op.
func (s *Store) Delete(id ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, id)
}

// Keys returns all object IDs in sorted order.
func (s *Store) Keys() []ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectID, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalBytes returns the summed payload size — what a migration of the
// whole store would transfer.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, o := range s.objects {
		n += int64(len(o.Data))
	}
	return n
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// Catalog maps each object to the data-center nodes holding its replicas.
// The coordinator owns the catalog; clients consult it (or a cache of it)
// to find replicas. Safe for concurrent use.
type Catalog struct {
	mu         sync.RWMutex
	placements map[ObjectID][]int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{placements: make(map[ObjectID][]int)}
}

// Set records the replica locations of an object. The slice is copied and
// sorted. An empty location list removes the entry.
func (c *Catalog) Set(id ObjectID, replicas []int) error {
	if id == "" {
		return errors.New("store: empty object id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(replicas) == 0 {
		delete(c.placements, id)
		return nil
	}
	seen := make(map[int]bool, len(replicas))
	cp := make([]int, 0, len(replicas))
	for _, r := range replicas {
		if seen[r] {
			return fmt.Errorf("store: duplicate replica %d for %s", r, id)
		}
		seen[r] = true
		cp = append(cp, r)
	}
	sort.Ints(cp)
	c.placements[id] = cp
	return nil
}

// Replicas returns a copy of the object's replica locations, or nil if
// the object is unknown.
func (c *Catalog) Replicas(id ObjectID) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	reps, ok := c.placements[id]
	if !ok {
		return nil
	}
	return append([]int(nil), reps...)
}

// MigrationOp is one step of a placement change.
type MigrationOp struct {
	// Object is the object to act on.
	Object ObjectID
	// Copy is true for a copy (Source → Target) and false for a delete
	// at Target.
	Copy bool
	// Source is a node already holding the object (copy ops only).
	Source int
	// Target is the node to copy to or delete from.
	Target int
}

// PlanMigration diffs the old and new placements of an object and
// returns the copy ops (to every newly added location, sourced from the
// surviving replica when possible, else from any old one) followed by the
// delete ops for abandoned locations. Copies come first so the data is
// never under-replicated mid-migration.
func PlanMigration(id ObjectID, old, new []int) ([]MigrationOp, error) {
	if id == "" {
		return nil, errors.New("store: empty object id")
	}
	if len(old) == 0 {
		return nil, fmt.Errorf("store: object %s has no existing replicas to copy from", id)
	}
	oldSet := make(map[int]bool, len(old))
	for _, n := range old {
		oldSet[n] = true
	}
	newSet := make(map[int]bool, len(new))
	for _, n := range new {
		newSet[n] = true
	}

	// Prefer a source that survives the migration: it cannot disappear
	// while copies are in flight.
	source := old[0]
	for _, n := range old {
		if newSet[n] {
			source = n
			break
		}
	}

	var ops []MigrationOp
	added := make([]int, 0, len(new))
	for _, n := range new {
		if !oldSet[n] {
			added = append(added, n)
		}
	}
	sort.Ints(added)
	for _, n := range added {
		ops = append(ops, MigrationOp{Object: id, Copy: true, Source: source, Target: n})
	}
	removed := make([]int, 0, len(old))
	for _, n := range old {
		if !newSet[n] {
			removed = append(removed, n)
		}
	}
	sort.Ints(removed)
	for _, n := range removed {
		ops = append(ops, MigrationOp{Object: id, Copy: false, Target: n})
	}
	return ops, nil
}
