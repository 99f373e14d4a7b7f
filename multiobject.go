package georep

import (
	"fmt"
	"sync"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/placement"
)

// MultiObjectConfig parameterizes a multi-object placement service over
// a deployment: one shared latency/coordinate world, many replicated
// objects, amortized per-epoch placement compute.
type MultiObjectConfig struct {
	// Object is the per-object coordinator template. Its replication
	// degree must be pinned (GrowAbove/ShrinkBelow zero, MinReplicas and
	// MaxReplicas zero or both K; an adaptive range is an error): group
	// solves are sized for the fleet's common k.
	// InitialReplicas and Tracing are refused (capacity accounting picks
	// initial slots; per-object span trees are a single-object feature).
	// A Ledger, when set, is shared by the whole fleet — records carry
	// each object's ID and class and interleave in registration order.
	Object ManagerConfig
	// GroupEpsilon is the demand-signature distance at which objects
	// share one placement solve. 0 keeps every object in its own group —
	// then every object's epoch is byte-identical to a standalone
	// Manager.
	GroupEpsilon float64
	// DriftThreshold skips a group's solve entirely when its demand
	// signature moved less than this since the last solve.
	DriftThreshold float64
	// WarmStart seeds each group's k-means from its previous centroids.
	WarmStart bool
	// Refine runs the exhaustive candidate-subset search after each
	// group solve; MaxRefineCandidates bounds the candidate count it
	// will search (0 = 16).
	Refine              bool
	MaxRefineCandidates int
	// Capacity, when non-nil, gives each candidate DC (aligned with
	// Object.Candidates) a replica-slot budget. Registration then
	// applies admission control and epochs displace replicas
	// deterministically when desired DCs are full.
	Capacity []int
	// Seed drives every epoch's group solves; the multi-object EndEpoch
	// takes no per-call seed so grouped and singleton runs stay
	// reproducible from configuration alone.
	Seed int64
}

// MultiObject is a fleet of replicated objects placed over one
// deployment with shared epoch compute. Register objects, feed accesses
// through their handles, call EndEpoch once per placement period.
type MultiObject struct {
	d   *Deployment
	svc *placement.Service
	reg *metrics.Registry

	mu      sync.Mutex
	handles []*ManagedObject
}

// ManagedObject is one object's handle: routing, access recording, and
// the per-object ground-truth delay window.
type ManagedObject struct {
	mo  *MultiObject
	obj *placement.Object

	mu       sync.Mutex
	delaySum float64
	accesses int64
}

// NewMultiObject builds a multi-object placement service on the
// deployment.
func (d *Deployment) NewMultiObject(cfg MultiObjectConfig) (*MultiObject, error) {
	switch {
	case cfg.Object.InitialReplicas != nil:
		return nil, unsupported("NewMultiObject", "InitialReplicas", "capacity accounting picks initial slots")
	case cfg.Object.Tracing:
		return nil, unsupported("NewMultiObject", "Tracing", "per-object span trees are a single-object feature")
	}
	rcfg, err := d.replicaConfig(cfg.Object)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	rcfg.Metrics = reg
	svc, err := placement.NewService(placement.ServiceConfig{
		Object:              rcfg,
		Candidates:          cfg.Object.Candidates,
		Coords:              d.coords,
		GroupEpsilon:        cfg.GroupEpsilon,
		DriftThreshold:      cfg.DriftThreshold,
		WarmStart:           cfg.WarmStart,
		Refine:              cfg.Refine,
		MaxRefineCandidates: cfg.MaxRefineCandidates,
		Capacity:            cfg.Capacity,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("georep: new multi-object service: %w", err)
	}
	return &MultiObject{d: d, svc: svc, reg: reg}, nil
}

// Register adds an object under an id and workload class. With capacity
// accounting on, registration is rejected when the fleet's aggregate
// replica demand would exceed the aggregate slot budget.
func (mo *MultiObject) Register(id, class string) (*ManagedObject, error) {
	obj, err := mo.svc.Register(id, class)
	if err != nil {
		return nil, fmt.Errorf("georep: register object: %w", err)
	}
	h := &ManagedObject{mo: mo, obj: obj}
	mo.mu.Lock()
	mo.handles = append(mo.handles, h)
	mo.mu.Unlock()
	return h, nil
}

// Objects returns the number of registered objects.
func (mo *MultiObject) Objects() int { return mo.svc.Objects() }

// RecordAccess routes one read of this object from the client node to
// its predicted-closest replica and returns the serving replica with the
// ground-truth RTT.
func (h *ManagedObject) RecordAccess(clientNode int, weight float64) (servedBy int, rttMs float64, err error) {
	if clientNode < 0 || clientNode >= h.mo.d.matrix.N() {
		return 0, 0, fmt.Errorf("georep: client node %d out of range", clientNode)
	}
	rep, err := h.obj.Record(h.mo.d.coords[clientNode], weight)
	if err != nil {
		return rep, 0, err
	}
	rtt := h.mo.d.matrix.RTT(clientNode, rep)
	h.mu.Lock()
	h.delaySum += rtt
	h.accesses++
	h.mu.Unlock()
	return rep, rtt, nil
}

// Replicas returns the object's current replica locations.
func (h *ManagedObject) Replicas() []int { return h.obj.Replicas() }

// MultiEpochReport summarizes one fleet-wide epoch: how much solve work
// the demand-signature grouping dispatched versus the naive
// one-solve-per-object bill, and what the capacity settlement did. Its
// fields mirror placement.EpochStats in order and type (EndEpoch
// converts).
type MultiEpochReport struct {
	// Epoch counts completed fleet epochs; Objects the registered fleet;
	// Decided how many objects reached the placement machinery (quorum
	// met, non-silent).
	Epoch, Objects, Decided int
	// Groups is how many demand-signature groups formed; Solves how many
	// ran a k-means; DriftSkips how many reused a cached placement.
	Groups, Solves, DriftSkips int
	// Refined counts groups the branch-and-bound search improved;
	// BoundHits incumbents served from the signature-keyed cache.
	Refined, BoundHits int
	// Migrated counts objects that adopted a changed placement;
	// Displaced replicas pushed off their preferred DC by capacity.
	Migrated, Displaced int
}

// EndEpoch runs one fleet-wide placement epoch: every object's summaries
// are collected, objects with near-identical demand signatures share one
// placement solve, capacity is settled, and each object migrates (or
// not) under its own policy. Deterministic for a fixed configuration and
// workload.
func (mo *MultiObject) EndEpoch() (MultiEpochReport, error) {
	// Close each object's observed-delay window first so ledger records
	// carry the epoch's ground truth.
	mo.mu.Lock()
	handles := mo.handles
	mo.mu.Unlock()
	for _, h := range handles {
		h.mu.Lock()
		mean := 0.0
		if h.accesses > 0 {
			mean = h.delaySum / float64(h.accesses)
		}
		n := h.accesses
		h.delaySum, h.accesses = 0, 0
		h.mu.Unlock()
		h.obj.RecordObserved(mean, n)
	}
	st, err := mo.svc.EndEpoch()
	if err != nil {
		return MultiEpochReport{}, fmt.Errorf("georep: multi-object epoch: %w", err)
	}
	return MultiEpochReport(st), nil
}

// Snapshot captures the fleet's shared metrics registry (per-object
// manager metrics aggregate across the fleet; placement_* gauges and
// counters describe the service's amortization and capacity activity).
func (mo *MultiObject) Snapshot() ManagerSnapshot {
	return snapshotOf(mo.reg)
}
