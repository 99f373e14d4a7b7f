// Multi-object placement: one Service owns many replicated objects over
// a single latency/coordinate world and amortizes the per-epoch
// placement compute across them. The single-object coordinator
// (replica.Manager) pays a full weighted k-means + candidate mapping per
// object per epoch; a production fleet places far too many objects for
// that. The service cuts the bill three ways, following the grouping
// idea of cost-efficient multi-site placement (arXiv:1802.01289) grafted
// onto this repo's Algorithm 1 machinery:
//
//  1. Demand-signature grouping. Every epoch each object's collected
//     micro-clusters are projected to a normalized per-candidate demand
//     vector (its "signature"); objects within GroupEpsilon of a group
//     leader share that leader's single k-means + candidate-search
//     solve. With GroupEpsilon = 0 every group is a singleton and the
//     service is byte-identical to driving one replica.Manager per
//     object (the exact fallback the equivalence tests pin).
//  2. Warm-started incremental k-means. A group's solve seeds from the
//     centroids of its previous solve (consuming no randomness), and
//     when the leader's signature has drifted less than DriftThreshold
//     since the last solve the group skips the solve entirely and
//     reuses its cached placement.
//  3. Cached branch-and-bound bounds. The optional Refine stage runs an
//     exhaustive candidate-subset search per group; its incumbent is
//     seeded from a cache keyed by the group's quantized signature, so
//     a repeated demand shape starts the search at (typically) the
//     optimal value and prunes almost everything.
//
// Placements can also compete for per-DC capacity slots; see
// capacity_slots.go for the deterministic displacement rules.
package placement

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
)

// ServiceConfig parameterizes a multi-object placement service.
type ServiceConfig struct {
	// Object is the per-object coordinator template: replication degree,
	// micro-cluster budget, recency, migration economics, metrics,
	// tracer, and (shared) ledger. ObjectID/Class are stamped per object
	// at registration. KPolicy must pin k (no demand thresholds): group
	// solves are sized for the fleet's common k.
	Object replica.Config
	// Candidates are the data-center node ids eligible to host replicas;
	// Coords must cover every node routed or hosted.
	Candidates []int
	Coords     []coord.Coordinate
	// GroupEpsilon is the maximum Euclidean distance in signature space
	// (normalized per-candidate demand vectors, so components sum to 1)
	// at which an object joins an existing group. 0 keeps every object
	// in its own group — the exact mode, byte-identical to per-object
	// coordinators.
	GroupEpsilon float64
	// DriftThreshold skips a group's solve entirely when its leader's
	// signature moved less than this (Euclidean) since the last solve,
	// reusing the cached placement. 0 solves every epoch.
	DriftThreshold float64
	// WarmStart seeds each group solve from the previous solve's
	// centroids instead of k-means++ (no randomness consumed). Off, the
	// service re-seeds every solve exactly as a per-object coordinator
	// would.
	WarmStart bool
	// Refine runs an exhaustive branch-and-bound candidate-subset search
	// after each group's k-means proposal, adopting the subset with the
	// lowest estimated mean delay. Incumbents are cached by quantized
	// signature (see refine.go).
	Refine bool
	// MaxRefineCandidates bounds the candidate count Refine will search
	// exhaustively (C(n,k) nodes); groups over larger candidate sets
	// keep the k-means proposal. Zero means 16.
	MaxRefineCandidates int
	// Capacity, when non-nil, is the replica-slot budget of each
	// candidate DC (aligned with Candidates). Placements then compete
	// for slots with deterministic displacement; see capacity_slots.go.
	Capacity []int
	// Seed derives the per-epoch, per-group random streams: group solves
	// draw from rand.NewSource(Seed + epoch*epochSeedStride + leaderIndex), which is
	// exactly the stream a naive per-object loop would give object
	// leaderIndex, so singleton groups reproduce it bit-for-bit.
	Seed int64
}

// epochSeedStride separates per-epoch seed blocks; it exceeds any
// plausible object count so (epoch, object) pairs never collide.
const epochSeedStride = 1 << 32

// Validate checks the configuration.
func (c ServiceConfig) Validate() error {
	obj := c.Object
	if obj.KPolicy.Min == 0 && obj.KPolicy.Max == 0 {
		// NewManager pins an unset policy to K; validate the same shape.
		obj.KPolicy.Min, obj.KPolicy.Max = obj.K, obj.K
	}
	if err := obj.Validate(); err != nil {
		return err
	}
	kp := c.Object.KPolicy
	if kp.GrowAbove != 0 || kp.ShrinkBelow != 0 {
		return fmt.Errorf("placement: service requires pinned k; KPolicy demand thresholds must be zero")
	}
	if kp.Min != 0 && kp.Min != kp.Max {
		return fmt.Errorf("placement: service requires pinned k; KPolicy range [%d,%d] adapts", kp.Min, kp.Max)
	}
	if len(c.Candidates) == 0 {
		return fmt.Errorf("placement: no candidate data centers")
	}
	// The signature and refine kernels index Coords by candidate id and
	// assume finite, non-negative delays (see exactSearch), so a bad
	// candidate is rejected here rather than met in the hot path.
	seen := make(map[int]bool, len(c.Candidates))
	for i, cand := range c.Candidates {
		if cand < 0 || cand >= len(c.Coords) {
			return fmt.Errorf("placement: candidate %d (node %d) outside the %d coordinates", i, cand, len(c.Coords))
		}
		if seen[cand] {
			return fmt.Errorf("placement: candidate node %d listed twice", cand)
		}
		seen[cand] = true
		co := c.Coords[cand]
		if !co.IsValid() {
			return fmt.Errorf("placement: candidate node %d has an invalid coordinate %v", cand, co)
		}
		if co.Pos.Dim() != obj.Dims {
			return fmt.Errorf("placement: candidate node %d has %d dimensions, objects have %d", cand, co.Pos.Dim(), obj.Dims)
		}
	}
	if c.GroupEpsilon < 0 || c.DriftThreshold < 0 {
		return fmt.Errorf("placement: negative epsilon/threshold")
	}
	if c.Capacity != nil {
		if len(c.Capacity) != len(c.Candidates) {
			return fmt.Errorf("placement: %d capacity slots for %d candidates", len(c.Capacity), len(c.Candidates))
		}
		for i, s := range c.Capacity {
			if s < 0 {
				return fmt.Errorf("placement: negative capacity %d at candidate %d", s, i)
			}
		}
	}
	return nil
}

// Object is one replicated object registered with a Service: a handle
// over its coordinator plus the service's per-object grouping state.
// Record-path methods are safe for concurrent use with each other and
// with the service's epoch tick.
type Object struct {
	ID    string
	Class string

	mu  sync.Mutex // guards mgr and lastDec
	mgr *replica.Manager

	idx     int              // registration index: the deterministic tie-breaker
	lastDec replica.Decision // the most recent epoch's decision

	// Epoch-scratch grouping state, touched only under the service lock:
	sig      []float64 // this epoch's demand signature
	lastSig  []float64 // leader only: signature at last solve
	pending  *replica.PendingEpoch
	demand   float64
	leader   int   // index of this object's group leader this epoch (-1: not grouped)
	solved   bool  // leader only: lastSig/cached are valid
	cached   []int // leader only: placement of the last solve
	warm     []vec.Vec
	final    []int // this epoch's post-capacity placement
	occupied []int // capacity mode: slots this object currently holds (node ids)

	// Leader-only provenance capture (Object template has Provenance
	// on): the signature drift measured at this epoch's dispatch,
	// whether it skipped the solve, and the alternative placements the
	// solve actually scored (read-objective mean cost per candidate).
	// The frontier aliases leader scratch; CompleteEpoch copies what it
	// keeps.
	drift        float64
	driftSkipped bool
	frontier     []provenance.Candidate
}

// Service places many objects over one shared world with amortized
// per-epoch compute. Register objects, feed accesses through the object
// handles, and call EndEpoch once per placement period.
type Service struct {
	mu  sync.Mutex
	cfg ServiceConfig
	// fleet holds, once, what every object's coordinator would otherwise
	// copy: the world tables, metric handles and completion scratch. Its
	// scratch is safe to share because phase 4 completes objects one at a
	// time under mu.
	fleet   *replica.Fleet
	objects []*Object
	byID    map[string]*Object
	epoch   int

	occ []int // capacity mode: per-candidate occupied slots

	// Epoch scratch reused across epochs — the group-solve dispatch loop
	// (signatures, grouping, drift checks) allocates nothing in steady
	// state.
	leaders   []int   // group leaders in formation order (object indexes)
	order     []int   // capacity priority order
	disp      []int   // capacity mode: per-object displaced counts this epoch
	cent      vec.Vec // centroid scratch for signature accumulation
	candIdx   map[int]int
	kmScratch cluster.KMeansScratch
	bounds    *boundCache
	ref       exactSearch
	// Refine provenance: the incumbent's source, the total weight that
	// turns a weighted total into a mean delay, and the leader whose
	// frontier collects displaced incumbents.
	refSrc    provenance.Source
	refMass   float64
	refLeader *Object
	rng       *rand.Rand // reseeded per group solve

	stats EpochStats
	met   serviceMetrics
}

type serviceMetrics struct {
	objects   *metrics.Gauge
	groups    *metrics.Gauge
	solves    *metrics.Counter
	skips     *metrics.Counter
	refines   *metrics.Counter
	boundHits *metrics.Counter
	displaced *metrics.Counter
}

// EpochStats summarizes one multi-object epoch: how much solve work the
// grouping actually dispatched versus the naive per-object bill.
type EpochStats struct {
	Epoch   int
	Objects int
	// Decided counts objects whose epoch reached the placement machinery
	// (quorum met, non-silent).
	Decided int
	// Groups is how many demand-signature groups the decided objects
	// formed; Solves how many of those ran a k-means this epoch;
	// DriftSkips how many reused their cached placement instead.
	Groups     int
	Solves     int
	DriftSkips int
	// Refined counts groups whose branch-and-bound refinement improved
	// on the k-means proposal; BoundHits counts refinements whose
	// incumbent came out of the signature-keyed bound cache.
	Refined   int
	BoundHits int
	// Migrated counts objects that adopted a changed placement;
	// Displaced counts replicas pushed off their preferred DC by
	// capacity accounting.
	Migrated  int
	Displaced int
}

// NewService builds a multi-object placement service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fleet, err := replica.NewFleet(cfg.Object, cfg.Candidates, cfg.Coords)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		fleet:   fleet,
		byID:    make(map[string]*Object),
		cent:    vec.New(cfg.Object.Dims),
		candIdx: make(map[int]int, len(cfg.Candidates)),
		rng:     rand.New(rand.NewSource(0)),
	}
	for i, c := range cfg.Candidates {
		s.candIdx[c] = i
	}
	if cfg.Capacity != nil {
		s.occ = make([]int, len(cfg.Candidates))
	}
	if cfg.Refine {
		s.bounds = newBoundCache()
		if cfg.Object.Provenance {
			s.ref.displaced = s.displacedIncumbent
		}
	}
	if r := cfg.Object.Metrics; r != nil {
		s.met = serviceMetrics{
			objects:   r.Gauge("placement_objects"),
			groups:    r.Gauge("placement_groups"),
			solves:    r.Counter("placement_group_solves_total"),
			skips:     r.Counter("placement_drift_skips_total"),
			refines:   r.Counter("placement_refined_total"),
			boundHits: r.Counter("placement_bound_cache_hits_total"),
			displaced: r.Counter("placement_displaced_replicas_total"),
		}
	}
	return s, nil
}

// Register adds an object to the fleet under the service's per-object
// template and returns its handle. With capacity accounting on, the
// initial placement claims k slots on distinct candidates
// (least-occupied first, ties in candidate order) and registration is
// REJECTED when the fleet's
// aggregate demand would exceed the aggregate slot budget or no k
// distinct candidates have a free slot — the admission control a real
// fleet applies before accepting writes for a new object.
func (s *Service) Register(id, class string) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		return nil, fmt.Errorf("placement: empty object id")
	}
	if _, dup := s.byID[id]; dup {
		return nil, fmt.Errorf("placement: object %q already registered", id)
	}
	k := s.cfg.Object.K
	var initial []int
	var claimed []int
	if s.cfg.Capacity != nil {
		total := 0
		for _, c := range s.cfg.Capacity {
			total += c
		}
		if need := (len(s.objects) + 1) * k; need > total {
			return nil, fmt.Errorf("placement: rejecting %q: fleet needs %d replica slots, capacity is %d", id, need, total)
		}
		// Least-occupied first (stable on candidate order) so initial
		// claims spread: a fleet that fits the aggregate budget is never
		// rejected just because first-fit packed the early candidates.
		order := make([]int, len(s.cfg.Candidates))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return s.occ[order[a]] < s.occ[order[b]]
		})
		for _, ci := range order {
			if len(initial) == k {
				break
			}
			if s.occ[ci] < s.cfg.Capacity[ci] {
				initial = append(initial, s.cfg.Candidates[ci])
				claimed = append(claimed, ci)
			}
		}
		if len(initial) < k {
			return nil, fmt.Errorf("placement: rejecting %q: fewer than k=%d distinct candidates have free slots", id, k)
		}
	}
	mgr, err := s.fleet.NewManager(id, class, initial)
	if err != nil {
		return nil, err
	}
	for _, ci := range claimed {
		s.occ[ci]++
	}
	o := &Object{
		ID:     id,
		Class:  class,
		mgr:    mgr,
		idx:    len(s.objects),
		sig:    make([]float64, len(s.cfg.Candidates)),
		leader: -1,
	}
	if s.cfg.Capacity != nil {
		o.occupied = append([]int(nil), mgr.Replicas()...)
	}
	s.objects = append(s.objects, o)
	s.byID[id] = o
	s.met.objects.Set(float64(len(s.objects)))
	return o, nil
}

// Objects returns the number of registered objects.
func (s *Service) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Record routes one access to the object's closest replica and folds it
// into that replica's summary.
func (o *Object) Record(client coord.Coordinate, weight float64) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mgr.Record(client, weight)
}

// RecordObserved reports the object's measured mean access delay for the
// epoch in progress (ledger ground truth).
func (o *Object) RecordObserved(meanMs float64, accesses int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.mgr.RecordObserved(meanMs, accesses)
}

// Replicas returns the object's current replica locations.
func (o *Object) Replicas() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mgr.Replicas()
}

// LastProvenance returns the provenance record the object's most recent
// epoch captured, or nil when the service runs without provenance. The
// record is reused across epochs; copy it to keep it past the next tick.
func (o *Object) LastProvenance() *provenance.Record {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mgr.LastProvenance()
}

// EndEpoch runs one fleet-wide placement epoch: collect every object,
// group by demand signature, solve once per group (warm-started,
// drift-skipped, optionally refined), settle capacity, and complete
// every object's epoch with its group's placement. Objects below quorum
// or with silent epochs complete unchanged, exactly as their standalone
// coordinator would. Deterministic: object registration order drives
// grouping, seeding, and completion; rerunning a seeded workload
// reproduces every placement and ledger byte.
func (s *Service) EndEpoch() (EpochStats, error) {
	return s.EndEpochDegraded(nil)
}

// EndEpochDegraded is EndEpoch under partial failure; reachable reports
// whether a node's summary can be collected this epoch.
//
// The tick's ledger records go out as one batch: they reach the file in
// writes of at most 256 KiB, the last before EndEpochDegraded returns, and
// a failed write is returned here (see ledger.Ledger.BeginBatch).
func (s *Service) EndEpochDegraded(reachable func(node int) bool) (_ EpochStats, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if led := s.cfg.Object.Ledger; led != nil {
		led.BeginBatch()
		defer func() {
			if ferr := led.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("placement: %w", ferr)
			}
		}()
	}
	s.epoch++
	s.stats = EpochStats{Epoch: s.epoch, Objects: len(s.objects)}

	// Phase 1 — collect: begin every object's epoch and derive demand
	// signatures. BeginEpoch aliases per-manager scratch, so each
	// object's pending view is independent.
	for _, o := range s.objects {
		o.mu.Lock()
		p, err := o.mgr.BeginEpoch(reachable)
		o.mu.Unlock()
		if err != nil {
			s.abandonFrom(o.idx)
			return s.stats, fmt.Errorf("placement: object %q: %w", o.ID, err)
		}
		o.pending = p
		o.demand = p.Demand()
		o.leader = -1
		if p.CanDecide() {
			s.stats.Decided++
			s.signature(o)
		}
	}

	// Phase 2 — dispatch: group the decided objects and run one solve
	// per group. This loop is the amortization point and allocates
	// nothing in steady state except the solves themselves.
	s.group()
	if err := s.solveGroups(); err != nil {
		s.abandonFrom(0)
		return s.stats, err
	}

	// Phase 3 — capacity: settle slot competition (capacity mode only).
	displaced := s.settleCapacity()

	// Provenance gating input: fleet-wide slot occupancy after settling,
	// one scalar shared by every object completed this epoch.
	occFrac := 0.0
	if s.cfg.Object.Provenance && s.cfg.Capacity != nil {
		slots, used := 0, 0
		for i, c := range s.cfg.Capacity {
			slots += c
			used += s.occ[i]
		}
		if slots > 0 {
			occFrac = float64(used) / float64(slots)
		}
	}

	// Phase 4 — complete: finish every object's epoch in registration
	// order so ledger interleaving is deterministic.
	for _, o := range s.objects {
		var ov *replica.EpochOverride
		if o.pending.CanDecide() && o.leader >= 0 {
			proposed := s.objects[o.leader].cached
			forced := false
			d := 0
			if s.cfg.Capacity != nil {
				proposed = o.final
				forced = true // slot accounting is authoritative
				d = displaced[o.idx]
			}
			ov = &replica.EpochOverride{Proposed: proposed, Forced: forced, Displaced: d}
			if s.cfg.Object.Provenance {
				leader := s.objects[o.leader]
				ov.DriftSkipped = leader.driftSkipped
				ov.Drift = leader.drift
				ov.Occupancy = occFrac
				ov.Frontier = leader.frontier
			}
		}
		o.mu.Lock()
		dec, err := o.mgr.CompleteEpoch(nil, o.pending, ov)
		o.lastDec = dec
		o.mu.Unlock()
		o.pending = nil
		if err != nil {
			s.abandonFrom(o.idx + 1)
			return s.stats, fmt.Errorf("placement: object %q: %w", o.ID, err)
		}
		if dec.Migrate && dec.MovedReplicas > 0 {
			s.stats.Migrated++
		}
		s.stats.Displaced += dec.Displaced
	}
	s.met.groups.Set(float64(s.stats.Groups))
	s.met.solves.Add(int64(s.stats.Solves))
	s.met.skips.Add(int64(s.stats.DriftSkips))
	s.met.refines.Add(int64(s.stats.Refined))
	s.met.boundHits.Add(int64(s.stats.BoundHits))
	s.met.displaced.Add(int64(s.stats.Displaced))
	return s.stats, nil
}

// abandonFrom completes pending epochs after a mid-epoch failure so no
// trace span or manager scratch is left dangling; errors are secondary
// to the one being returned. The argument documents where the failure
// cut the completion loop; every remaining pending epoch is closed.
func (s *Service) abandonFrom(int) {
	for _, o := range s.objects {
		if o.pending == nil {
			continue
		}
		o.mu.Lock()
		// Pin the current placement: a decidable pending epoch completed
		// without an override would run its own solve (with no rand
		// here), and an abandoned epoch must change nothing anyway.
		var ov *replica.EpochOverride
		if o.pending.CanDecide() {
			ov = &replica.EpochOverride{Proposed: o.mgr.Replicas(), Forced: true}
		}
		_, _ = o.mgr.CompleteEpoch(nil, o.pending, ov)
		o.mu.Unlock()
		o.pending = nil
	}
}

// solveGroups runs (or drift-skips) one placement solve per group, in
// leader order.
func (s *Service) solveGroups() error {
	k := s.cfg.Object.K
	for _, li := range s.leaders {
		leader := s.objects[li]
		leader.drift, leader.driftSkipped = 0, false
		leader.frontier = leader.frontier[:0]
		if leader.solved {
			leader.drift = sigDist(leader.sig, leader.lastSig)
		}
		if s.cfg.DriftThreshold > 0 && leader.solved && len(leader.cached) == k &&
			leader.drift < s.cfg.DriftThreshold {
			s.stats.DriftSkips++
			leader.driftSkipped = true
			continue // converged group: cached placement stands
		}
		// Reseeding restarts exactly the stream a fresh source would give.
		r := s.rng
		r.Seed(s.cfg.Seed + int64(s.epoch)*epochSeedStride + int64(leader.idx))
		var warm []vec.Vec
		if s.cfg.WarmStart {
			warm = leader.warm
		}
		proposed, res, err := replica.ProposePlacementResult(
			r, leader.pending.Micros(), k, s.cfg.Candidates, s.cfg.Coords,
			cluster.Options{
				Metrics: s.cfg.Object.Metrics,
				Scratch: &s.kmScratch,
				Warm:    warm,
			})
		if err != nil {
			return fmt.Errorf("placement: group leader %q: %w", leader.ID, err)
		}
		s.stats.Solves++
		if s.cfg.Refine {
			proposed = s.refine(leader, proposed)
		}
		leader.cached = append(leader.cached[:0], proposed...)
		leader.lastSig = append(leader.lastSig[:0], leader.sig...)
		leader.solved = true
		if s.cfg.WarmStart && res != nil {
			leader.warm = copyCentroids(leader.warm, res.Centroids)
		}
	}
	return nil
}

// copyCentroids deep-copies src into dst (reusing dst's backing where
// possible): warm seeds must survive the next solve's scratch reuse.
func copyCentroids(dst, src []vec.Vec) []vec.Vec {
	if len(dst) != len(src) || (len(src) > 0 && len(dst) > 0 && dst[0].Dim() != src[0].Dim()) {
		dst = make([]vec.Vec, len(src))
		for i := range src {
			dst[i] = vec.New(src[i].Dim())
		}
	}
	for i := range src {
		dst[i].CopyFrom(src[i])
	}
	return dst
}
