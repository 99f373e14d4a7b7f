package replica

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/vec"
)

// Config parameterizes a Manager.
type Config struct {
	// K is the initial replication degree.
	K int
	// M is the micro-cluster budget per replica (paper symbol m).
	M int
	// Dims is the coordinate dimensionality.
	Dims int
	// Migration gates placement changes; the zero value migrates on any
	// estimated improvement.
	Migration MigrationPolicy
	// KPolicy adapts the replication degree; the zero value pins k.
	KPolicy KPolicy
	// DecayFactor ages summaries at each epoch end (0 < f <= 1); zero
	// defaults to 0.5 so summaries track recent accesses.
	DecayFactor float64
	// WindowEpochs, when positive, switches the per-replica summaries
	// from exponential decay to exact CluStream windows covering the
	// last WindowEpochs epochs; DecayFactor is then ignored.
	WindowEpochs int
	// IngestShards, when > 1, partitions each replica's summarizer
	// across that many client-hash shards (power of two) so batched
	// ingest locks per shard instead of per server; summaries are merged
	// back down to M clusters at collection time. Incompatible with
	// WindowEpochs: the exact-window summarizer is not sharded.
	IngestShards int
	// Quorum is the fraction of replicas whose fresh summaries the
	// coordinator requires before it will adapt k or migrate (default
	// 0.5). Below quorum the epoch still completes — reusing last-known
	// summaries with staleness decay for the estimate — but the decision
	// is marked degraded and no placement change is committed.
	Quorum float64
	// Metrics, when non-nil, receives the manager's runtime counters and
	// histograms (see the Observability section of README.md for the
	// metric names). A nil registry disables instrumentation at the cost
	// of one nil check per update.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records one span tree per epoch: the epoch
	// root, a collect span per replica (errors naming unreachable
	// nodes), the k-means macro-clustering, and the migration decision.
	// Degraded, below-quorum, and migrating epochs are marked anomalous
	// so the flight recorder pins their complete trees.
	Tracer *trace.Tracer
	// Ledger, when non-nil, receives one durable record per completed
	// epoch carrying the decision's full inputs and outcome, so an
	// offline auditor can replay it (see internal/audit). An append
	// failure fails the epoch: decision provenance is not best-effort.
	Ledger *ledger.Ledger
	// ObjectID and Class identify the object this manager places inside
	// a multi-object fleet (see internal/placement.Service); both are
	// stamped into every ledger record so the offline audit can group
	// regret per object and per class. Leave empty for single-object
	// deployments — records then keep their version-1 byte encoding.
	ObjectID string
	Class    string
	// WriteFraction is the expected write share of the workload in
	// [0, 1]. When positive, the migration gate blends the read
	// objective with a write-path cost — the demand-weighted
	// client→leader delay plus the leader→follower replication fanout —
	// and every decision names the placement's write leader. Zero (the
	// default) disables the write path entirely: the decision sequence
	// is byte-identical to a read-only manager.
	WriteFraction float64
	// LeaderPolicy picks the write leader inside a placement when
	// WriteFraction > 0: demand-weighted centroid (default) or lowest
	// replication fanout. See replog.LeaderPolicy.
	LeaderPolicy replog.LeaderPolicy
	// HoldMigrations, when non-nil, is consulted before adopting an
	// approved (non-forced) migration; answering true holds the
	// placement in place. The intended signal is measured SLO burn
	// (slo.Engine.BudgetExhausted): when the error budget is gone, the
	// service stops spending availability on optional data movement.
	// Forced reshapes (k changes, capacity displacement) still apply.
	HoldMigrations func() bool
	// Provenance captures a per-epoch decision provenance record: the
	// chosen placement's cost decomposition, the counterfactual
	// placements the epoch actually scored with their deltas, and the
	// outcome reason with its gating inputs. The record rides the
	// ledger as codec v3 when Ledger is set, and feeds the live
	// provenance_* regret gauges when Metrics is set. Capture is
	// bounded and allocation-free in steady state; off (the default)
	// the epoch path and the ledger bytes are identical to a
	// pre-provenance manager.
	Provenance bool
	// BurnRate, when non-nil, supplies the live SLO burn rate recorded
	// as a provenance gating input alongside HoldMigrations' verdict
	// (slo.Engine.MaxBurnRate is the intended source). Only consulted
	// when Provenance is on.
	BurnRate func() float64
}

// newServer builds a server in the configured recency/sharding mode.
func (c Config) newServer() (*Server, error) {
	if c.WindowEpochs > 0 {
		return NewWindowedServer(c.M, c.Dims, c.WindowEpochs)
	}
	if c.IngestShards > 1 {
		return NewShardedServer(c.IngestShards, c.M, c.Dims)
	}
	return NewServer(c.M, c.Dims)
}

func (c *Config) fillDefaults() {
	if c.DecayFactor == 0 {
		c.DecayFactor = 0.5
	}
	if c.Quorum == 0 {
		c.Quorum = 0.5
	}
	if c.KPolicy.Min == 0 && c.KPolicy.Max == 0 {
		c.KPolicy.Min, c.KPolicy.Max = c.K, c.K
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("replica: K must be positive, got %d", c.K)
	}
	if c.M <= 0 {
		return fmt.Errorf("replica: M must be positive, got %d", c.M)
	}
	if c.Dims <= 0 {
		return fmt.Errorf("replica: Dims must be positive, got %d", c.Dims)
	}
	if err := c.Migration.Validate(); err != nil {
		return err
	}
	if err := c.KPolicy.Validate(c.K); err != nil {
		return err
	}
	if c.DecayFactor < 0 || c.DecayFactor > 1 {
		return fmt.Errorf("replica: DecayFactor %v out of [0,1]", c.DecayFactor)
	}
	if c.WindowEpochs < 0 {
		return fmt.Errorf("replica: WindowEpochs must be non-negative, got %d", c.WindowEpochs)
	}
	if c.Quorum < 0 || c.Quorum > 1 {
		return fmt.Errorf("replica: Quorum %v out of [0,1]", c.Quorum)
	}
	if c.IngestShards < 0 {
		return fmt.Errorf("replica: IngestShards must be non-negative, got %d", c.IngestShards)
	}
	if c.IngestShards > 1 && c.IngestShards&(c.IngestShards-1) != 0 {
		return fmt.Errorf("replica: IngestShards %d must be a power of two", c.IngestShards)
	}
	if c.IngestShards > 1 && c.WindowEpochs > 0 {
		return fmt.Errorf("replica: IngestShards and WindowEpochs are mutually exclusive")
	}
	if c.WriteFraction < 0 || c.WriteFraction > 1 {
		return fmt.Errorf("replica: WriteFraction %v out of [0,1]", c.WriteFraction)
	}
	return nil
}

// managerMetrics holds the manager's metric handles, resolved once at
// construction so the hot Route/Record path does no map lookups. The
// zero value (nil handles) is a no-op.
type managerMetrics struct {
	accesses     *metrics.Counter
	accessWeight *metrics.Gauge
	routeMs      *metrics.Histogram
	epochs       *metrics.Counter
	migrations   *metrics.Counter
	moved        *metrics.Counter
	summaryBytes *metrics.Counter
	summaryHist  *metrics.Histogram
	k            *metrics.Gauge
	estOldMs     *metrics.Gauge
	estNewMs     *metrics.Gauge
	estGainMs    *metrics.Gauge
	degraded     *metrics.Counter
	missing      *metrics.Counter
	quorumBlock  *metrics.Counter
	held         *metrics.Counter
	leader       *metrics.Gauge
	writeOldMs   *metrics.Gauge
	writeNewMs   *metrics.Gauge
}

func newManagerMetrics(r *metrics.Registry) managerMetrics {
	return managerMetrics{
		accesses:     r.Counter("replica_accesses_total"),
		accessWeight: r.Gauge("replica_access_weight_total"),
		routeMs:      r.Histogram("replica_route_predicted_ms", metrics.LatencyBuckets()),
		epochs:       r.Counter("replica_epochs_total"),
		migrations:   r.Counter("replica_migrations_total"),
		moved:        r.Counter("replica_moved_replicas_total"),
		summaryBytes: r.Counter("replica_summary_bytes_total"),
		summaryHist:  r.Histogram("replica_summary_bytes_per_epoch", metrics.SizeBuckets()),
		k:            r.Gauge("replica_k"),
		estOldMs:     r.Gauge("replica_estimated_old_ms"),
		estNewMs:     r.Gauge("replica_estimated_new_ms"),
		estGainMs:    r.Gauge("replica_estimated_gain_ms"),
		degraded:     r.Counter("replica_degraded_epochs_total"),
		missing:      r.Counter("replica_missing_summaries_total"),
		quorumBlock:  r.Counter("replica_quorum_blocked_migrations_total"),
		held:         r.Counter("replica_migrations_held_total"),
		leader:       r.Gauge("replica_write_leader"),
		writeOldMs:   r.Gauge("replica_write_cost_old_ms"),
		writeNewMs:   r.Gauge("replica_write_cost_new_ms"),
	}
}

// Manager coordinates the replicas of one data object (or object group):
// it routes clients to their closest replica, owns the per-replica
// summaries, and at each epoch end runs the collection/decision cycle.
// It is not safe for concurrent use; drive it from one goroutine (the
// simulator) or guard it externally (the TCP daemon does).
//
// A Manager holds only its object's own state; configuration, world
// tables, metric handles and completion scratch live in its Fleet.
type Manager struct {
	f               *Fleet
	objectID, class string // stamped into every ledger record
	k               int
	replicas        []int
	// slots holds each replica's state, in replicas order.
	slots      []replicaSlot
	epoch      int
	migrations int
	// observedMs / observedAccesses hold the measured mean access delay
	// the caller reported for the current epoch (see RecordObserved);
	// consumed and reset by EndEpochDegraded when writing the ledger.
	observedMs       float64
	observedAccesses int64

	// pending is the one collect-phase state, reused every epoch: its
	// micro view and previous-placement copy keep their backing. It is
	// per manager, unlike the completion scratch, because the
	// multi-object service holds every object's epoch open at once.
	pending PendingEpoch

	// Provenance capture state (cfg.Provenance). prov is the one decision
	// record, reused every epoch; provReady marks that the just-completed
	// epoch filled it, so the deferred ledger append knows whether to
	// attach the v3 tail.
	prov      provenance.Record
	provReady bool
}

// PendingEpoch is the opaque collect-phase state between BeginEpoch and
// CompleteEpoch. It aliases manager scratch: a pending epoch is valid
// only until the matching CompleteEpoch (which must always be called —
// it closes the epoch's trace span and ledger record) or the next
// BeginEpoch, whichever comes first.
type PendingEpoch struct {
	root      *trace.ActiveSpan
	prev      []int
	obsMs     float64
	obsN      int64
	micros    []cluster.Micro
	collected int
	demand    float64
	missing   []int
	fresh     int
	quorumOK  bool
	reachable func(node int) bool
}

// Micros exposes the collected micro-cluster view (fresh plus
// staleness-decayed summaries) for callers that compute something from
// the demand before deciding — the multi-object service derives each
// object's demand signature from it. Read-only; valid until CompleteEpoch.
func (p *PendingEpoch) Micros() []cluster.Micro { return p.micros }

// Demand returns the total collected access weight of the epoch.
func (p *PendingEpoch) Demand() float64 { return p.demand }

// CanDecide reports whether CompleteEpoch will actually run the
// placement machinery: quorum reached and at least one micro-cluster
// collected. Below-quorum and silent epochs complete without consuming
// randomness or changing the placement.
func (p *PendingEpoch) CanDecide() bool { return p.quorumOK && len(p.micros) > 0 }

// EpochOverride injects an externally computed placement into
// CompleteEpoch — the multi-object service's group-shared (and
// capacity-adjusted) solve. Proposed must contain exactly the manager's
// current k distinct candidates; demand-driven k adaptation is skipped,
// since the override's owner pinned k when it sized the placement.
// Forced bypasses the migration-benefit gate (capacity displacement is
// not optional); Displaced is recorded in the decision and ledger.
type EpochOverride struct {
	Proposed  []int
	Forced    bool
	Displaced int

	// Provenance inputs from the multi-object service, recorded (when
	// Config.Provenance is on) as the epoch's gating context and merged
	// into the counterfactual ranking. DriftSkipped marks that the
	// group leader's demand signature moved less than the drift
	// threshold so the cached solve was reused; Drift is that signature
	// distance; Occupancy is the fleet-wide capacity fill fraction at
	// settle time; Frontier lists the alternative placements the group
	// solve actually scored (k-means seed, cache seed, branch-and-bound
	// incumbents) with their read-objective mean costs.
	DriftSkipped bool
	Drift        float64
	Occupancy    float64
	Frontier     []provenance.Candidate
}

// replicaSlot is one replica's state: the server holding its summary,
// and the summary last collected from it so an unreachable replica can
// still contribute a stale, staleness-decayed view to the epoch decision.
type replicaSlot struct {
	srv  *Server
	last staleSummary
}

// staleSummary is a cached summary with its age in epochs (0 = collected
// this epoch); known is false until a first collection. At age 0 micros
// aliases the manager's epoch view; a stale summary owns a copy.
type staleSummary struct {
	micros []cluster.Micro
	age    int
	known  bool
}

// slot returns the state of the replica at node rep, nil when rep holds
// no replica.
func (m *Manager) slot(rep int) *replicaSlot {
	for i, r := range m.replicas {
		if r == rep {
			return &m.slots[i]
		}
	}
	return nil
}

// NewManager creates a manager over the given candidate data centers, on
// a private Fleet. coords must cover every node index that will ever be
// routed or hosted. initial lists the starting replica locations; nil
// places the first K candidates.
func NewManager(cfg Config, candidates []int, coords []coord.Coordinate, initial []int) (*Manager, error) {
	f, err := NewFleet(cfg, candidates, coords)
	if err != nil {
		return nil, err
	}
	return f.NewManager(cfg.ObjectID, cfg.Class, initial)
}

// Replicas returns a copy of the current replica locations.
func (m *Manager) Replicas() []int { return append([]int(nil), m.replicas...) }

// K returns the current replication degree.
func (m *Manager) K() int { return m.k }

// Epoch returns how many epochs have completed.
func (m *Manager) Epoch() int { return m.epoch }

// Migrations returns how many epochs ended in an adopted migration.
func (m *Manager) Migrations() int { return m.migrations }

// LastProvenance returns the provenance record the most recent
// completed epoch captured, or nil when the manager runs without
// Config.Provenance (or no epoch has completed yet). The record is
// reused across epochs: callers that need it past the next epoch tick
// must copy it.
func (m *Manager) LastProvenance() *provenance.Record {
	if !m.provReady {
		return nil
	}
	return &m.prov
}

// Route returns the replica that should serve a client at the given
// coordinate — the one with the smallest predicted RTT (§II-A).
func (m *Manager) Route(client coord.Coordinate) int {
	i, _ := m.route(client)
	return m.replicas[i]
}

// route returns the index in m.replicas of the closest replica and its
// predicted delay.
func (m *Manager) route(client coord.Coordinate) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for i, rep := range m.replicas {
		if d := client.DistanceTo(m.f.coords[rep]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// Record routes the access and folds it into the serving replica's
// summary, returning the serving replica.
func (m *Manager) Record(client coord.Coordinate, weight float64) (int, error) {
	i, predMs := m.route(client)
	rep := m.replicas[i]
	if err := m.slots[i].srv.Record(client.Pos, weight); err != nil {
		return rep, err
	}
	m.f.met.accesses.Inc()
	m.f.met.accessWeight.Add(weight)
	m.f.met.routeMs.Observe(predMs)
	return rep, nil
}

// RecordAt folds an access into a specific replica's summary, for callers
// that route externally (e.g. the TCP daemon, where the client picked the
// server itself).
func (m *Manager) RecordAt(rep int, clientPos vec.Vec, weight float64) error {
	sl := m.slot(rep)
	if sl == nil {
		return fmt.Errorf("replica: node %d does not hold a replica", rep)
	}
	return sl.srv.Record(clientPos, weight)
}

// RecordBatchAt folds a batch of accesses into a specific replica's
// summary: clients[i] (a node index into the manager's coordinates)
// accessed with weights[i]; nil weights means unit weight. This is the
// planet-scale ingest hot path — one call per aggregated simnet frame —
// and it allocates nothing in steady state.
func (m *Manager) RecordBatchAt(rep int, clients []int, weights []float64) error {
	sl := m.slot(rep)
	if sl == nil {
		return fmt.Errorf("replica: node %d does not hold a replica", rep)
	}
	if err := sl.srv.RecordBatch(clients, m.f.positions, weights); err != nil {
		return err
	}
	m.f.met.accesses.Add(int64(len(clients)))
	if weights != nil {
		var w float64
		for _, x := range weights {
			w += x
		}
		m.f.met.accessWeight.Add(w)
	} else {
		m.f.met.accessWeight.Add(float64(len(clients)))
	}
	return nil
}

// RecordObserved reports the measured mean access delay of the epoch in
// progress — ground truth from whatever routing layer the caller runs
// (the georep manager's Read path, the simulators' delay models). It is
// consumed by the next EndEpoch and written to the ledger record so the
// auditor can compare estimates against reality. Calling it is optional;
// without it the record carries Accesses == 0.
func (m *Manager) RecordObserved(meanMs float64, accesses int64) {
	m.observedMs, m.observedAccesses = meanMs, accesses
}

// EndEpoch runs the periodic coordinator cycle: collect summaries, adapt
// k to demand, propose a placement, apply it if the migration policy
// approves, and age the summaries. It returns the decision either way.
func (m *Manager) EndEpoch(r *rand.Rand) (Decision, error) {
	return m.EndEpochDegraded(r, nil)
}

// EndEpochDegraded is EndEpoch under partial failure: reachable reports
// whether a replica's summary can be collected this epoch (nil = all
// reachable). Unreachable replicas contribute their last-known summary
// with its weight scaled by DecayFactor^age — stale demand counts, but
// less the older it is. When fewer than Quorum·k fresh summaries arrive
// the epoch is recorded as degraded: the coordinator still estimates
// delays from what it has, but refuses to adapt k or commit a migration
// from a below-quorum view of the world.
func (m *Manager) EndEpochDegraded(r *rand.Rand, reachable func(node int) bool) (Decision, error) {
	p, err := m.BeginEpoch(reachable)
	if err != nil {
		return Decision{}, err
	}
	return m.CompleteEpoch(r, p, nil)
}

// BeginEpoch runs the collect half of the coordinator cycle: it advances
// the epoch counter, gathers every reachable replica's summary
// (accounting wire bytes as the real system would), substitutes
// staleness-decayed cached summaries for unreachable replicas, and
// checks quorum. The returned pending epoch aliases manager scratch and
// MUST be finished with CompleteEpoch before the next BeginEpoch. The
// split exists for the multi-object placement service, which collects
// every object first, groups objects by demand signature, and then
// completes each epoch with a group-shared placement.
func (m *Manager) BeginEpoch(reachable func(node int) bool) (*PendingEpoch, error) {
	m.epoch++
	tr := m.f.cfg.Tracer
	var root *trace.ActiveSpan
	if tr != nil {
		var buf [32]byte
		name := string(strconv.AppendInt(append(buf[:0], "epoch "...), int64(m.epoch), 10))
		root = tr.StartRoot(name, trace.KindEpoch)
		root.SetAttr("epoch", name[len("epoch "):])
		root.SetAttr("k", strconv.Itoa(m.k))
	}

	// The observed-delay window closes with this epoch whether or not the
	// decision succeeds; consume it now.
	p := &m.pending
	*p = PendingEpoch{
		root:      root,
		prev:      append(p.prev[:0], m.replicas...),
		micros:    p.micros,
		obsMs:     m.observedMs,
		obsN:      m.observedAccesses,
		reachable: reachable,
	}
	m.observedMs, m.observedAccesses = 0, 0

	// The view is the one copy of this epoch's summaries: a reachable
	// replica exports straight into it, and its cached summary aliases
	// its stretch. So reachability is settled first — a replica going
	// stale has its summary copied out before the rebuild overwrites it —
	// and the view is sized exactly before any export.
	need := 0
	for i, rep := range m.replicas {
		sl := &m.slots[i]
		if reachable == nil || reachable(rep) {
			need += sl.srv.exportLen()
			continue
		}
		p.missing = append(p.missing, rep)
		if lk := &sl.last; lk.known {
			if lk.age == 0 {
				own := make([]cluster.Micro, len(lk.micros))
				for i := range lk.micros {
					own[i] = lk.micros[i].Clone()
				}
				lk.micros = own
			}
			need += len(lk.micros)
		}
	}
	view := p.micros[:0]
	if cap(view) < need {
		// Carry the old elements forward: their vectors are what the
		// exports reuse.
		grown := make([]cluster.Micro, need)
		copy(grown, view[:cap(view)])
		view = grown[:0]
	}
	missing := p.missing
	for i, rep := range m.replicas {
		sl := &m.slots[i]
		var sp *trace.ActiveSpan
		if tr != nil {
			name := m.f.collectNames[m.f.candIndex(rep)]
			sp = tr.Start(root.Context(), name, trace.KindCollect)
			sp.SetAttr("replica", name[len("collect "):])
		}
		if len(missing) > 0 && missing[0] == rep {
			missing = missing[1:]
			lk := &sl.last
			if !lk.known {
				sp.SetErrString(fmt.Sprintf("replica %d unreachable: no cached summary", rep))
				sp.End()
				continue // never collected: nothing to reuse
			}
			lk.age++
			scale := math.Pow(m.f.cfg.DecayFactor, float64(lk.age))
			for i := range lk.micros {
				// Within capacity, reuse the slot's vector storage.
				if len(view) < cap(view) {
					view = view[:len(view)+1]
				} else {
					view = append(view, cluster.Micro{})
				}
				mc := &view[len(view)-1]
				lk.micros[i].CloneInto(mc)
				mc.Weight *= scale
				p.demand += mc.Weight
			}
			sp.SetErrString(fmt.Sprintf("replica %d unreachable: stale summary age %d", rep, lk.age))
			sp.End()
			continue
		}
		// Export copies the summary into the view's tail — dead since last
		// epoch — then the wire length is computed arithmetically: same
		// bytes as shipping the encoding, with no encode, decode, or
		// steady-state allocation on the collect path. The append is a
		// no-op copy when the export landed in place.
		start := len(view)
		ms, err := sl.srv.ExportInto(view[start:start])
		if err != nil {
			sp.SetErr(err)
			sp.End()
			root.SetErr(err)
			root.End()
			return nil, err
		}
		view = append(view, ms...)
		ms = view[start:len(view):len(view)]
		n := cluster.EncodedMicrosLen(ms)
		p.collected += n
		sl.last = staleSummary{micros: ms, known: true}
		p.fresh++
		for i := range ms {
			p.demand += ms[i].Weight
		}
		if sp != nil {
			sp.SetAttr("bytes", strconv.Itoa(n))
			sp.End()
		}
	}
	p.micros = view
	p.quorumOK = float64(p.fresh) >= m.f.cfg.Quorum*float64(len(m.replicas))
	switch {
	case !p.quorumOK:
		root.MarkAnomalous("below_quorum")
	case len(p.missing) > 0:
		root.MarkAnomalous("degraded")
	}
	if len(p.missing) > 0 {
		root.SetAttr("missing", fmt.Sprint(p.missing))
	}

	m.f.met.epochs.Inc()
	m.f.met.summaryBytes.Add(int64(p.collected))
	m.f.met.summaryHist.Observe(float64(p.collected))
	if len(p.missing) > 0 {
		m.f.met.degraded.Inc()
		m.f.met.missing.Add(int64(len(p.missing)))
	}
	return p, nil
}

// CompleteEpoch runs the decide half of the coordinator cycle on a
// pending epoch: k adaptation, placement proposal (or the injected
// override's), migration gating, application, summary aging, and the
// ledger append. With ov == nil this is byte-identical to the
// pre-split EndEpochDegraded decision path — the singleton-group
// equivalence the multi-object service's exact mode relies on.
func (m *Manager) CompleteEpoch(r *rand.Rand, p *PendingEpoch, ov *EpochOverride) (dec Decision, err error) {
	root := p.root
	defer root.End() // idempotent; covers every return path
	m.provReady = false
	micros, reachable := p.micros, p.reachable
	// The pending state outlives the epoch; what it points at should not.
	p.root, p.reachable = nil, nil
	if m.f.cfg.Ledger != nil {
		defer func() {
			if err == nil {
				err = m.appendLedger(p.prev, micros, dec, p.obsMs, p.obsN)
			}
		}()
	}

	// The decision's two placements share one allocation: the current
	// replicas, then room for a proposal of up to KPolicy.Max.
	k := len(m.replicas)
	reps := make([]int, k, k+m.f.cfg.KPolicy.Max)
	copy(reps, m.replicas)
	dec = Decision{
		NewReplicas:      reps[:k:k],
		K:                m.k,
		CollectedBytes:   p.collected,
		Degraded:         len(p.missing) > 0,
		MissingSummaries: p.missing,
		QuorumOK:         p.quorumOK,
		Leader:           -1,
	}
	if m.f.cfg.WriteFraction > 0 {
		// The current placement always has a write leader, even on
		// epochs that decide nothing.
		dec.Leader = replog.ChooseLeader(m.f.cfg.LeaderPolicy, m.replicas, micros, m.f.coords)
	}
	sc := &m.f.sc
	sc.fillMicros(micros)
	if !p.quorumOK {
		// Too few live summaries to trust any decision: estimate for the
		// record, change nothing, and age only the replicas that heard
		// from us (the unreachable ones never received the decay command).
		m.f.met.quorumBlock.Inc()
		if len(micros) > 0 {
			if est, err := sc.estimate(&sc.old, m.replicas, m.f.coords); err == nil {
				dec.EstimatedOldMs, dec.EstimatedNewMs = est, est
			}
		}
		m.provTrivial(provenance.ReasonQuorumGated, p, ov, &dec)
		return dec, m.decaySummaries(reachable)
	}
	if len(micros) == 0 {
		m.provTrivial(provenance.ReasonSteady, p, ov, &dec)
		return dec, nil // silent epoch: nothing to learn from
	}

	var proposed []int
	if ov != nil && ov.Proposed != nil {
		// Externally solved placement: k stays pinned (the solver sized
		// the placement) and the k-means stage is skipped entirely.
		if len(ov.Proposed) != m.k {
			err := fmt.Errorf("replica: override proposes %d replicas for k=%d", len(ov.Proposed), m.k)
			root.SetErr(err)
			return dec, err
		}
		proposed = ov.Proposed
		dec.Displaced = ov.Displaced
	} else {
		// Demand-driven k adaptation.
		kp := m.f.cfg.KPolicy
		switch {
		case kp.GrowAbove > 0 && p.demand > kp.GrowAbove && m.k < kp.Max:
			m.k++
		case kp.ShrinkBelow > 0 && p.demand < kp.ShrinkBelow && m.k > kp.Min:
			m.k--
		}
		dec.K = m.k

		km := m.f.cfg.Tracer.Start(root.Context(), "kmeans", trace.KindKMeans)
		if km != nil {
			km.SetAttr("micros", strconv.Itoa(len(micros)))
		}
		proposed, err = ProposePlacementOpt(r, micros, m.k, m.f.candidates, m.f.coords,
			cluster.Options{Metrics: m.f.cfg.Metrics, Scratch: &m.f.sc.km})
		km.SetErr(err)
		km.End()
		if err != nil {
			root.SetErr(err)
			return dec, err
		}
	}
	dec.Proposed = append(reps[k:k], proposed...)

	// Both estimates run over the micro cache. The proposal is priced in
	// sorted order — the order m.replicas takes if it is adopted — so its
	// per-micro costs are already the adopted placement's; a minimum does
	// not depend on the order it is taken in, so the estimate is the same.
	// A proposal that is the current placement is the same computation,
	// so it is not run twice.
	ds := m.f.cfg.Tracer.Start(root.Context(), "decide", trace.KindDecide)
	oldEst, err := sc.estimate(&sc.old, m.replicas, m.f.coords)
	if err != nil {
		ds.SetErr(err)
		ds.End()
		root.SetErr(err)
		return dec, err
	}
	sc.sorted = append(sc.sorted[:0], proposed...)
	sort.Ints(sc.sorted)
	newCost, newEst := &sc.old, oldEst
	if !slices.Equal(sc.sorted, m.replicas) {
		newCost = &sc.new
		if newEst, err = sc.estimate(newCost, sc.sorted, m.f.coords); err != nil {
			ds.SetErr(err)
			ds.End()
			root.SetErr(err)
			return dec, err
		}
	}
	dec.EstimatedOldMs, dec.EstimatedNewMs = oldEst, newEst
	dec.MovedReplicas = countMoved(m.replicas, proposed)
	m.f.met.k.Set(float64(m.k))
	m.f.met.estOldMs.Set(oldEst)
	m.f.met.estNewMs.Set(newEst)
	m.f.met.estGainMs.Set(oldEst - newEst)

	// With a write share, the migration gate compares blended costs:
	// (1-wf)·read + wf·(client→leader + leader→follower fanout). With
	// wf == 0 this is exactly the read-only arithmetic — the gate sees
	// the same floats, so decisions are byte-identical.
	gateOld, gateNew := oldEst, newEst
	leaderNew := -1
	if wf := m.f.cfg.WriteFraction; wf > 0 {
		leaderNew = replog.ChooseLeader(m.f.cfg.LeaderPolicy, proposed, micros, m.f.coords)
		wOld := replog.WriteMs(dec.Leader, micros, m.f.coords) + replog.FanoutMs(dec.Leader, m.replicas, m.f.coords)
		wNew := replog.WriteMs(leaderNew, micros, m.f.coords) + replog.FanoutMs(leaderNew, proposed, m.f.coords)
		dec.WriteCostOldMs, dec.WriteCostNewMs = wOld, wNew
		gateOld = (1-wf)*oldEst + wf*wOld
		gateNew = (1-wf)*newEst + wf*wNew
		m.f.met.writeOldMs.Set(wOld)
		m.f.met.writeNewMs.Set(wNew)
	}

	kchanged := len(proposed) != len(m.replicas) // k changed: must reshape
	forced := kchanged ||
		(ov != nil && ov.Forced) // capacity displacement is not optional
	approved := forced || m.approveMigration(gateOld, gateNew, p.demand, dec.MovedReplicas)
	if approved && !forced && dec.MovedReplicas > 0 &&
		m.f.cfg.HoldMigrations != nil && m.f.cfg.HoldMigrations() {
		// The gate liked the move, but the SLO engine says the error
		// budget is spent: optional data movement waits for recovery.
		approved = false
		dec.Held = true
		m.f.met.held.Inc()
		root.MarkAnomalous("migration_held_budget")
	}
	adopted := &sc.old
	if approved {
		if err := m.applyPlacement(sc.sorted); err != nil {
			ds.SetErr(err)
			ds.End()
			root.SetErr(err)
			return dec, err
		}
		adopted = newCost
		dec.Migrate = true
		dec.NewReplicas = append(dec.NewReplicas[:0], m.replicas...)
		if leaderNew >= 0 {
			dec.Leader = leaderNew
		}
		if dec.MovedReplicas > 0 || kchanged {
			m.migrations++
			m.f.met.migrations.Inc()
			m.f.met.moved.Add(int64(dec.MovedReplicas))
			root.MarkAnomalous("migrated")
		}
	}
	if ds != nil {
		ds.SetAttr("migrate", strconv.FormatBool(dec.Migrate))
		ds.SetAttr("moved", strconv.Itoa(dec.MovedReplicas))
		ds.SetAttr("gain_ms", strconv.FormatFloat(oldEst-newEst, 'f', 3, 64))
		if m.f.cfg.WriteFraction > 0 {
			ds.SetAttr("leader", strconv.Itoa(dec.Leader))
		}
		ds.End()
	}
	if m.f.cfg.WriteFraction > 0 {
		m.f.met.leader.Set(float64(dec.Leader))
	}

	m.provDecide(p, ov, &dec, adopted, gateOld, gateNew, proposed)

	// Age the surviving summaries so the next epoch reflects recent use.
	return dec, m.decaySummaries(reachable)
}

// decaySummaries ages the summaries of every replica the coordinator can
// reach; an unreachable replica keeps its un-decayed state until it
// rejoins (it never heard the decay command).
func (m *Manager) decaySummaries(reachable func(node int) bool) error {
	for i, rep := range m.replicas {
		if reachable != nil && !reachable(rep) {
			continue
		}
		if err := m.slots[i].srv.Decay(m.f.cfg.DecayFactor); err != nil {
			return err
		}
	}
	return nil
}

// approveMigration applies the MigrationPolicy to an estimated gain.
func (m *Manager) approveMigration(oldEst, newEst, demand float64, moved int) bool {
	if moved == 0 {
		return true // same placement: "migrating" is free and a no-op
	}
	if newEst >= oldEst || oldEst <= 0 {
		return false
	}
	relGain := (oldEst - newEst) / oldEst
	if relGain < m.f.cfg.Migration.MinRelativeGain {
		return false
	}
	if m.f.cfg.Migration.CostPerByte > 0 {
		cost := float64(moved) * m.f.cfg.Migration.ObjectBytes * m.f.cfg.Migration.CostPerByte
		benefit := (oldEst - newEst) * demand * m.f.cfg.Migration.GainPerMsAccess
		if benefit <= cost {
			return false
		}
	}
	return true
}

// applyPlacement migrates the replica set to sorted, the new placement
// in ascending node order: servers at kept locations retain their
// summaries and cached views, new locations start fresh, dropped
// locations are discarded.
func (m *Manager) applyPlacement(sorted []int) error {
	var buf [8]replicaSlot
	next := buf[:0]
	if len(sorted) > len(buf) {
		next = make([]replicaSlot, 0, len(sorted))
	}
	for _, rep := range sorted {
		if sl := m.slot(rep); sl != nil {
			next = append(next, *sl)
			continue
		}
		srv, err := m.f.cfg.newServer()
		if err != nil {
			return err
		}
		next = append(next, replicaSlot{srv: srv})
	}
	clear(m.slots)
	m.slots = append(m.slots[:0], next...)
	m.replicas = append(m.replicas[:0], sorted...)
	return nil
}

// countMoved returns how many locations of b are not in a — the number of
// new replicas that would need a data copy.
func countMoved(a, b []int) int {
	moved := 0
	for _, x := range b {
		if !slices.Contains(a, x) {
			moved++
		}
	}
	return moved
}
