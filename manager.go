package georep

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/trace"
)

// ManagerConfig parameterizes a live replica manager.
type ManagerConfig struct {
	// K is the initial replication degree.
	K int
	// MicroClusters is the per-replica summary budget m (default 10).
	MicroClusters int
	// Candidates are the data-center node indices replicas may live at.
	Candidates []int
	// InitialReplicas optionally fixes the starting placement; nil uses
	// the first K candidates.
	InitialReplicas []int
	// MinRelativeGain is the fractional estimated-delay improvement
	// required before migrating (default 0, i.e. migrate on any gain).
	MinRelativeGain float64
	// MigrationCostPerByte, LatencyValuePerMsAccess and ObjectBytes
	// enable the economic migration test when all are positive: a
	// migration happens only if the latency value it recovers exceeds
	// the transfer cost.
	MigrationCostPerByte    float64
	LatencyValuePerMsAccess float64
	ObjectBytes             float64
	// MinReplicas/MaxReplicas with demand thresholds enable dynamic k:
	// the degree grows past GrowAbove total epoch weight and shrinks
	// below ShrinkBelow. Zero values pin k.
	MinReplicas, MaxReplicas int
	GrowAbove, ShrinkBelow   float64
	// DecayFactor ages summaries between epochs (default 0.5).
	DecayFactor float64
	// WindowEpochs, when positive, replaces decay with exact CluStream
	// time windows: each epoch's decision sees exactly the accesses of
	// the last WindowEpochs epochs. DecayFactor is then ignored.
	WindowEpochs int
	// IngestShards, when > 1 (power of two), partitions each replica's
	// summarizer into client-hash shards so concurrent batch ingest does
	// not serialize on one lock. Mutually exclusive with WindowEpochs.
	IngestShards int
	// Quorum is the fraction of replicas whose fresh summaries must be
	// collected before an epoch may adapt k or migrate (default 0.5).
	// Below quorum the epoch completes degraded: estimates are computed
	// from stale summaries but no placement change is committed.
	Quorum float64
	// Tracing enables the per-epoch span recorder: every EndEpoch
	// produces a span tree (collect per replica, k-means, decision) in a
	// bounded flight recorder, with degraded / below-quorum / migrating
	// epochs pinned as anomalous. Retrieve trees via TraceRecorder.
	Tracing bool
	// Ledger, when non-nil, durably records every epoch's decision
	// inputs and outcome (including the observed mean access delay) for
	// offline audit — see internal/ledger and internal/audit. The caller
	// owns the ledger's lifecycle (Open/Close).
	Ledger *ledger.Ledger
	// WriteFraction, when positive, enables the write path: epoch
	// decisions name a write leader, and the migration gate blends the
	// read estimate with the leader's write + fan-out cost at this
	// weight. Zero keeps decisions byte-identical to a read-only config.
	WriteFraction float64
	// LeaderPolicy places the leader when WriteFraction > 0: "centroid"
	// (demand-weighted, default) or "fanout" (lowest replication cost).
	// Ignored when WriteFraction is zero.
	LeaderPolicy string
	// Provenance enables per-epoch decision provenance: each epoch's
	// ledger record (and metrics, when available) carries the chosen
	// placement's cost decomposition, the counterfactual candidates the
	// solver actually scored, the gating inputs, and a structured reason.
	// Off by default; with it off, ledger bytes are identical to prior
	// versions.
	Provenance bool
	// BurnRate, when non-nil with Provenance on, supplies the SLO error-
	// budget burn rate captured in each decision's gating inputs (e.g.
	// an slo.Engine's MaxBurnRate).
	BurnRate func() float64
}

// EpochReport describes what one epoch's coordination cycle concluded.
type EpochReport struct {
	// Migrated reports whether the placement changed.
	Migrated bool
	// Replicas is the placement after the epoch.
	Replicas []int
	// K is the replication degree after demand adaptation.
	K int
	// EstimatedOldMs / EstimatedNewMs are the summary-estimated mean
	// delays of the previous and proposed placements.
	EstimatedOldMs float64
	EstimatedNewMs float64
	// MovedReplicas counts locations that required a data copy.
	MovedReplicas int
	// SummaryBytes is the wire size of the collected micro-cluster
	// summaries — the online approach's entire bandwidth cost.
	SummaryBytes int
	// Degraded reports that at least one replica's summary could not be
	// collected and the epoch ran on a partial or stale view.
	Degraded bool
	// MissingSummaries lists the replicas that were unreachable.
	MissingSummaries []int
	// QuorumOK reports whether enough fresh summaries arrived to permit
	// k adaptation and migration; false guarantees the placement did
	// not change this epoch.
	QuorumOK bool
	// ActualMeanMs is the ground-truth mean access delay clients
	// observed over the epoch (0 when Accesses is 0), and Accesses how
	// many accesses it averages — the same observed figures the epoch's
	// ledger record carries.
	ActualMeanMs float64
	Accesses     int64
	// Leader is the write-path leader of the adopted placement, or -1
	// when the write path is disabled (WriteFraction == 0).
	Leader int
	// WriteCostOldMs / WriteCostNewMs are the leader write + fan-out
	// costs of the previous and proposed placements (0 when disabled).
	WriteCostOldMs float64
	WriteCostNewMs float64
}

// Manager is the live replica-placement loop for one object (or object
// group) over a deployment: it routes accesses to the predicted-closest
// replica, maintains the per-replica summaries, and migrates replicas at
// epoch boundaries per the paper's Algorithm 1.
//
// A Manager is safe for concurrent use: accesses may be recorded from
// many goroutines while another drives the epoch ticks. Every manager
// maintains runtime metrics and a trace of recent epochs, exposed by
// Snapshot.
type Manager struct {
	d    *Deployment
	dims int

	mu    sync.Mutex
	inner *replica.Manager

	reg  *metrics.Registry
	ring *metrics.TraceRing
	rec  *trace.FlightRecorder // nil unless ManagerConfig.Tracing
	// Ground-truth delay accumulated over the current epoch's accesses,
	// guarded by mu; reset at each epoch boundary.
	epochDelaySum float64
	epochAccesses int64
	actualMs      *metrics.Histogram
	actualMeanMs  *metrics.Gauge
}

// replicaConfig maps a ManagerConfig onto the coordinator's
// replica.Config: every field but Candidates and InitialReplicas, which
// constructors pass beside it, and Tracing, which they turn into a
// Tracer or refuse. All four public constructors build on it, so a
// field is honoured or refused by name (see unsupported), never dropped.
// It also checks that every candidate is a node of the deployment.
func (d *Deployment) replicaConfig(cfg ManagerConfig) (replica.Config, error) {
	m := cfg.MicroClusters
	if m <= 0 {
		m = 10
	}
	dims := 0
	if d.matrix.N() > 0 {
		dims = d.coords[0].Pos.Dim()
	}
	for _, c := range cfg.Candidates {
		if c < 0 || c >= d.matrix.N() {
			return replica.Config{}, fmt.Errorf("georep: candidate %d out of range", c)
		}
	}
	leaderPolicy, err := replog.ParseLeaderPolicy(cfg.LeaderPolicy)
	if err != nil {
		return replica.Config{}, fmt.Errorf("georep: %w", err)
	}
	return replica.Config{
		K:    cfg.K,
		M:    m,
		Dims: dims,
		Migration: replica.MigrationPolicy{
			MinRelativeGain: cfg.MinRelativeGain,
			CostPerByte:     cfg.MigrationCostPerByte,
			GainPerMsAccess: cfg.LatencyValuePerMsAccess,
			ObjectBytes:     cfg.ObjectBytes,
		},
		KPolicy: replica.KPolicy{
			Min:         cfg.MinReplicas,
			Max:         cfg.MaxReplicas,
			GrowAbove:   cfg.GrowAbove,
			ShrinkBelow: cfg.ShrinkBelow,
		},
		DecayFactor:   cfg.DecayFactor,
		WindowEpochs:  cfg.WindowEpochs,
		IngestShards:  cfg.IngestShards,
		Quorum:        cfg.Quorum,
		Ledger:        cfg.Ledger,
		WriteFraction: cfg.WriteFraction,
		LeaderPolicy:  leaderPolicy,
		Provenance:    cfg.Provenance,
		BurnRate:      cfg.BurnRate,
	}, nil
}

// unsupported is the error of a constructor handed a ManagerConfig field
// it has no way to honour.
func unsupported(ctor, field, why string) error {
	return fmt.Errorf("georep: %s does not support ManagerConfig.%s: %s", ctor, field, why)
}

// groupConfig is replicaConfig for the per-group managers behind
// GroupSet and Replay: every group starts at the first K candidates, and
// a group has no identity to stamp on a ledger record and no recorder to
// keep span trees in.
func (d *Deployment) groupConfig(ctor string, cfg ManagerConfig) (replica.Config, error) {
	switch {
	case cfg.InitialReplicas != nil:
		return replica.Config{}, unsupported(ctor, "InitialReplicas", "every group starts at the first K candidates")
	case cfg.Tracing:
		return replica.Config{}, unsupported(ctor, "Tracing", "groups share no span recorder")
	case cfg.Ledger != nil:
		return replica.Config{}, unsupported(ctor, "Ledger", "records would carry no group identity")
	case cfg.Provenance:
		return replica.Config{}, unsupported(ctor, "Provenance", "it is recorded through a ledger or a metrics registry, and groups have neither")
	}
	return d.replicaConfig(cfg)
}

// NewManager creates a manager on the deployment.
func (d *Deployment) NewManager(cfg ManagerConfig) (*Manager, error) {
	rcfg, err := d.replicaConfig(cfg)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	rcfg.Metrics = reg
	var rec *trace.FlightRecorder
	if cfg.Tracing {
		rec = trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
		rcfg.Tracer = trace.New(rec, "coord")
	}
	inner, err := replica.NewManager(rcfg, cfg.Candidates, d.coords, cfg.InitialReplicas)
	if err != nil {
		return nil, fmt.Errorf("georep: new manager: %w", err)
	}
	return &Manager{
		d:            d,
		inner:        inner,
		dims:         rcfg.Dims,
		reg:          reg,
		ring:         metrics.NewTraceRing(64),
		rec:          rec,
		actualMs:     reg.Histogram("manager_actual_delay_ms", metrics.LatencyBuckets()),
		actualMeanMs: reg.Gauge("manager_epoch_actual_mean_ms"),
	}, nil
}

// TraceRecorder returns the manager's span flight recorder, or nil when
// the manager was built without ManagerConfig.Tracing. Each completed
// epoch is one span tree; degraded, below-quorum, migrating and
// latency-outlier epochs are pinned as anomalous.
func (m *Manager) TraceRecorder() *trace.FlightRecorder { return m.rec }

// Replicas returns the current replica locations.
func (m *Manager) Replicas() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Replicas()
}

// K returns the current replication degree.
func (m *Manager) K() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.K()
}

// Migrations returns how many epochs adopted a placement change.
func (m *Manager) Migrations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Migrations()
}

// RecordAccess routes one read from the client node to its predicted-
// closest replica, folds it into that replica's summary, and returns the
// serving replica together with the ground-truth RTT the client
// experienced. weight is the data volume transferred (use 1 for uniform
// requests).
func (m *Manager) RecordAccess(clientNode int, weight float64) (servedBy int, rttMs float64, err error) {
	if clientNode < 0 || clientNode >= m.d.matrix.N() {
		return 0, 0, fmt.Errorf("georep: client node %d out of range", clientNode)
	}
	m.mu.Lock()
	rep, err := m.inner.Record(m.d.coords[clientNode], weight)
	if err != nil {
		m.mu.Unlock()
		return rep, 0, err
	}
	rtt := m.d.matrix.RTT(clientNode, rep)
	m.epochDelaySum += rtt
	m.epochAccesses++
	m.mu.Unlock()
	m.actualMs.Observe(rtt)
	return rep, rtt, nil
}

// EndEpoch runs the coordinator cycle: collect summaries, adapt k,
// propose, migrate if approved, decay. The seed drives the weighted
// k-means initialization.
func (m *Manager) EndEpoch(seed int64) (EpochReport, error) {
	return m.EndEpochWithOutages(seed, nil)
}

// EndEpochWithOutages is EndEpoch under partial failure: summaries of
// the listed unreachable nodes cannot be collected, so the coordinator
// falls back to their last-known summaries with staleness decay. Below
// the configured quorum of fresh summaries the epoch is recorded as
// degraded and no placement change is committed.
func (m *Manager) EndEpochWithOutages(seed int64, unreachable []int) (EpochReport, error) {
	var reachable func(int) bool
	if len(unreachable) > 0 {
		down := make(map[int]bool, len(unreachable))
		for _, n := range unreachable {
			down[n] = true
		}
		reachable = func(node int) bool { return !down[node] }
	}
	m.mu.Lock()
	// Close the observed-delay window before the epoch decision so the
	// ledger record (written inside EndEpochDegraded) carries it.
	actualMean := 0.0
	if m.epochAccesses > 0 {
		actualMean = m.epochDelaySum / float64(m.epochAccesses)
	}
	accesses := m.epochAccesses
	m.epochDelaySum, m.epochAccesses = 0, 0
	m.inner.RecordObserved(actualMean, accesses)
	dec, err := m.inner.EndEpochDegraded(rand.New(rand.NewSource(seed)), reachable)
	if err != nil {
		m.mu.Unlock()
		return EpochReport{}, fmt.Errorf("georep: end epoch: %w", err)
	}
	epoch := m.inner.Epoch()
	m.mu.Unlock()

	m.actualMeanMs.Set(actualMean)
	m.ring.Add(metrics.EpochTrace{
		Epoch:            epoch,
		Migrated:         dec.Migrate,
		K:                dec.K,
		Replicas:         append([]int(nil), dec.NewReplicas...),
		EstimatedOldMs:   dec.EstimatedOldMs,
		EstimatedNewMs:   dec.EstimatedNewMs,
		ActualMeanMs:     actualMean,
		Accesses:         accesses,
		MovedReplicas:    dec.MovedReplicas,
		SummaryBytes:     dec.CollectedBytes,
		Degraded:         dec.Degraded,
		MissingSummaries: append([]int(nil), dec.MissingSummaries...),
	})
	return reportOf(dec, actualMean, accesses), nil
}

// reportOf is the one Decision → EpochReport mapping, shared by Manager
// and GroupSet; actualMean and accesses are the caller's observed-delay
// window (zero when it keeps none).
func reportOf(dec replica.Decision, actualMean float64, accesses int64) EpochReport {
	return EpochReport{
		Migrated:         dec.Migrate,
		Replicas:         dec.NewReplicas,
		K:                dec.K,
		EstimatedOldMs:   dec.EstimatedOldMs,
		EstimatedNewMs:   dec.EstimatedNewMs,
		MovedReplicas:    dec.MovedReplicas,
		SummaryBytes:     dec.CollectedBytes,
		Degraded:         dec.Degraded,
		MissingSummaries: append([]int(nil), dec.MissingSummaries...),
		QuorumOK:         dec.QuorumOK,
		ActualMeanMs:     actualMean,
		Accesses:         accesses,
		Leader:           dec.Leader,
		WriteCostOldMs:   dec.WriteCostOldMs,
		WriteCostNewMs:   dec.WriteCostNewMs,
	}
}

// HistogramStats summarizes one metrics histogram: observation count,
// sum, observed extrema, and interpolated percentiles.
type HistogramStats struct {
	Count         int64
	Sum           float64
	Min, Max      float64
	P50, P95, P99 float64
}

// EpochTrace is one retained epoch of the manager's decision history:
// what Algorithm 1 estimated, what it decided, what it cost in summary
// bytes and data copies, and the ground-truth delay clients actually saw.
// Its fields mirror metrics.EpochTrace in order and type, so Snapshot
// converts rather than copies.
type EpochTrace struct {
	Epoch            int
	Migrated         bool
	K                int
	Replicas         []int
	EstimatedOldMs   float64
	EstimatedNewMs   float64
	ActualMeanMs     float64
	Accesses         int64
	MovedReplicas    int
	SummaryBytes     int
	Degraded         bool
	MissingSummaries []int
}

// ManagerSnapshot is a point-in-time view of a manager's runtime
// metrics: counters and gauges by name, histogram summaries, and the
// most recent epoch traces oldest-first. Metric names are documented in
// the Observability section of README.md.
type ManagerSnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramStats
	Epochs     []EpochTrace
}

// snapshotOf converts a registry's current state into the public
// snapshot shape (no epoch traces).
func snapshotOf(reg *metrics.Registry) ManagerSnapshot {
	s := reg.Snapshot()
	out := ManagerSnapshot{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]HistogramStats, len(s.Histograms)),
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = HistogramStats{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			P50: h.P50, P95: h.P95, P99: h.P99,
		}
	}
	return out
}

// Snapshot captures the manager's metrics and recent epoch traces. It is
// safe to call concurrently with accesses and epoch ticks.
func (m *Manager) Snapshot() ManagerSnapshot {
	out := snapshotOf(m.reg)
	for _, e := range m.ring.Snapshot() {
		out.Epochs = append(out.Epochs, EpochTrace(e))
	}
	return out
}
