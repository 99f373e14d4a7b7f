package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/faults"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/simnet"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/stats"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/vec"
	"github.com/georep/georep/internal/workload"
)

// The failure experiment measures what the paper's evaluation leaves
// out: mean access delay while things break. The same workload runs
// twice through the discrete-event simulator — once healthy, once under
// a seeded fault plan (replica crash mid-run, the largest client region
// partitioned away, a flapping lossy link) — and clients fail over to
// the next-nearest replica after a timeout, so the faulty curve shows
// delay inflation and availability loss rather than simply erroring
// out. The coordinator runs degraded epochs against the same plan:
// summaries of unreachable replicas fall back to stale cached ones, and
// below the quorum no migration is committed.

// FailureConfig parameterizes the failure experiment.
type FailureConfig struct {
	// Setup builds the world (matrix + coordinates).
	Setup SetupConfig
	// NumDCs candidate data centers are drawn from the world's nodes.
	NumDCs int
	// K replicas are maintained with M micro-clusters each.
	K, M int
	// Epochs is the experiment length; the default scenario needs >= 6.
	Epochs int
	// AccessesPerEpoch is the number of simulated client reads per epoch.
	AccessesPerEpoch int
	// MinRelativeGain gates migration.
	MinRelativeGain float64
	// DecayFactor ages summaries between epochs (0 → manager default).
	DecayFactor float64
	// Quorum is the fresh-summary fraction required to migrate (0 →
	// manager default of 0.5).
	Quorum float64
	// TimeoutMs is the simulated client's per-attempt timeout before it
	// fails over to the next replica (default 250ms).
	TimeoutMs float64
	// Plan optionally overrides the fault scenario with a DSL string
	// (see faults.Parse). Empty derives the default three-phase scenario
	// from the world: crash the first replica mid-run, partition the
	// largest client region, and flap a lossy link into another replica.
	Plan string
	// Trace optionally collects a synthetic span tree per faulty-pass
	// epoch: the tree a live traced coordinator would have recorded,
	// stamped with the discrete-event clock, with the fault that made a
	// replica unreachable named on the errored collect span. Degraded,
	// below-quorum and migrating epochs are pinned as anomalous.
	Trace *trace.FlightRecorder
	// Ledger, when non-nil, durably records the faulty pass's epoch
	// decisions (the healthy pass is a baseline and is not logged), so
	// the fault run can be audited offline.
	Ledger *ledger.Ledger
}

// DefaultFailureConfig returns a moderate failure scenario.
func DefaultFailureConfig() FailureConfig {
	setup := DefaultSetup()
	setup.Nodes = 120
	return FailureConfig{
		Setup:            setup,
		NumDCs:           12,
		K:                3,
		M:                8,
		Epochs:           12,
		AccessesPerEpoch: 1500,
		MinRelativeGain:  0.05,
		DecayFactor:      0.3,
		Quorum:           0.6,
		TimeoutMs:        250,
	}
}

func (c FailureConfig) validate() error {
	if err := validateShape("failure", c.Setup, c.NumDCs, c.K, c.M); err != nil {
		return err
	}
	if c.AccessesPerEpoch <= 0 {
		return fmt.Errorf("experiment: failure needs positive accesses")
	}
	if c.Epochs < 6 && c.Plan == "" {
		return fmt.Errorf("experiment: default failure scenario needs >= 6 epochs, got %d", c.Epochs)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("experiment: failure needs positive epochs")
	}
	if c.TimeoutMs < 0 {
		return fmt.Errorf("experiment: negative failover timeout %v", c.TimeoutMs)
	}
	return nil
}

// FailureRow is one epoch's outcome under both runs.
type FailureRow struct {
	Epoch int
	// HealthyMs is the mean measured delay with no faults injected.
	HealthyMs float64
	// FaultyMs is the mean measured delay under the fault plan,
	// including failover timeouts (failed gets are excluded; see
	// FailedGets).
	FaultyMs float64
	// FailoverGets counts faulty-run gets that needed at least one
	// failover attempt; FailedGets counts gets no replica served.
	FailoverGets int
	FailedGets   int
	// Degraded and QuorumOK describe the faulty run's epoch decision.
	Degraded bool
	QuorumOK bool
	// Migrated reports whether the faulty-run manager moved replicas.
	Migrated bool
	// Held reports a migration the gate approved but the SLO hold
	// refused: the availability budget was exhausted (or the objective
	// was paging) when the epoch closed, so the placement stayed put.
	Held bool
	// SLOBudget / SLOBurn snapshot the faulty run's availability
	// objective at epoch end: error budget remaining in the period and
	// the fast-window burn-rate factor.
	SLOBudget float64
	SLOBurn   float64
	// Reason is the faulty-run decision's recorded provenance reason
	// (steady, migrated, held-budget, quorum-gated, ...), RegretMs its
	// live regret against the counterfactuals the epoch scored, and
	// Counterfactuals how many alternatives were priced.
	Reason          string
	RegretMs        float64
	Counterfactuals int
	// Replicas is the faulty-run placement after the epoch.
	Replicas []int
}

// FailureResult aggregates the failure experiment.
type FailureResult struct {
	Rows          []FailureRow
	MeanHealthyMs float64
	MeanFaultyMs  float64
	// DegradedEpochs and QuorumBlockedEpochs count faulty-run epochs
	// that ran on a partial view / refused to migrate.
	DegradedEpochs      int
	QuorumBlockedEpochs int
	// DroppedLegs is the number of simulated one-way legs the injector
	// consumed.
	DroppedLegs uint64
	// HeldEpochs counts faulty-run epochs whose migration the SLO hold
	// refused; HealthyBudget / FaultyBudget are each pass's remaining
	// availability error budget at the end of the run.
	HeldEpochs         int
	HealthyBudget      float64
	FaultyBudget       float64
	HealthyTransitions int
	FaultyTransitions  int
	// Plan is the fault scenario in DSL form, for reproduction.
	Plan string
}

// Failure runs the experiment for one seed.
func Failure(seed int64, cfg FailureConfig) (*FailureResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.TimeoutMs == 0 {
		cfg.TimeoutMs = 250
	}
	w, err := BuildWorld(seed, cfg.Setup)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed * 31))

	cand, clientNodes := w.split(rng, cfg.NumDCs)
	clientRegions, _ := w.regions(clientNodes, false)
	regionMembers := map[int][]int{}
	for i, region := range clientRegions {
		regionMembers[region] = append(regionMembers[region], clientNodes[i])
	}

	initial, err := randomPlacement(rng, cand, cfg.K)
	if err != nil {
		return nil, err
	}

	// Pre-generate the per-epoch workload once so the healthy and faulty
	// passes replay byte-identical access sequences.
	clientSpecs, err := workload.UniformClients(clientNodes, clientRegions)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(rng, workload.Spec{
		Clients:         clientSpecs,
		Objects:         1,
		ZipfExponent:    0,
		MeanObjectBytes: 1,
	})
	if err != nil {
		return nil, err
	}
	// One contiguous slab backs every epoch's accesses: the pre-
	// generation loop costs one allocation total instead of one per
	// epoch, and both passes replay the same views of it.
	slab := make([]workload.Access, cfg.Epochs*cfg.AccessesPerEpoch)
	epochs := make([][]workload.Access, cfg.Epochs)
	for e := range epochs {
		view := slab[e*cfg.AccessesPerEpoch : (e+1)*cfg.AccessesPerEpoch]
		if epochs[e], err = gen.EpochInto(rng, cfg.AccessesPerEpoch, nil, view); err != nil {
			return nil, err
		}
	}

	healthy, err := runFailurePass(seed, cfg, w, cand, initial, epochs, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	// The default plan targets the placement actually entering the crash
	// epoch. Both passes are deterministic and identical until the first
	// fault, so the healthy pass's trajectory predicts the faulty one's.
	plan, err := buildFailurePlan(seed, cfg, healthy.rows, regionMembers)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		return nil, err
	}
	faulty, err := runFailurePass(seed, cfg, w, cand, initial, epochs, inj, cfg.Trace, cfg.Ledger)
	if err != nil {
		return nil, err
	}

	res := &FailureResult{Plan: plan.String(), DroppedLegs: faulty.droppedLegs,
		HealthyBudget:      healthy.budget,
		FaultyBudget:       faulty.budget,
		HealthyTransitions: healthy.transitions,
		FaultyTransitions:  faulty.transitions,
	}
	for e := 0; e < cfg.Epochs; e++ {
		row := faulty.rows[e]
		row.HealthyMs = healthy.rows[e].FaultyMs // healthy pass fills the same field
		res.Rows = append(res.Rows, row)
		res.MeanHealthyMs += row.HealthyMs
		res.MeanFaultyMs += row.FaultyMs
		if row.Degraded {
			res.DegradedEpochs++
		}
		if !row.QuorumOK {
			res.QuorumBlockedEpochs++
		}
		if row.Held {
			res.HeldEpochs++
		}
	}
	res.MeanHealthyMs /= float64(cfg.Epochs)
	res.MeanFaultyMs /= float64(cfg.Epochs)
	return res, nil
}

// buildFailurePlan derives the default three-phase scenario unless the
// config overrides it with a DSL plan. healthyRows is the fault-free
// pass's trajectory; crash targets come from the placement entering the
// crash epoch so the outage actually hits live replicas.
func buildFailurePlan(seed int64, cfg FailureConfig, healthyRows []FailureRow, regionMembers map[int][]int) (*faults.Plan, error) {
	if cfg.Plan != "" {
		return faults.Parse(seed, cfg.Plan)
	}
	third := cfg.Epochs / 3
	reps := healthyRows[third-1].Replicas
	p := &faults.Plan{Seed: seed}
	// Phase 1: two replicas crash together at epoch `third`, pushing the
	// coordinator below quorum — which freezes the placement, so the
	// first crash (lasting two more epochs) keeps degrading collection.
	p.Crashes = append(p.Crashes, faults.Crash{Node: reps[0], From: third, To: third + 2})
	if len(reps) > 1 {
		p.Crashes = append(p.Crashes, faults.Crash{Node: reps[1], From: third, To: third})
	}
	// Phase 2: the largest client region is cut off from the world.
	largest := -1
	for r, members := range regionMembers {
		if largest == -1 || len(members) > len(regionMembers[largest]) ||
			(len(members) == len(regionMembers[largest]) && r < largest) {
			largest = r
		}
	}
	if largest >= 0 {
		p.Partitions = append(p.Partitions, faults.Partition{
			A: append([]int(nil), regionMembers[largest]...), From: 2 * third, To: 2*third + 1,
		})
	}
	// Phase 3: a flapping lossy link into the last replica — total loss
	// on alternating epochs near the end of the run.
	for e := 2*third + 2; e < cfg.Epochs; e += 2 {
		p.Links = append(p.Links, faults.LinkFault{
			Src: faults.Wild, Dst: reps[len(reps)-1], From: e, To: e, DropProb: 1,
		})
	}
	return p, p.Validate()
}

// failurePass is one simulated run (healthy when inj is nil).
type failurePass struct {
	rows        []FailureRow
	droppedLegs uint64
	budget      float64
	transitions int
}

// failureSLOSpec is the availability objective each failure pass
// evaluates: the fraction of gets no replica served, against a 1%%
// error budget over the run. One epoch is one sampling tick on the
// simulated clock.
const failureSLOSpec = "availability ratio(failure_failed_gets_total / failure_gets_total) <= 0.01"

func runFailurePass(seed int64, cfg FailureConfig, w *World, cand, initial []int,
	epochs [][]workload.Access, inj *faults.Injector, rec *trace.FlightRecorder, led *ledger.Ledger) (*failurePass, error) {
	const epochMs = 60_000.0
	// The availability SLO rides the pass on the simulated clock and
	// feeds the decision gate: an exhausted (or paging) budget holds
	// otherwise-approved migrations until the service recovers.
	reg := metrics.NewRegistry()
	cGets := reg.Counter("failure_gets_total")
	cFailed := reg.Counter("failure_failed_gets_total")
	gDelay := reg.Gauge("failure_epoch_delay_ms")
	hist := metrics.NewHistory(reg, cfg.Epochs+2)
	sloSpec, err := slo.Parse(failureSLOSpec)
	if err != nil {
		return nil, err
	}
	epochDur := time.Duration(epochMs * float64(time.Millisecond))
	eng, err := slo.New(sloSpec, slo.Config{
		History: hist,
		Windows: slo.Windows{
			FastShort: epochDur, FastLong: 2 * epochDur,
			SlowShort: 3 * epochDur, SlowLong: 6 * epochDur,
			Period: time.Duration(cfg.Epochs) * epochDur,
		},
	})
	if err != nil {
		return nil, err
	}
	mgr, err := replica.NewManager(replica.Config{
		K: cfg.K, M: cfg.M, Dims: cfg.Setup.CoordDims,
		Migration:      replica.MigrationPolicy{MinRelativeGain: cfg.MinRelativeGain},
		DecayFactor:    cfg.DecayFactor,
		Quorum:         cfg.Quorum,
		Ledger:         led,
		Metrics:        reg,
		HoldMigrations: eng.BudgetExhausted,
		Provenance:     true,
		BurnRate:       eng.MaxBurnRate,
	}, cand, w.Coords, initial)
	if err != nil {
		return nil, err
	}

	sim, err := w.network(nil, echo)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		sim.SetFaults(func(from, to simnet.NodeID) (bool, float64) {
			v := inj.Verdict(int(from), int(to))
			return v.Drop, v.ExtraMs
		})
	}

	offsetRng := rand.New(rand.NewSource(seed * 97))
	idRng := rand.New(rand.NewSource(seed * 13))
	pass := &failurePass{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		inj.SetEpoch(epoch)
		epochStart := sim.Now()
		entering := append([]int(nil), mgr.Replicas()...)
		var delay stats.Accumulator
		failovers, failed := 0, 0
		for _, a := range epochs[epoch] {
			a := a
			// Client-side proximity order over the current placement;
			// after a timeout the client retries the next replica.
			order := proximityOrder(w.Coords[a.Client], mgr.Replicas(), w.Coords)
			pos := w.Coords[a.Client].Pos
			start := offsetRng.Float64() * epochMs
			settled := new(bool)
			if err := sim.After(start, func() {
				// The chain start is the simulator clock at first attempt:
				// the clock is cumulative across epochs, so the scheduling
				// offset alone would misstate the delay.
				attempt(sim, mgr, a, pos, order, 0, sim.Now(), cfg.TimeoutMs,
					settled, &delay, &failovers, &failed)
			}); err != nil {
				return nil, err
			}
		}
		if _, err := sim.Run(0); err != nil {
			return nil, err
		}

		var reachable func(int) bool
		if inj != nil {
			reachable = func(node int) bool {
				return !inj.NodeDown(node) && !inj.Partitioned(faults.External, node)
			}
		}
		mgr.RecordObserved(delay.Mean(), int64(delay.N()))
		// Evaluate the SLO before the decision so the hold gate sees this
		// epoch's burn, not last epoch's.
		cGets.Add(int64(len(epochs[epoch])))
		cFailed.Add(int64(failed))
		gDelay.Set(delay.Mean())
		nowNs := int64(sim.Now() * 1e6)
		hist.Sample(nowNs)
		pass.transitions += len(eng.Evaluate(nowNs))
		dec, err := mgr.EndEpochDegraded(rand.New(rand.NewSource(seed*100+int64(epoch))), reachable)
		if err != nil {
			return nil, err
		}
		st := eng.Status().Objectives[0]
		row := FailureRow{
			Epoch:        epoch,
			FaultyMs:     delay.Mean(),
			FailoverGets: failovers,
			FailedGets:   failed,
			Degraded:     dec.Degraded,
			QuorumOK:     dec.QuorumOK,
			Migrated:     dec.Migrate && dec.MovedReplicas > 0,
			Held:         dec.Held,
			SLOBudget:    st.BudgetRemaining,
			SLOBurn:      st.BurnFastShort,
			Replicas:     append([]int(nil), dec.NewReplicas...),
		}
		if prov := mgr.LastProvenance(); prov != nil {
			row.Reason = prov.Reason.String()
			row.RegretMs = prov.RegretMs
			row.Counterfactuals = len(prov.Counterfactuals)
		}
		pass.rows = append(pass.rows, row)
		if rec != nil {
			end := sim.Now()
			if end <= epochStart {
				end = epochStart + epochMs
			}
			synthEpochTrace(rec, idRng, epoch, epochStart, end, entering, dec, inj, cfg.TimeoutMs)
		}
	}
	pass.droppedLegs = sim.DroppedLegs()
	pass.budget = eng.Status().Objectives[0].BudgetRemaining
	return pass, nil
}

// synthEpochTrace fabricates the span tree a live traced coordinator
// would have recorded for one simulated epoch, stamped with the
// discrete-event clock (sim milliseconds become span nanoseconds, so
// traces from simulated and live runs render on a common axis). The
// root epoch span covers the epoch's simulated window; summary
// collection occupies its tail, one client-side collect span per
// replica with a server-side summarize leg at the replica's node for
// the ones that answered. A collect that failed names the fault that
// caused it — crash, partition, or dropped link. Degraded,
// below-quorum and migrating epochs are pinned as anomalous, mirroring
// the live coordinator's policy.
func synthEpochTrace(rec *trace.FlightRecorder, rng *rand.Rand, epoch int,
	startMs, endMs float64, entering []int, dec replica.Decision, inj *faults.Injector, timeoutMs float64) {
	traceID := trace.NewTraceID(rng)
	ns := func(ms float64) int64 { return int64(ms * 1e6) }
	missing := make(map[int]bool, len(dec.MissingSummaries))
	for _, r := range dec.MissingSummaries {
		missing[r] = true
	}

	root := trace.Span{
		TraceID: traceID, SpanID: trace.NewSpanID(rng),
		Name: fmt.Sprintf("epoch %d", epoch), Kind: trace.KindEpoch, Node: "sim-coord",
		StartNs: ns(startMs), DurNs: ns(endMs - startMs),
		Attrs: trace.Attrs{
			{Key: "epoch", Value: fmt.Sprint(epoch)},
			{Key: "k", Value: fmt.Sprint(dec.K)},
			{Key: "sim", Value: "true"},
		},
	}
	if len(dec.MissingSummaries) > 0 {
		root.Attrs = root.Attrs.Set("missing", fmt.Sprint(dec.MissingSummaries))
	}
	rec.Record(root)

	// Collection occupies the last tenth of the epoch window.
	collectStart := endMs - (endMs-startMs)/10
	collectEnd := collectStart
	for _, rep := range entering {
		sp := trace.Span{
			TraceID: traceID, SpanID: trace.NewSpanID(rng), ParentID: root.SpanID,
			Name: fmt.Sprintf("collect %d", rep), Kind: trace.KindCollect, Node: "sim-coord",
			StartNs: ns(collectStart),
			Attrs:   trace.Attrs{{Key: "replica", Value: fmt.Sprint(rep)}},
		}
		if missing[rep] {
			sp.DurNs = ns(timeoutMs)
			sp.Err = fmt.Sprintf("replica %d unreachable: %s", rep, faultCause(inj, rep))
		} else {
			rtt := 5 + rng.Float64()*45
			sp.DurNs = ns(rtt)
			serve := trace.Span{
				TraceID: traceID, SpanID: trace.NewSpanID(rng), ParentID: sp.SpanID,
				Name: "summarize", Kind: trace.KindServer, Node: fmt.Sprintf("dc%d", rep),
				StartNs: ns(collectStart + rtt/2), DurNs: ns(rtt / 10),
			}
			rec.Record(serve)
		}
		rec.Record(sp)
		if end := collectStart + float64(sp.DurNs)/1e6; end > collectEnd {
			collectEnd = end
		}
	}

	kmeans := trace.Span{
		TraceID: traceID, SpanID: trace.NewSpanID(rng), ParentID: root.SpanID,
		Name: "kmeans", Kind: trace.KindKMeans, Node: "sim-coord",
		StartNs: ns(collectEnd), DurNs: ns(1 + rng.Float64()*4),
	}
	rec.Record(kmeans)
	decideStart := collectEnd + float64(kmeans.DurNs)/1e6
	rec.Record(trace.Span{
		TraceID: traceID, SpanID: trace.NewSpanID(rng), ParentID: root.SpanID,
		Name: "decide", Kind: trace.KindDecide, Node: "sim-coord",
		StartNs: ns(decideStart), DurNs: ns(0.5),
		Attrs: trace.Attrs{
			{Key: "migrate", Value: fmt.Sprint(dec.Migrate)},
			{Key: "moved", Value: fmt.Sprint(dec.MovedReplicas)},
			{Key: "gain_ms", Value: fmt.Sprintf("%.3f", dec.EstimatedOldMs-dec.EstimatedNewMs)},
		},
	})

	switch {
	case !dec.QuorumOK:
		rec.MarkAnomalous(traceID, "below_quorum")
	case dec.Degraded:
		rec.MarkAnomalous(traceID, "degraded")
	case dec.Migrate && dec.MovedReplicas > 0:
		rec.MarkAnomalous(traceID, "migrated")
	}
}

// faultCause names the injector condition that makes a node unreachable
// from the coordinator, preferring the most specific explanation.
func faultCause(inj *faults.Injector, node int) string {
	switch {
	case inj == nil:
		return "no summary"
	case inj.NodeDown(node):
		return fmt.Sprintf("node dc%d crashed", node)
	case inj.Partitioned(faults.External, node):
		return fmt.Sprintf("dc%d partitioned from coordinator", node)
	case inj.Verdict(faults.External, node).Drop:
		return fmt.Sprintf("link to dc%d dropping", node)
	default:
		return "no summary"
	}
}

// attempt issues one simulated get against order[i], arming a timeout
// that fails over to order[i+1]. The measured delay spans the whole
// chain — timeouts spent on dead replicas inflate it, as they would a
// real client's. The first reply settles the chain; a straggler reply
// arriving after its timeout already triggered a failover is discarded.
func attempt(sim *simnet.Simulator, mgr *replica.Manager, a workload.Access, pos vec.Vec,
	order []int, i int, chainStart, timeoutMs float64, settled *bool,
	delay *stats.Accumulator, failovers, failed *int) {
	if i >= len(order) {
		*settled = true // a straggler reply can no longer un-fail the get
		*failed++
		return
	}
	if i == 1 {
		*failovers++
	}
	rep := order[i]
	err := sim.Call(simnet.NodeID(a.Client), simnet.NodeID(rep), nil,
		func(_ any, rtt float64) {
			if *settled {
				return
			}
			*settled = true
			delay.Add(sim.Now() - chainStart)
			// Only the serving replica learns about the access.
			_ = mgr.RecordAt(rep, pos, a.Bytes)
		})
	if err != nil {
		*failed++
		return
	}
	_ = sim.After(timeoutMs, func() {
		if !*settled {
			attempt(sim, mgr, a, pos, order, i+1, chainStart, timeoutMs, settled, delay, failovers, failed)
		}
	})
}

// proximityOrder sorts the replica set nearest-first in coordinate
// space — the order a coordinate-routed client would try them in.
func proximityOrder(client coord.Coordinate, replicas []int, coords []coord.Coordinate) []int {
	out := append([]int(nil), replicas...)
	sort.Slice(out, func(i, j int) bool {
		return client.DistanceTo(coords[out[i]]) < client.DistanceTo(coords[out[j]])
	})
	return out
}

// RenderFailure formats a failure result as aligned text.
func RenderFailure(res *FailureResult) string {
	var b strings.Builder
	b.WriteString("Failures: mean access delay under a seeded fault plan\n")
	fmt.Fprintf(&b, "plan: %s\n", res.Plan)
	fmt.Fprintf(&b, "%-8s%12s%12s%10s%8s%10s%10s%9s%7s%6s%15s%9s%4s  %s\n",
		"epoch", "healthy ms", "faulty ms", "failover", "failed", "degraded", "quorum",
		"budget", "burn", "held", "reason", "regret", "cf", "replicas")
	for _, r := range res.Rows {
		reason := r.Reason
		if reason == "" {
			reason = "-"
		}
		fmt.Fprintf(&b, "%-8d%12.1f%12.1f%10d%8d%10v%10v%8.1f%%%6.1fx%6v%15s%9.3f%4d  %v\n",
			r.Epoch, r.HealthyMs, r.FaultyMs, r.FailoverGets, r.FailedGets,
			r.Degraded, r.QuorumOK, 100*r.SLOBudget, r.SLOBurn, r.Held,
			reason, r.RegretMs, r.Counterfactuals, r.Replicas)
	}
	fmt.Fprintf(&b, "mean: healthy %.1f ms vs faulty %.1f ms, %d degraded epochs (%d below quorum), %d legs dropped\n",
		res.MeanHealthyMs, res.MeanFaultyMs, res.DegradedEpochs, res.QuorumBlockedEpochs, res.DroppedLegs)
	fmt.Fprintf(&b, "slo: availability budget healthy %.1f%% vs faulty %.1f%%, %d transitions, %d migrations held\n",
		100*res.HealthyBudget, 100*res.FaultyBudget, res.FaultyTransitions, res.HeldEpochs)
	return b.String()
}
