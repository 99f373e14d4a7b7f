package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/georep/georep/internal/faults"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/workload"
)

// The write-path experiment measures what the read-side figures cannot:
// staleness and availability of a leader-based write path while things
// break. A mixed read/write stream replays twice over the same adopted
// placement — once healthy, once under a seeded fault plan (a follower
// crash long enough to force snapshot catch-up, a partition that
// deposes the leader mid-epoch, a lossy background ack leg) — and every
// read carries a staleness contract: clients that have written read in
// session mode (read-your-writes + monotonic), everyone else reads
// bounded-staleness from the nearest follower. The healthy run must
// show zero violations; the faulted run shows the anomaly window a
// deposed leader's unreplicated tail opens, plus failover, fencing and
// catch-up traffic. Faults take effect mid-epoch (an outage arrives
// during traffic, not between epochs), so a deposed leader really does
// hold acked-but-stranded sessions when the failover hits.

// WritePathConfig parameterizes the write-path experiment.
type WritePathConfig struct {
	// Setup builds the world (matrix + coordinates).
	Setup SetupConfig
	// NumDCs candidate data centers are drawn from the world's nodes.
	NumDCs int
	// K replicas are maintained with M micro-clusters each.
	K, M int
	// Epochs is the experiment length; the default plan needs >= 12.
	Epochs int
	// AccessesPerEpoch is the number of mixed accesses per epoch.
	AccessesPerEpoch int
	// WriteFraction is the write share of the stream (must be > 0).
	WriteFraction float64
	// RoundsPerEpoch is how many replication rounds interleave with each
	// epoch's accesses (default 8).
	RoundsPerEpoch int
	// AckQuorum members must hold a write before it is acked (default 2).
	AckQuorum int
	// Retain bounds the leader's tail after compaction (default 48);
	// small enough that a multi-epoch follower outage needs a snapshot.
	Retain int
	// BatchMax caps entries shipped per follower per round (default 64,
	// comfortably above the per-round write arrival so the lossy ack leg
	// lags but does not diverge).
	BatchMax int
	// BoundEntries is the staleness bound for bounded reads (default 96).
	BoundEntries uint64
	// LeaderPolicy places the leader (centroid by default).
	LeaderPolicy replog.LeaderPolicy
	// MinRelativeGain gates the warm-up placement migration.
	MinRelativeGain float64
	// SLO optionally overrides the objectives each pass evaluates (a
	// spec in the internal/slo DSL over the pass's replog metrics);
	// empty takes writePathSLOSpec. The engine runs on the simulated
	// clock — one replication round is wpTickNs — with windows scaled
	// so "5m fast / 6h slow" becomes "3 rounds fast / 3 epochs slow".
	SLO string
	// Plan optionally overrides the fault scenario with a DSL string
	// (see faults.Parse). Empty derives the default scenario from the
	// adopted placement: crash the nearest follower across three epochs
	// (forcing snapshot catch-up), partition the leader away for two
	// (failover + zombie fencing), and keep one ack leg lossy throughout.
	Plan string
}

// DefaultWritePathConfig returns a moderate write-path scenario.
func DefaultWritePathConfig() WritePathConfig {
	setup := DefaultSetup()
	setup.Nodes = 120
	return WritePathConfig{
		Setup:            setup,
		NumDCs:           12,
		K:                3,
		M:                8,
		Epochs:           12,
		AccessesPerEpoch: 1200,
		WriteFraction:    0.2,
		RoundsPerEpoch:   8,
		AckQuorum:        2,
		Retain:           48,
		BatchMax:         64,
		BoundEntries:     96,
		LeaderPolicy:     replog.LeaderCentroid,
		MinRelativeGain:  0.05,
	}
}

func (c WritePathConfig) validate() error {
	if err := validateShape("writepath", c.Setup, c.NumDCs, c.K, c.M); err != nil {
		return err
	}
	if c.K == 1 {
		return fmt.Errorf("experiment: writepath needs K >= 2 to replicate writes")
	}
	if c.AccessesPerEpoch <= 0 {
		return fmt.Errorf("experiment: writepath needs positive accesses")
	}
	if c.WriteFraction <= 0 || c.WriteFraction > 1 {
		return fmt.Errorf("experiment: writepath write fraction %v out of (0,1]", c.WriteFraction)
	}
	if c.Epochs < 12 && c.Plan == "" {
		return fmt.Errorf("experiment: default writepath scenario needs >= 12 epochs, got %d", c.Epochs)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("experiment: writepath needs positive epochs")
	}
	return nil
}

// WritePathRow is one epoch's outcome for one pass.
type WritePathRow struct {
	Epoch int
	// Leader and Term are the group state at epoch end.
	Leader int
	Term   uint64
	// AckedWrites is how many writes reached ack quorum this epoch;
	// FailedWrites counts appends rejected for unavailability.
	AckedWrites  uint64
	FailedWrites int
	// LagP50Entries / LagP99Entries summarize follower lag sampled after
	// every replication round this epoch.
	LagP50Entries float64
	LagP99Entries float64
	// RYW, Monotonic and Degraded are this epoch's staleness anomalies.
	RYW       int64
	Monotonic int64
	Degraded  int64
	// CatchupBytes and Snapshots measure recovery traffic this epoch.
	CatchupBytes int64
	Snapshots    int64
	// Fenced counts zombie appends rejected this epoch; Rollbacks counts
	// stale-term entries truncated from rejoining members.
	Fenced    int64
	Rollbacks int64
	// Failovers is cumulative over the pass.
	Failovers uint64
	// SLOBudget is the smallest error-budget remaining across the
	// pass's objectives at epoch end; SLOBurn the largest fast-short
	// burn rate; SLOState the worst alert state ("ok"/"warn"/"page").
	SLOBudget float64
	SLOBurn   float64
	SLOState  string
}

// WritePathResult aggregates the write-path experiment.
type WritePathResult struct {
	// Members is the adopted placement; Leader its initial write leader.
	Members []int
	Leader  int
	Policy  replog.LeaderPolicy
	// DecisionReason, DecisionRegretMs and DecisionCounterfactuals are
	// the warm-up placement decision's recorded provenance: why this
	// placement, its live regret against the alternatives the solver
	// scored, and how many alternatives were priced.
	DecisionReason          string
	DecisionRegretMs        float64
	DecisionCounterfactuals int
	// Plan is the fault scenario in DSL form, for reproduction.
	Plan string
	// Healthy and Faulted are the per-epoch trajectories of each pass.
	Healthy, Faulted []WritePathRow
	// HealthyViolations / FaultedViolations total RYW + monotonic
	// anomalies per pass; the healthy pass must show zero.
	HealthyViolations, FaultedViolations int64
	HealthyAcked, FaultedAcked           uint64
	FaultedFailovers                     uint64
	// ConvergeRounds is how many post-heal rounds the faulted pass
	// needed before every member held the full log.
	ConvergeRounds int
	// HealthyTransitions and Transitions are each pass's SLO state
	// changes; the healthy pass must show none. Page transitions carry
	// the pinned epoch trace ID and (for the lag objective) the tail
	// exemplar trace IDs that burned the budget.
	HealthyTransitions, Transitions []slo.Transition
	// Traces are the faulted pass's retained epoch span trees, for
	// export next to the figure (replicasim -trace-out).
	Traces []trace.Trace
}

// writePathSLOSpec is the default objective pair: session staleness as
// a ratio of violating reads, and replication lag as the fraction of
// per-round lag observations beyond 64 entries. Budgets are sized so a
// healthy pass idles at zero burn while the partition and crash phases
// of the default plan burn fast enough to page.
const writePathSLOSpec = "staleness ratio(replog_ryw_violations_total+replog_monotonic_violations_total / replog_reads_total) <= 0.001; " +
	"lag_p99 p99(replog_replication_lag_entries) <= 64 budget 0.02"

// wpTickNs is the simulated duration of one replication round.
const wpTickNs = int64(10 * time.Second)

// WritePath runs the experiment for one seed. Both passes verify the
// sequence-accounting invariants at the end: convergence after heal,
// log contiguity, and no acked write missing from any member.
func WritePath(seed int64, cfg WritePathConfig) (*WritePathResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RoundsPerEpoch <= 0 {
		cfg.RoundsPerEpoch = 8
	}
	if cfg.BoundEntries == 0 {
		cfg.BoundEntries = 96
	}
	w, err := BuildWorld(seed, cfg.Setup)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed * 41))

	cand, clientNodes := w.split(rng, cfg.NumDCs)
	clientRegions, numRegions := w.regions(clientNodes, true)

	initial, err := randomPlacement(rng, cand, cfg.K)
	if err != nil {
		return nil, err
	}

	// The mixed workload comes from the streaming generator so the write
	// fraction rides the same spec the planet-scale path uses.
	synth, err := workload.SynthClients(rng, 4*len(clientNodes), clientNodes, clientRegions)
	if err != nil {
		return nil, err
	}
	stream, err := workload.NewStream(workload.StreamSpec{
		Clients:         len(synth),
		Regions:         numRegions,
		Objects:         64,
		ZipfExponent:    0.9,
		MeanObjectBytes: 1,
		BatchSize:       cfg.AccessesPerEpoch,
		Rate:            cfg.AccessesPerEpoch,
		WriteFraction:   cfg.WriteFraction,
	}, synth)
	if err != nil {
		return nil, err
	}
	stream.Seed(seed * 43)

	// Warm-up epoch: one manager decision with the write-aware objective
	// adopts the placement and names its leader; the replication runs
	// then hold that placement fixed so both passes see one group.
	mgr, err := replica.NewManager(replica.Config{
		K: cfg.K, M: cfg.M, Dims: cfg.Setup.CoordDims,
		Migration:     replica.MigrationPolicy{MinRelativeGain: cfg.MinRelativeGain},
		WriteFraction: cfg.WriteFraction,
		LeaderPolicy:  cfg.LeaderPolicy,
		Provenance:    true,
	}, cand, w.Coords, initial)
	if err != nil {
		return nil, err
	}
	slab := make([]workload.Access, cfg.Epochs*cfg.AccessesPerEpoch)
	epochs := make([][]workload.Access, cfg.Epochs)
	warm := stream.Next(make([]workload.Access, cfg.AccessesPerEpoch))
	for _, a := range warm {
		if _, err := mgr.Record(w.Coords[a.Client], a.Bytes); err != nil {
			return nil, err
		}
	}
	dec, err := mgr.EndEpoch(rng)
	if err != nil {
		return nil, err
	}
	members := append([]int(nil), dec.NewReplicas...)
	sort.Ints(members)
	leader := dec.Leader
	if leader < 0 {
		return nil, fmt.Errorf("experiment: write-enabled manager named no leader: %+v", dec)
	}

	// Pre-generate the replication epochs once so both passes replay
	// byte-identical mixed access sequences.
	for e := range epochs {
		if err := stream.Advance(); err != nil {
			return nil, err
		}
		view := slab[e*cfg.AccessesPerEpoch : (e+1)*cfg.AccessesPerEpoch]
		epochs[e] = stream.Next(view)
	}

	healthy, err := runWritePass(cfg, seed*61, w, members, leader, epochs, nil)
	if err != nil {
		return nil, err
	}
	plan, err := buildWritePathPlan(seed, cfg, w, members, leader)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		return nil, err
	}
	faulted, err := runWritePass(cfg, seed*67, w, members, leader, epochs, inj)
	if err != nil {
		return nil, err
	}

	res := &WritePathResult{
		Members: members, Leader: leader, Policy: cfg.LeaderPolicy,
		Plan:    plan.String(),
		Healthy: healthy.rows, Faulted: faulted.rows,
		HealthyAcked: healthy.acked, FaultedAcked: faulted.acked,
		FaultedFailovers:   faulted.failovers,
		ConvergeRounds:     faulted.convergeRounds,
		HealthyTransitions: healthy.transitions,
		Transitions:        faulted.transitions,
		Traces:             faulted.traces,
	}
	if prov := mgr.LastProvenance(); prov != nil {
		res.DecisionReason = prov.Reason.String()
		res.DecisionRegretMs = prov.RegretMs
		res.DecisionCounterfactuals = len(prov.Counterfactuals)
	}
	for _, r := range healthy.rows {
		res.HealthyViolations += r.RYW + r.Monotonic
	}
	for _, r := range faulted.rows {
		res.FaultedViolations += r.RYW + r.Monotonic
	}
	return res, nil
}

// buildWritePathPlan derives the default scenario unless the config
// overrides it with a DSL plan: the fault targets come from the adopted
// placement, so the crash really hits the client-nearest follower and
// the partition really isolates the leader.
func buildWritePathPlan(seed int64, cfg WritePathConfig, w *World, members []int, leader int) (*faults.Plan, error) {
	if cfg.Plan != "" {
		return faults.Parse(seed, cfg.Plan)
	}
	var followers []int
	for _, n := range members {
		if n != leader {
			followers = append(followers, n)
		}
	}
	// f1 is the follower nearest the leader (the likely read target for
	// leader-local clients); f2 takes the lossy ack leg.
	f1, f2 := followers[0], followers[len(followers)-1]
	if len(followers) > 1 {
		sort.Slice(followers, func(i, j int) bool {
			return w.Coords[leader].DistanceTo(w.Coords[followers[i]]) <
				w.Coords[leader].DistanceTo(w.Coords[followers[j]])
		})
		f1, f2 = followers[0], followers[len(followers)-1]
	}
	third := cfg.Epochs / 3
	p := &faults.Plan{Seed: seed}
	// Phase 1: the nearest follower is down three epochs — far past the
	// leader's retention, so rejoining requires a snapshot transfer.
	p.Crashes = append(p.Crashes, faults.Crash{Node: f1, From: third, To: third + 2})
	// Phase 2: the leader is partitioned away for one epoch. Its links
	// die at the epoch boundary but the deposition lands mid-epoch, so
	// half an epoch of appends strands on the zombie: acked writes are
	// quorum-held and survive the failover, the stranded tail is rolled
	// back when the heal lets the real leader reach (and fence) the
	// zombie — and every session that wrote or read that tail then reads
	// degraded or backwards until the new leader's sequence passes it.
	p.Partitions = append(p.Partitions, faults.Partition{
		A: []int{leader}, From: 2*third - 1, To: 2*third - 1,
	})
	// Phase 3: the replica that wins that election (the only follower
	// that was up through the partition epoch) crashes next — a second
	// failover, this time of a term-2 leader, and a second snapshot
	// catch-up when it rejoins.
	p.Crashes = append(p.Crashes, faults.Crash{Node: f2, From: 2 * third, To: 2*third + 1})
	// Throughout: one lossy ack leg keeps cursors stale so re-ships and
	// duplicate-skips happen continuously.
	p.Links = append(p.Links, faults.LinkFault{
		Src: leader, Dst: f2, From: 0, To: cfg.Epochs - 1, DropProb: 0.3,
	})
	return p, p.Validate()
}

// writePass is one replication run (healthy when inj is nil).
type writePass struct {
	rows           []WritePathRow
	acked          uint64
	failovers      uint64
	convergeRounds int
	transitions    []slo.Transition
	traces         []trace.Trace
}

type wpCounters struct {
	ryw, mono, degraded, catchup, snapshots, fenced, rollbacks int64
}

func snapWPCounters(reg *metrics.Registry) wpCounters {
	return wpCounters{
		ryw:       reg.Counter("replog_ryw_violations_total").Value(),
		mono:      reg.Counter("replog_monotonic_violations_total").Value(),
		degraded:  reg.Counter("replog_stale_reads_degraded_total").Value(),
		catchup:   reg.Counter("replog_catchup_bytes_total").Value(),
		snapshots: reg.Counter("replog_snapshots_total").Value(),
		fenced:    reg.Counter("replog_appends_fenced_total").Value(),
		rollbacks: reg.Counter("replog_rollback_entries_total").Value(),
	}
}

func runWritePass(cfg WritePathConfig, seed int64, w *World, members []int, leader int,
	epochs [][]workload.Access, inj *faults.Injector) (*writePass, error) {
	reg := metrics.NewRegistry()
	g, err := replog.NewGroup(replog.Config{
		Members: members, Leader: leader,
		AckQuorum: cfg.AckQuorum, Retain: cfg.Retain, BatchMax: cfg.BatchMax,
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}

	// The pass runs on a simulated clock — one replication round per
	// tick — with a synthetic epoch span tree in a flight recorder, so
	// burn-rate pages have a current-epoch trace to pin and the lag
	// histogram's tail exemplars point at retained trees.
	pass := &writePass{}
	var tick int64
	now := func() int64 { return tick * wpTickNs }
	rec := trace.NewFlightRecorder(2*len(epochs)+8, trace.DefaultAnomalous)
	tracer := trace.New(rec, "sim",
		trace.WithRand(rand.New(rand.NewSource(seed))), trace.WithClock(now))
	ticksPerEpoch := cfg.RoundsPerEpoch + 1
	sloSpecText := cfg.SLO
	if sloSpecText == "" {
		sloSpecText = writePathSLOSpec
	}
	sloSpec, err := slo.Parse(sloSpecText)
	if err != nil {
		return nil, err
	}
	hist := metrics.NewHistory(reg, len(epochs)*ticksPerEpoch+2)
	// root is the current epoch's span tree, open while its rounds run:
	// a page pins it.
	var root *trace.ActiveSpan
	eng, err := slo.New(sloSpec, slo.Config{
		History: hist,
		Windows: slo.Windows{
			FastShort: 3 * time.Duration(wpTickNs),
			FastLong:  time.Duration(ticksPerEpoch) * time.Duration(wpTickNs),
			SlowShort: time.Duration(3*ticksPerEpoch) * time.Duration(wpTickNs),
			SlowLong:  time.Duration(6*ticksPerEpoch) * time.Duration(wpTickNs),
			Period:    time.Duration(len(epochs)*ticksPerEpoch+1) * time.Duration(wpTickNs),
		},
		OnTransition: func(t slo.Transition) {
			if t.To == slo.StatePage {
				t.PinnedTrace = root.PinTrace("slo_page:" + t.Objective)
			}
			pass.transitions = append(pass.transitions, t)
		},
	})
	if err != nil {
		return nil, err
	}
	lagHist := reg.Histogram("replog_replication_lag_entries", nil)
	tickSLO := func(epochTrace string) {
		// Link the round's worst follower lag (including crashed
		// members — their backlog is the lag the outage is building) to
		// the current epoch's trace without recounting it.
		var maxLag float64
		for _, n := range members {
			if n == g.Leader() {
				continue
			}
			if l := float64(g.LagEntries(n)); l > maxLag {
				maxLag = l
			}
		}
		lagHist.AttachExemplar(maxLag, epochTrace)
		tick++
		hist.Sample(now())
		eng.Evaluate(now())
	}
	var link replog.Link
	if inj != nil {
		link = replog.InjectorLink(inj)
	}
	orders := map[int][]int{}
	orderOf := func(client int) []int {
		o, ok := orders[client]
		if !ok {
			o = proximityOrder(w.Coords[client], members, w.Coords)
			orders[client] = o
		}
		return o
	}
	origLeader := leader
	prev := snapWPCounters(reg)
	var prevAcked uint64
	var lagSamples []float64
	sampleLags := func() {
		for _, n := range members {
			if n == g.Leader() || g.Crashed(n) {
				continue
			}
			lagSamples = append(lagSamples, float64(g.LagEntries(n)))
		}
	}

	interval := len(epochs[0]) / cfg.RoundsPerEpoch
	if interval < 1 {
		interval = 1
	}
	for epoch := range epochs {
		inj.SetEpoch(epoch)
		root = tracer.StartRoot("writepath.epoch", trace.KindEpoch)
		root.SetAttr("epoch", fmt.Sprintf("%d", epoch))
		// A client still talking to a deposed-but-live leader: its append
		// lands with a stale term and the replication attempt is fenced
		// by the first peer that has heard the newer term; the divergent
		// entry rolls back when the real leader next reaches the zombie.
		if inj != nil && g.Leader() != origLeader && !g.Crashed(origLeader) {
			_, _ = g.AppendAs(origLeader, -1, 0, 1)
			_ = g.ReplicateFrom(origLeader, link)
		}
		acc := epochs[epoch]
		// Crash/failover sync lands mid-epoch, offset off the round grid
		// so a deposed leader holds an unreplicated tail; link faults
		// flip at the epoch boundary with the injector.
		onset := len(acc)/2 + interval/2
		lagSamples = lagSamples[:0]
		failedWrites := 0
		for i, a := range acc {
			if i == onset {
				g.SyncFaults(inj)
			}
			if a.Write {
				ent, err := g.Append(int32(a.Client), int32(a.Object), a.Bytes)
				if err != nil {
					failedWrites++
				} else {
					g.NoteWrite(int32(a.Client), ent.Seq)
				}
			} else {
				mode := replog.ReadBounded
				if g.SessionOf(int32(a.Client)).LastWriteSeq > 0 {
					mode = replog.ReadSession
				}
				g.Read(int32(a.Client), mode, orderOf(a.Client), cfg.BoundEntries)
			}
			if (i+1)%interval == 0 {
				rs := tracer.Start(root.Context(), "replicate.round", trace.KindCollect)
				g.ReplicateRound(link)
				rs.End()
				sampleLags()
				tickSLO(root.Context().TraceID)
			}
		}
		rs := tracer.Start(root.Context(), "replicate.round", trace.KindCollect)
		g.ReplicateRound(link)
		rs.End()
		sampleLags()
		tickSLO(root.Context().TraceID)
		root.End()

		sloStat := eng.Status()
		budget, burn := 1.0, 0.0
		worst := slo.StateOK
		for _, o := range sloStat.Objectives {
			if o.BudgetRemaining < budget {
				budget = o.BudgetRemaining
			}
			if o.BurnFastShort > burn {
				burn = o.BurnFastShort
			}
			if o.State > worst {
				worst = o.State
			}
		}

		cur := snapWPCounters(reg)
		acked := g.AckedSeq()
		pass.rows = append(pass.rows, WritePathRow{
			Epoch:         epoch,
			Leader:        g.Leader(),
			Term:          g.Term(),
			AckedWrites:   acked - prevAcked,
			FailedWrites:  failedWrites,
			LagP50Entries: percentile(lagSamples, 0.50),
			LagP99Entries: percentile(lagSamples, 0.99),
			RYW:           cur.ryw - prev.ryw,
			Monotonic:     cur.mono - prev.mono,
			Degraded:      cur.degraded - prev.degraded,
			CatchupBytes:  cur.catchup - prev.catchup,
			Snapshots:     cur.snapshots - prev.snapshots,
			Fenced:        cur.fenced - prev.fenced,
			Rollbacks:     cur.rollbacks - prev.rollbacks,
			Failovers:     g.Failovers(),
			SLOBudget:     budget,
			SLOBurn:       burn,
			SLOState:      worst.String(),
		})
		prev, prevAcked = cur, acked
	}

	// Heal and converge: the pass fails unless every member ends holding
	// every acked write (the zero-acked-loss contract).
	g.SyncFaults(nil)
	rounds, ok := g.RunToConvergence(nil, 512)
	if !ok {
		return nil, fmt.Errorf("experiment: writepath pass did not converge after heal")
	}
	if err := g.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiment: writepath invariants: %w", err)
	}
	acked := g.AckedSeq()
	for _, n := range members {
		if got := g.AppliedSeq(n); got < acked {
			return nil, fmt.Errorf("experiment: acked write lost: member %d applied %d < acked %d", n, got, acked)
		}
	}
	pass.acked = acked
	pass.failovers = g.Failovers()
	pass.convergeRounds = rounds
	pass.traces = rec.Traces()
	return pass, nil
}

// percentile returns the q-quantile of xs by nearest-rank on a sorted
// copy; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// RenderWritePath formats a write-path result as aligned text.
func RenderWritePath(res *WritePathResult) string {
	var b strings.Builder
	b.WriteString("Write path: leader-based replication under a seeded fault plan\n")
	fmt.Fprintf(&b, "placement: %v  leader: %d (%s)\n", res.Members, res.Leader, res.Policy)
	if res.DecisionReason != "" {
		fmt.Fprintf(&b, "decision: %s, live regret %.3f ms over %d scored alternatives\n",
			res.DecisionReason, res.DecisionRegretMs, res.DecisionCounterfactuals)
	}
	fmt.Fprintf(&b, "plan: %s\n", res.Plan)
	fmt.Fprintf(&b, "%-8s%8s%6s%8s%7s%9s%9s%6s%6s%6s%10s%6s%7s%6s%9s%8s%6s\n",
		"epoch", "leader", "term", "acked", "wfail", "lag p50", "lag p99",
		"ryw", "mono", "degr", "catchup B", "snap", "fence", "fo",
		"budget", "burn", "slo")
	for _, r := range res.Faulted {
		fmt.Fprintf(&b, "%-8d%8d%6d%8d%7d%9.1f%9.1f%6d%6d%6d%10d%6d%7d%6d%8.1f%% %6.1fx%6s\n",
			r.Epoch, r.Leader, r.Term, r.AckedWrites, r.FailedWrites,
			r.LagP50Entries, r.LagP99Entries, r.RYW, r.Monotonic, r.Degraded,
			r.CatchupBytes, r.Snapshots, r.Fenced, r.Failovers,
			100*r.SLOBudget, r.SLOBurn, r.SLOState)
	}
	var hViol, fViol, hDegr, fDegr int64
	for _, r := range res.Healthy {
		hViol += r.RYW + r.Monotonic
		hDegr += r.Degraded
	}
	for _, r := range res.Faulted {
		fViol += r.RYW + r.Monotonic
		fDegr += r.Degraded
	}
	fmt.Fprintf(&b, "healthy: %d writes acked, %d staleness violations, %d degraded reads, 0 failovers\n",
		res.HealthyAcked, hViol, hDegr)
	fmt.Fprintf(&b, "faulted: %d writes acked, %d violations (ryw+monotonic), %d degraded reads, %d failovers, converged %d rounds after heal\n",
		res.FaultedAcked, fViol, fDegr, res.FaultedFailovers, res.ConvergeRounds)
	fmt.Fprintf(&b, "slo: %d transitions healthy, %d faulted\n",
		len(res.HealthyTransitions), len(res.Transitions))
	for _, t := range res.Transitions {
		fmt.Fprintf(&b, "  t=%4ds %-10s %-4s -> %-4s burn %.1fx/%.1fx budget %.1f%%",
			t.AtNs/int64(time.Second), t.Objective, t.From, t.To,
			t.BurnFastShort, t.BurnFastLong, 100*t.BudgetRemaining)
		if t.PinnedTrace != "" {
			fmt.Fprintf(&b, " pinned %s", t.PinnedTrace)
		}
		if len(t.Exemplars) > 0 {
			fmt.Fprintf(&b, " exemplars %s", strings.Join(t.Exemplars, ","))
		}
		b.WriteString("\n")
	}
	return b.String()
}
