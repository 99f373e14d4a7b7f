package probe

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/georep/georep/bench/e2e"
	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/audit"
	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/vec"
)

// maxShadows bounds how many objects of a fleet are shadowed: the walk
// needs a per-object mean, not every object.
const maxShadows = 16

// Post-run probe budgets.
const (
	maxAppendRecords = 2000
	auditBudget      = 500 * time.Millisecond
	searchRuns       = 5
)

// shadow is a standalone coordinator fed the same accesses as one real
// object, so its collect and decide halves can be timed apart.
type shadow struct {
	object int
	mgr    *replica.Manager
	micros []cluster.Micro // deep copy of the epoch's collected view
}

// EpochWalk replays traced epochs against shadow coordinators with
// every sink attached, and prices the stages between collect and decide
// on the same collected micro-clusters. It implements e2e.EpochHooks.
type EpochWalk struct {
	rec    *report.Recorder
	tmp    string
	fx     e2e.Fixture
	pos    []vec.Vec // node -> coordinate position
	shards *cluster.Sharded
	shadow []*shadow
	reg    *metrics.Registry
	led    *ledger.Ledger
	hist   *metrics.History
	eng    *slo.Engine
	ticks  int
	// accesses counts what the batch-ingest spans covered, audited the
	// ledger records the audit replay spans covered.
	accesses int
	audited  int
	Err      error
}

// NewEpochWalk returns a walk that keeps its shadow ledger under tmp.
func NewEpochWalk(rec *report.Recorder, tmp string) *EpochWalk {
	return &EpochWalk{rec: rec, tmp: tmp}
}

func (w *EpochWalk) note(err error) {
	if err != nil && w.Err == nil {
		w.Err = err
	}
}

// Setup builds the shadows from the driver's fixture.
func (w *EpochWalk) Setup(fx e2e.Fixture) error {
	w.fx = fx
	w.pos = make([]vec.Vec, len(fx.Coords))
	for i := range fx.Coords {
		w.pos[i] = fx.Coords[i].Pos
	}
	w.reg = metrics.NewRegistry()
	var err error
	if w.led, err = ledger.Open(filepath.Join(w.tmp, "shadow"), e2e.LedgerOptions(w.reg)); err != nil {
		return err
	}
	spec, err := slo.Parse(e2e.SLOSpec)
	if err != nil {
		return err
	}
	w.hist = metrics.NewHistory(w.reg, 64)
	if w.eng, err = slo.New(spec, slo.Config{History: w.hist}); err != nil {
		return err
	}
	n := fx.Objects
	if n > maxShadows {
		n = maxShadows
	}
	for j := 0; j < n; j++ {
		obj := j * fx.Objects / n
		cfg := fx.Manager
		cfg.Metrics = w.reg
		cfg.Tracer = trace.New(trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous), "shadow")
		cfg.Ledger = w.led
		cfg.Provenance = true
		cfg.ObjectID, cfg.Class = fx.ObjectName(obj), fx.ObjectClass(obj)
		mgr, err := replica.NewManager(cfg, fx.Candidates, fx.Coords, nil)
		if err != nil {
			return err
		}
		w.shadow = append(w.shadow, &shadow{object: obj, mgr: mgr})
	}
	if s := fx.Manager.IngestShards; s > 1 {
		if w.shards, err = cluster.NewSharded(s, fx.Manager.M, fx.Manager.Dims); err != nil {
			return err
		}
	}
	return nil
}

// Close discards the shadow ledger.
func (w *EpochWalk) Close() {
	e2e.DropLedger(w.led)
	w.led = nil
}

// Frame replays one PoP's batch: the manager's batch-ingest path and,
// beside it, the bare sharded summarizer it wraps.
func (w *EpochWalk) Frame(node int, clients []int, weights []float64) {
	sh := w.shadow[0]
	rep := sh.mgr.Route(w.fx.Coords[node])
	sp := w.rec.Begin("replica.record_batch", 0, 0)
	err := sh.mgr.RecordBatchAt(rep, clients, weights)
	w.rec.End(sp)
	w.note(err)
	if w.shards != nil {
		sp = w.rec.Begin("cluster.observe_sharded", 0, 0)
		err = w.shards.ObserveBatch(clients, w.pos, weights)
		w.rec.End(sp)
		w.note(err)
	}
	w.accesses += len(clients)
}

// Feed hands each shadowed object the accesses its real twin got.
func (w *EpochWalk) Feed(nodes []int32, perObject int) {
	for _, sh := range w.shadow {
		for _, n := range nodes[sh.object*perObject : (sh.object+1)*perObject] {
			_, err := sh.mgr.Record(w.fx.Coords[n], 1)
			w.note(err)
		}
	}
}

// Tick closes the epoch on every shadow — collect, then decide (with
// the real system's placement as the override in a fleet, so the decide
// half is gates and sinks only) — and then times, on the collected
// micro-clusters, the stages a coordinator runs in between.
func (w *EpochWalk) Tick(op int64, rngSeed int64, placementOf func(object int) []int) error {
	rec := w.rec
	k := w.fx.Manager.K
	for _, sh := range w.shadow {
		root := rec.Begin("walk.tick", 0, op)

		sp := rec.Begin("replica.begin_epoch", root, op)
		p, err := sh.mgr.BeginEpoch(nil)
		rec.End(sp)
		if err != nil {
			rec.End(root)
			return fmt.Errorf("probe: shadow begin epoch: %w", err)
		}
		sh.micros = sh.micros[:0]
		for _, m := range p.Micros() {
			sh.micros = append(sh.micros, m.Clone())
		}
		var ov *replica.EpochOverride
		if w.fx.Fleet && p.CanDecide() {
			ov = &replica.EpochOverride{Proposed: placementOf(sh.object)}
		}
		sp = rec.Begin("replica.complete_epoch", root, op)
		dec, err := sh.mgr.CompleteEpoch(rand.New(rand.NewSource(rngSeed)), p, ov)
		rec.End(sp)
		if err != nil {
			rec.End(root)
			return fmt.Errorf("probe: shadow complete epoch: %w", err)
		}

		if len(sh.micros) > 0 {
			sp = rec.Begin("cluster.kmeans", root, op)
			_, err = cluster.MacroClusterOpt(rand.New(rand.NewSource(rngSeed)), sh.micros, k, cluster.Options{Parallelism: 1})
			rec.End(sp)
			w.note(err)

			sp = rec.Begin("replica.estimate_delay", root, op)
			_, err = replica.EstimateMeanDelay(sh.micros, dec.NewReplicas, w.fx.Coords)
			rec.End(sp)
			w.note(err)
		}
		rec.End(root)
	}
	if w.shards != nil {
		sp := rec.Begin("cluster.summary", 0, op)
		w.shards.Summary()
		rec.End(sp)
		w.note(w.shards.Decay(0.5))
	}
	w.ticks++
	now := int64(w.ticks) * int64(10*time.Second)
	sp := rec.Begin("metrics.history_sample", 0, op)
	w.hist.Sample(now)
	rec.End(sp)
	sp = rec.Begin("slo.evaluate", 0, op)
	w.eng.Evaluate(now)
	rec.End(sp)
	return nil
}

// Finish runs the post-run probes: append cost and audit replay (the
// second branch-and-bound, reachable only through replay) on the records
// the shadows wrote — the same shape as the real run's, a bounded
// number — and the exhaustive placement search over the fixture's
// candidates.
func (w *EpochWalk) Finish() {
	rec := w.rec
	recs, err := ledger.ReadDir(w.led.Dir())
	w.note(err)
	if len(recs) > 0 {
		scratch, err := ledger.Open(filepath.Join(w.tmp, "append"), e2e.LedgerOptions(nil))
		w.note(err)
		if err == nil {
			tail := recs
			if len(tail) > maxAppendRecords {
				tail = tail[len(tail)-maxAppendRecords:]
			}
			for i := range tail {
				sp := rec.Begin("ledger.append", 0, 0)
				err := scratch.Append(tail[i])
				rec.End(sp)
				w.note(err)
			}
			e2e.DropLedger(scratch)
		}
		// Replay tick by tick (one record per shadow) until the budget
		// is spent; at least one tick.
		chunk := len(w.shadow)
		start := time.Now()
		for lo := 0; lo+chunk <= len(recs); lo += chunk {
			sp := rec.Begin("audit.replay", 0, 0)
			_, err := audit.Run(recs[lo:lo+chunk], audit.Config{Seed: 1, Parallelism: 1})
			rec.End(sp)
			w.note(err)
			w.audited += chunk
			if time.Since(start) > auditBudget {
				break
			}
		}
	}
	in := &placement.Instance{
		NumNodes:   len(w.fx.Coords),
		RTT:        w.fx.RTT,
		Coords:     w.fx.Coords,
		Candidates: w.fx.Candidates,
		Clients:    w.fx.Clients,
		K:          w.fx.Manager.K,
	}
	for i := 0; i < searchRuns; i++ {
		sp := rec.Begin("placement.search", 0, 0)
		_, err := placement.Optimal{Parallelism: 1}.Place(nil, in)
		rec.End(sp)
		w.note(err)
	}
}

// AddMetrics derives the epoch per-layer metrics from the recorded
// spans and closes the tick budget against the traced tick the driver
// reported: a fleet's tick is every object's collect and decide plus
// one k-means per solve (plus the refinement, priced by its own rerun);
// a single manager's tick is its collect and decide.
func (w *EpochWalk) AddMetrics(res *report.Result) {
	agg := report.Aggregate(w.rec.Spans(), w.rec.Inner, w.rec.Outer)
	us := func(metric, span string) float64 {
		st := agg[span]
		if st.Count == 0 {
			return 0
		}
		res.Add(metric, "us", st.MeanSelfNs()/1e3, st.Count)
		return st.MeanSelfNs() / 1e3
	}
	begin := us("replica.begin_epoch_us", "replica.begin_epoch")
	complete := us("replica.complete_epoch_us", "replica.complete_epoch")
	kmeans := us("cluster.kmeans_us", "cluster.kmeans")
	us("replica.estimate_delay_us", "replica.estimate_delay")
	us("cluster.summary_us", "cluster.summary")
	us("metrics.history_sample_us", "metrics.history_sample")
	us("slo.evaluate_us", "slo.evaluate")
	us("ledger.append_us", "ledger.append")
	if w.audited > 0 {
		perRecord := agg["audit.replay"].SelfNs / float64(w.audited) / 1e3
		res.Add("audit.replay_us_per_epoch", "us", perRecord*float64(w.fx.Objects), w.audited)
	}
	us("placement.search_us", "placement.search")
	if w.accesses > 0 {
		res.Add("replica.record_batch_ns_per_access", "ns", agg["replica.record_batch"].SelfNs/float64(w.accesses), w.accesses)
		if st := agg["cluster.observe_sharded"]; st.Count > 0 {
			res.Add("cluster.observe_sharded_ns", "ns", st.SelfNs/float64(w.accesses), w.accesses)
		}
	}

	if tick, ok := res.Get("traced.tick_us"); ok && tick.Value > 0 {
		attributed := begin + complete
		if w.fx.Fleet {
			attributed = float64(w.fx.Objects) * (begin + complete)
			if solves, ok := res.Get("placement.solves"); ok {
				attributed += solves.Value * kmeans
			}
			if d, ok := res.Get("placement.refine_delta_us"); ok && d.Value > 0 {
				attributed += d.Value
			}
		}
		res.Add("tick.attributed_us", "us", attributed, tick.Samples)
		res.Add("tick.unattributed_us", "us", tick.Value-attributed, tick.Samples)
		res.Add("tick.budget_coverage", "ratio", attributed/tick.Value, tick.Samples)
	}
	res.CheckOK("layer_walk", w.Err == nil, fmt.Sprint(w.Err))
}
