package e2e

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/workload"
)

// ingestSizes are the knobs of ingest_1m and its quick pass.
type ingestSizes struct {
	clients    int
	rate       int // accesses per epoch
	batch      int
	cands      int
	k, m       int
	shards     int
	warmEpochs int
	meanEpochs int // epochs mean_access_ms averages over
	flashStart int
	flashLen   int
}

func ingestSizesFor(quick bool) ingestSizes {
	s := ingestSizes{
		clients: 1_000_000, rate: 250_000, batch: 4096, cands: 15, k: 3, m: 8, shards: 8,
		warmEpochs: 8, meanEpochs: 32, flashStart: 24, flashLen: 8,
	}
	if quick {
		s.clients, s.rate, s.warmEpochs, s.meanEpochs, s.flashStart, s.flashLen = 20_000, 16_384, 2, 4, 3, 2
	}
	return s
}

// popFrame collects one PoP's accesses of an epoch: all of them ride one
// batch to the PoP's serving replica.
type popFrame struct {
	clients []int
	weights []float64
}

type ingestState struct {
	sz      ingestSizes
	w       *world
	specs   []workload.ClientSpec
	spec    workload.StreamSpec
	stream  *workload.Stream
	mgr     *replica.Manager
	cfg     replica.Config // without sinks, for the fixture
	cands   []int
	isCand  []bool
	sinks   *sinkSet
	acc     []workload.Access
	frames  []popFrame
	routeTo []int
	seed    int64
	epoch   int // epochs completed, warm-up included
	hooks   EpochHooks

	failures
	lastReplicas []int
}

func buildIngest(p Params) (*ingestState, error) {
	s := &ingestState{sz: ingestSizesFor(p.Quick), seed: p.Seed, hooks: p.EpochHooks}
	var err error
	if s.w, err = buildWorld(p.Quick); err != nil {
		return nil, err
	}
	s.cands = s.w.cands[:s.sz.cands]
	s.isCand = candidateSet(len(s.w.Coords), s.cands)
	s.specs, err = workload.SynthClients(rand.New(rand.NewSource(p.Seed)), s.sz.clients, s.w.pops, s.w.popRegion)
	if err != nil {
		return nil, err
	}
	// One flash crowd in the region with the most base demand.
	mass := make([]float64, s.w.regions)
	busiest := 0
	for _, c := range s.specs {
		mass[c.Region] += c.Rate
	}
	for r := range mass {
		if mass[r] > mass[busiest] {
			busiest = r
		}
	}
	s.spec = workload.StreamSpec{
		Clients:         s.sz.clients,
		Regions:         s.w.regions,
		Objects:         1,
		MeanObjectBytes: 1,
		BatchSize:       s.sz.batch,
		Rate:            s.sz.rate,
		Churn:           0.02,
		DiurnalPeriod:   8,
		DiurnalFloor:    0.1,
		Flash: []workload.FlashCrowd{{
			Region: busiest, Start: s.sz.flashStart, Duration: s.sz.flashLen, Mult: 6,
		}},
	}
	if s.stream, err = workload.NewStream(s.spec, s.specs); err != nil {
		return nil, err
	}
	s.stream.Seed(p.Seed)

	if s.sinks, err = openSinks(p.Sinks, p.TmpDir, Ingest1M, false); err != nil {
		return nil, err
	}
	s.cfg = replica.Config{
		K: s.sz.k, M: s.sz.m, Dims: len(s.w.Coords[0].Pos),
		IngestShards: s.sz.shards,
		Migration:    replica.MigrationPolicy{MinRelativeGain: 0.05},
	}
	cfg := s.cfg
	s.sinks.apply(&cfg, p.Sinks)
	if s.mgr, err = replica.NewManager(cfg, s.cands, s.w.Coords, nil); err != nil {
		s.sinks.close()
		return nil, err
	}
	s.acc = make([]workload.Access, s.stream.EpochBatches()*s.sz.batch)
	s.frames = make([]popFrame, len(s.w.Coords))
	s.routeTo = make([]int, len(s.w.Coords))

	warm := newEpochPhase(s.sz.warmEpochs)
	for i := 0; i < s.sz.warmEpochs; i++ {
		if err := s.runEpoch(warm, nil, 0); err != nil {
			s.sinks.close()
			return nil, err
		}
	}
	if s.failed > 0 {
		s.sinks.close()
		return nil, fmt.Errorf("warm-up: %s", s.first)
	}
	return s, nil
}

// runEpoch is one epoch: draw the accesses (off the clock), route and
// ingest them, close the epoch, advance the stream.
func (s *ingestState) runEpoch(ph *epochPhase, rec *report.Recorder, op int64) error {
	g0 := time.Now()
	for b := 0; b < len(s.acc); b += s.sz.batch {
		s.stream.Next(s.acc[b : b+s.sz.batch])
	}
	ph.genNs += int64(time.Since(g0))

	// On the clock: resolve each PoP's serving replica once (replicas
	// move only at epoch boundaries), gather per-PoP frames, ingest.
	root := rec.Begin("epoch", 0, op)
	sp := rec.Begin("epoch.ingest", root, op)
	i0 := time.Now()
	for _, n := range s.w.pops {
		s.routeTo[n] = s.mgr.Route(s.w.Coords[n])
		s.frames[n].clients = s.frames[n].clients[:0]
		s.frames[n].weights = s.frames[n].weights[:0]
	}
	for _, a := range s.acc {
		f := &s.frames[a.Client]
		f.clients = append(f.clients, a.Client)
		f.weights = append(f.weights, a.Bytes)
	}
	var ingestErr error
	for _, n := range s.w.pops {
		f := &s.frames[n]
		if len(f.clients) == 0 {
			continue
		}
		if err := s.mgr.RecordBatchAt(s.routeTo[n], f.clients, f.weights); err != nil && ingestErr == nil {
			ingestErr = err
		}
	}
	ph.ingest.add(time.Since(i0))
	rec.End(sp)
	if ingestErr != nil {
		s.fail("ingest epoch %d: %v", s.epoch, ingestErr)
	}
	ph.accesses += int64(len(s.acc))

	// Ground truth for the ledger and for mean_access_ms.
	var rtt float64
	for _, n := range s.w.pops {
		rtt += float64(len(s.frames[n].clients)) * s.w.Matrix.RTT(n, s.routeTo[n])
	}
	s.mgr.RecordObserved(rtt/float64(len(s.acc)), int64(len(s.acc)))
	if ph.epochs < s.sz.meanEpochs {
		ph.rttSum += rtt
		ph.rttN += int64(len(s.acc))
	}

	rngSeed := s.seed*1_000_003 + int64(s.epoch)
	rng := rand.New(rand.NewSource(rngSeed))
	var dec replica.Decision
	var tickErr error
	ph.measureAllocs(rec != nil, func() {
		ph.ticks.add(rec.Timed("epoch.tick", root, op, func() { dec, tickErr = s.mgr.EndEpoch(rng) }))
	})
	rec.End(root)
	if tickErr != nil {
		return fmt.Errorf("end epoch %d: %w", s.epoch, tickErr)
	}
	if !validPlacement(dec.NewReplicas, s.sz.k, s.isCand) {
		s.fail("epoch %d: placement %v is not %d distinct candidates", s.epoch, dec.NewReplicas, s.sz.k)
	}
	s.lastReplicas = dec.NewReplicas

	if rec != nil && s.hooks != nil {
		for _, n := range s.w.pops {
			if f := &s.frames[n]; len(f.clients) > 0 {
				s.hooks.Frame(n, f.clients, f.weights)
			}
		}
		if err := s.hooks.Tick(op, rngSeed, func(int) []int { return dec.NewReplicas }); err != nil {
			return err
		}
	}

	a0 := time.Now()
	if err := s.stream.Advance(); err != nil {
		return err
	}
	ph.advNs += int64(time.Since(a0))
	ph.epochs++
	s.epoch++
	return nil
}

func (s *ingestState) runPhase(seconds float64, rec *report.Recorder, opBase int64) (*epochPhase, error) {
	ph := newEpochPhase(1024)
	win := startWindow(seconds)
	for win.open() || ph.epochs == 0 {
		if err := s.runEpoch(ph, rec, opBase+int64(ph.epochs)+1); err != nil {
			return nil, err
		}
	}
	ph.elapsed = time.Since(win.start)
	return ph, nil
}

func runIngest(p Params) (*report.Result, error) {
	return runFixture(p,
		func() (*ingestState, error) { return buildIngest(p) },
		func(s *ingestState, res *report.Result) error { return s.measure(res, p) },
		func(s *ingestState) { s.sinks.close() })
}

// measure runs the windows on the built fixture and checks the outcome.
func (s *ingestState) measure(res *report.Result, p Params) error {
	if s.hooks != nil {
		err := s.hooks.Setup(Fixture{
			Coords: s.w.Coords, Candidates: s.cands, Manager: s.cfg, Objects: 1,
			ObjectName: func(int) string { return "" }, ObjectClass: func(int) string { return "" },
			Clients: s.w.pops, RTT: s.w.Matrix.RTT,
		})
		if err != nil {
			return err
		}
	}

	u, err := s.runPhase(p.Seconds, nil, 0)
	if err != nil {
		return err
	}
	addPeakRSS(res)
	u.addEndToEnd(res)

	if p.TraceSeconds > 0 {
		t, err := s.runPhase(p.TraceSeconds, p.Rec, 1<<32)
		if err != nil {
			return err
		}
		res.Add("traced.tick_us", "us", t.ticks.mean()/1e3, t.ticks.n())
		res.Add("replica.allocs_per_tick", "count", float64(t.mallocs)/float64(t.epochs), t.epochs)
		res.Add("replica.alloc_bytes_per_tick", "B", float64(t.allocBytes)/float64(t.epochs), t.epochs)
		res.Add("trace.harness_overhead_pct", "%", overheadPct(u, t), t.epochs)
		if s.sinks.reg != nil {
			res.Add("replica.migrations", "count", float64(s.sinks.reg.Snapshot().Counters["replica_migrations_total"]), 0)
		}
	}

	res.Attempted = int64(s.epoch)*int64(len(s.acc)) + int64(s.epoch)
	res.Failed = s.failed
	res.Add("error_rate", "ratio", finite(float64(s.failed)/float64(res.Attempted)), int(res.Attempted))
	res.Check("operations", int(s.failed), s.first)
	s.sinks.verifyLedger(res, s.epoch)
	res.Info["placement_digest"] = placementDigest([][]int{s.lastReplicas})

	shadow, err := workload.NewStream(s.spec, s.specs)
	if err != nil {
		return err
	}
	shadow.Seed(p.Seed)
	digest, err := workload.StreamDigest(shadow, 2)
	if err != nil {
		return err
	}
	checkDigest(res, Ingest1M, digest, p)
	return nil
}
