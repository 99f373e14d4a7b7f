package e2e

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"time"

	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
)

// serviceSizes are the knobs that differ between fleet_10k, decide_k4
// and their quick passes.
type serviceSizes struct {
	objects    int
	classes    int // 0: every object has its own demand arc
	arc        int // PoPs in one demand arc
	perObject  int // accesses per object per epoch
	cands      int
	k, m       int
	epsilon    float64
	drift      float64
	warmStart  bool
	refine     bool
	warmTicks  int
	meanEpochs int
}

func serviceSizesFor(workloadName string, quick bool) serviceSizes {
	if workloadName == Fleet10K {
		s := serviceSizes{
			objects: 10_000, classes: 3, arc: 21, perObject: 10, cands: 20, k: 3, m: 24,
			epsilon: 0.25, drift: 0.05, warmStart: true, warmTicks: 3, meanEpochs: 8,
		}
		if quick {
			s.objects, s.warmTicks, s.meanEpochs = 300, 2, 2
		}
		return s
	}
	s := serviceSizes{
		objects: 64, arc: 16, perObject: 200, cands: 16, k: 4, m: 25,
		refine: true, warmTicks: 10, meanEpochs: 64,
	}
	if quick {
		s.objects, s.perObject, s.warmTicks, s.meanEpochs = 8, 50, 2, 2
	}
	return s
}

// arcDriftEpochs is how many epochs a demand arc stays put before it
// slides one PoP along the region-ordered ring, so placements have
// something to chase and drift-skip does not freeze the fleet.
const arcDriftEpochs = 8

type serviceState struct {
	sz     serviceSizes
	w      *world
	ring   []int // PoPs ordered by region: neighbours are geographic neighbours
	cands  []int
	isCand []bool
	svcCfg placement.ServiceConfig // without sinks, for the fixture
	svc    *placement.Service
	objs   []*placement.Object
	sinks  *sinkSet
	rng    *rand.Rand
	nodes  []int32 // this epoch's accesses: object i reads from nodes[i*perObject:]
	reps   []int32 // serving replica of each access
	epoch  int
	hooks  EpochHooks
	// input hashes the accesses drawn during warm-up — the same number
	// of epochs on every machine — as this workload's input digest.
	input hash.Hash

	failures
	stats struct{ groups, solves, skips, migrated float64 }
}

func (s *serviceState) objectName(i int) string { return fmt.Sprintf("obj-%05d", i) }

func (s *serviceState) objectClass(i int) string {
	if s.sz.classes > 0 {
		return fmt.Sprintf("class-%d", i%s.sz.classes)
	}
	return fmt.Sprintf("arc-%02d", i%len(s.ring))
}

func buildService(workloadName string, p Params) (*serviceState, error) {
	s := &serviceState{
		sz:  serviceSizesFor(workloadName, p.Quick),
		rng: rand.New(rand.NewSource(p.Seed)), hooks: p.EpochHooks,
	}
	var err error
	if s.w, err = buildWorld(p.Quick); err != nil {
		return nil, err
	}
	s.cands = s.w.cands[:s.sz.cands]
	s.isCand = candidateSet(len(s.w.Coords), s.cands)
	idx := make([]int, len(s.w.pops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.w.popRegion[idx[a]] < s.w.popRegion[idx[b]] })
	for _, i := range idx {
		s.ring = append(s.ring, s.w.pops[i])
	}

	if s.sinks, err = openSinks(p.Sinks, p.TmpDir, workloadName, true); err != nil {
		return nil, err
	}
	s.svcCfg = placement.ServiceConfig{
		Object: replica.Config{
			K: s.sz.k, M: s.sz.m, Dims: len(s.w.Coords[0].Pos),
			Migration: replica.MigrationPolicy{MinRelativeGain: 0.05},
		},
		Candidates:     s.cands,
		Coords:         s.w.Coords,
		GroupEpsilon:   s.sz.epsilon,
		DriftThreshold: s.sz.drift,
		WarmStart:      s.sz.warmStart,
		Refine:         s.sz.refine && !p.Sinks.NoRefine,
		Seed:           p.Seed,
	}
	cfg := s.svcCfg
	s.sinks.apply(&cfg.Object, p.Sinks)
	if s.svc, err = placement.NewService(cfg); err != nil {
		s.sinks.close()
		return nil, err
	}
	for i := 0; i < s.sz.objects; i++ {
		o, err := s.svc.Register(s.objectName(i), s.objectClass(i))
		if err != nil {
			s.sinks.close()
			return nil, err
		}
		s.objs = append(s.objs, o)
	}
	s.nodes = make([]int32, s.sz.objects*s.sz.perObject)
	s.reps = make([]int32, len(s.nodes))

	s.input = sha256.New()
	warm := newEpochPhase(s.sz.warmTicks)
	for i := 0; i < s.sz.warmTicks; i++ {
		if err := s.runEpoch(warm, nil, 0); err != nil {
			s.sinks.close()
			return nil, err
		}
	}
	if s.failed > 0 {
		s.sinks.close()
		return nil, fmt.Errorf("warm-up: %s", s.first)
	}
	s.stats.groups, s.stats.solves, s.stats.skips, s.stats.migrated = 0, 0, 0, 0
	return s, nil
}

// arcStart is where object i's demand arc begins on the ring this epoch.
func (s *serviceState) arcStart(i int) int {
	base := i
	if s.sz.classes > 0 {
		base = (i % s.sz.classes) * s.sz.arc
	}
	return base + s.epoch/arcDriftEpochs
}

// runEpoch is one epoch: draw every object's accesses (off the clock),
// feed them through the object handles, tick the fleet.
func (s *serviceState) runEpoch(ph *epochPhase, rec *report.Recorder, op int64) error {
	g0 := time.Now()
	per := s.sz.perObject
	for i := range s.objs {
		start := s.arcStart(i)
		for a := 0; a < per; a++ {
			s.nodes[i*per+a] = int32(s.ring[(start+s.rng.Intn(s.sz.arc))%len(s.ring)])
		}
	}
	ph.genNs += int64(time.Since(g0))
	if s.epoch < s.sz.warmTicks {
		var b [4]byte
		for _, n := range s.nodes {
			binary.LittleEndian.PutUint32(b[:], uint32(n))
			s.input.Write(b[:])
		}
	}

	root := rec.Begin("epoch", 0, op)
	sp := rec.Begin("epoch.feed", root, op)
	f0 := time.Now()
	var feedErr error
	for i, o := range s.objs {
		for a := i * per; a < (i+1)*per; a++ {
			rep, err := o.Record(s.w.Coords[s.nodes[a]], 1)
			if err != nil && feedErr == nil {
				feedErr = err
			}
			s.reps[a] = int32(rep)
		}
	}
	ph.ingest.add(time.Since(f0))
	rec.End(sp)
	if feedErr != nil {
		s.fail("feed epoch %d: %v", s.epoch, feedErr)
	}
	ph.accesses += int64(len(s.nodes))
	if ph.epochs < s.sz.meanEpochs {
		for a, n := range s.nodes {
			ph.rttSum += s.w.Matrix.RTT(int(n), int(s.reps[a]))
		}
		ph.rttN += int64(len(s.nodes))
	}

	var st placement.EpochStats
	var tickErr error
	ph.measureAllocs(rec != nil, func() {
		ph.ticks.add(rec.Timed("epoch.tick", root, op, func() {
			st, tickErr = s.svc.EndEpoch()
			s.sinks.sample(s.epoch)
		}))
	})
	rec.End(root)
	if tickErr != nil {
		return fmt.Errorf("end epoch %d: %w", s.epoch, tickErr)
	}
	if st.Decided != len(s.objs) {
		s.fail("epoch %d: %d of %d objects decided", s.epoch, st.Decided, len(s.objs))
	}
	s.stats.groups += float64(st.Groups)
	s.stats.solves += float64(st.Solves)
	s.stats.skips += float64(st.DriftSkips)
	s.stats.migrated += float64(st.Migrated)
	for i, o := range s.objs {
		if reps := o.Replicas(); !validPlacement(reps, s.sz.k, s.isCand) {
			s.fail("epoch %d: %s placement %v is not %d distinct candidates", s.epoch, s.objectName(i), reps, s.sz.k)
		}
	}

	if rec != nil && s.hooks != nil {
		s.hooks.Feed(s.nodes, per)
		if err := s.hooks.Tick(op, 0, func(i int) []int { return s.objs[i].Replicas() }); err != nil {
			return err
		}
	}
	ph.epochs++
	s.epoch++
	return nil
}

func (s *serviceState) runPhase(seconds float64, rec *report.Recorder, opBase int64) (*epochPhase, error) {
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

func runService(workloadName string, p Params) (*report.Result, error) {
	return runFixture(p,
		func() (*serviceState, error) { return buildService(workloadName, p) },
		func(s *serviceState, res *report.Result) error { return s.measure(res, workloadName, p) },
		func(s *serviceState) { s.sinks.close() })
}

// measure runs the windows on the built fixture and checks the outcome.
func (s *serviceState) measure(res *report.Result, workloadName string, p Params) error {
	if s.hooks != nil {
		err := s.hooks.Setup(Fixture{
			Coords: s.w.Coords, Candidates: s.cands, Manager: s.svcCfg.Object, Fleet: true,
			Objects: len(s.objs), ObjectName: s.objectName, ObjectClass: s.objectClass,
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
	n := float64(u.epochs)
	res.Add("placement.feed_ns_per_access", "ns", finite(u.ingest.total()/float64(u.accesses)), int(u.accesses))
	res.Add("placement.tick_us_per_object", "us", u.ticks.mean()/1e3/float64(len(s.objs)), u.ticks.n())
	res.Add("placement.groups", "count", s.stats.groups/n, u.epochs)
	res.Add("placement.solves", "count", s.stats.solves/n, u.epochs)
	res.Add("placement.drift_skips", "count", s.stats.skips/n, u.epochs)
	res.Add("replica.migrations", "count", s.stats.migrated, u.epochs)

	if p.TraceSeconds > 0 {
		t, err := s.runPhase(p.TraceSeconds, p.Rec, 1<<32)
		if err != nil {
			return err
		}
		res.Add("traced.tick_us", "us", t.ticks.mean()/1e3, t.ticks.n())
		res.Add("placement.allocs_per_tick", "count", float64(t.mallocs)/float64(t.epochs), t.epochs)
		res.Add("trace.harness_overhead_pct", "%", overheadPct(u, t), t.epochs)
	}

	res.Attempted = int64(s.epoch)*int64(len(s.nodes)) + int64(s.epoch)
	res.Failed = s.failed
	res.Add("error_rate", "ratio", finite(float64(s.failed)/float64(res.Attempted)), int(res.Attempted))
	res.Check("operations", int(s.failed), s.first)
	s.sinks.verifyLedger(res, s.epoch*len(s.objs))
	final := make([][]int, len(s.objs))
	for i, o := range s.objs {
		final[i] = o.Replicas()
	}
	res.Info["placement_digest"] = placementDigest(final)
	checkDigest(res, workloadName, fmt.Sprintf("%x", s.input.Sum(nil)), p)
	return nil
}
