// Package e2e holds the benchmark's end-to-end drivers: the closed-loop
// client of a three-node daemon cluster and the epoch loops over
// replica.Manager and placement.Service. It reaches the program only
// through the entry points a user of it would call —
// daemon.NewNode/DialNode and Client.Get/Put/Micros/Decay/Replicate/
// Coord/Metrics, workload.SynthClients/NewStream/StreamDigest,
// replica.NewManager and Manager.Route/RecordBatchAt/RecordObserved/
// EndEpoch, placement.NewService and Service.Register/EndEpoch with
// Object.Record, plus the constructors of the sinks a deployment wires
// in (metrics registry and history, ledger, flight recorder, SLO
// engine) — so a signature change inside one layer breaks the layer
// walk in package probe, never the end-to-end numbers.
package e2e

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/experiment"
)

// Workload names.
const (
	LiveRead  = "live_read"
	LiveMixed = "live_mixed"
	Ingest1M  = "ingest_1m"
	Fleet10K  = "fleet_10k"
	DecideK4  = "decide_k4"
)

// Workloads lists the five workloads in reporting order.
var Workloads = []string{LiveRead, LiveMixed, Ingest1M, Fleet10K, DecideK4}

// Sinks switches the observability layers of an epoch workload off one
// by one; the zero value is the recorded configuration, everything on.
// Traced runs flip single switches in short same-seed reruns to price
// each sink.
type Sinks struct {
	NoMetrics    bool
	NoLedger     bool
	NoProvenance bool
	NoTracer     bool
	NoSLO        bool
	// NoRefine turns the branch-and-bound refinement of decide_k4 off
	// (a solver stage, not a sink, priced the same way).
	NoRefine bool
}

// AllOff is the bare epoch: no sink attached.
var AllOff = Sinks{NoMetrics: true, NoLedger: true, NoProvenance: true, NoTracer: true, NoSLO: true}

// Params parameterizes one run of one workload.
type Params struct {
	Seed int64
	// Seconds is the measured, untraced window.
	Seconds float64
	// TraceSeconds, when positive, appends a traced window of this
	// length on the same warmed-up system: spans go to Rec, hooks fire.
	TraceSeconds float64
	// Quick shrinks every population and count so all five workloads
	// finish inside the unit-test budget; numbers from it mean nothing.
	Quick bool
	// SetupRepeats is how many times the whole fixture is built: once
	// for the run and, after it, the rest for a steadier setup_s.
	SetupRepeats int
	// Nodes, when set, aims the live workloads at already-running
	// georepd processes instead of in-process nodes.
	Nodes []string
	// TmpDir is where ledgers are written; the caller removes it.
	TmpDir string
	Sinks  Sinks
	// Rec receives the spans of the traced window.
	Rec *report.Recorder
	// LiveHooks / EpochHooks receive each traced operation's inputs so
	// the layer walk can replay them; nil disables the walk.
	LiveHooks  LiveHooks
	EpochHooks EpochHooks
}

// Run dispatches to the named workload's driver.
func Run(workload string, p Params) (*report.Result, error) {
	if p.SetupRepeats < 1 || p.TraceSeconds > 0 {
		p.SetupRepeats = 1 // a rebuild would feed the layer walk's hooks twice
	}
	var (
		res *report.Result
		err error
	)
	switch workload {
	case LiveRead, LiveMixed:
		res, err = runLive(workload, p)
	case Ingest1M:
		res, err = runIngest(p)
	case Fleet10K, DecideK4:
		res, err = runService(workload, p)
	default:
		return nil, fmt.Errorf("e2e: unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("e2e: %s: %w", workload, err)
	}
	res.Workload, res.Seed, res.Seconds, res.Trace = workload, p.Seed, p.Seconds, p.TraceSeconds > 0
	return res, nil
}

// The geography is fixed: every seed runs on the same 84-node world
// (20 candidate data centers, 64 client PoPs), so mean_access_ms moves
// with the placement logic and the seeded demand, not with a redrawn
// map. The seed drives the client population and every access drawn.
const (
	worldSeed  = 1
	worldNodes = 84
	worldCands = 20
)

// world is the fixed geography split into candidate DCs and client PoPs.
type world struct {
	*experiment.World
	cands []int // candidate data centers (every 4th node)
	pops  []int // client PoP nodes (the rest)
	// popRegion[i] is pops[i]'s region, remapped densely over the
	// regions that have a PoP.
	popRegion []int
	regions   int
}

// buildWorld generates the latency matrix and embeds the coordinates;
// the quick pass cuts the embedding short (coarser coordinates, same
// code path).
func buildWorld(quick bool) (*world, error) {
	cfg := experiment.DefaultSetup()
	cfg.Nodes = worldNodes
	if quick {
		cfg.CoordRounds = 25
	}
	ew, err := experiment.BuildWorld(worldSeed, cfg)
	if err != nil {
		return nil, err
	}
	w := &world{World: ew}
	remap := make(map[int]int)
	for i := 0; i < worldNodes; i++ {
		if i%4 == 0 && len(w.cands) < worldCands {
			w.cands = append(w.cands, i)
			continue
		}
		r, ok := remap[ew.Placements[i].Region]
		if !ok {
			r = len(remap)
			remap[ew.Placements[i].Region] = r
		}
		w.pops = append(w.pops, i)
		w.popRegion = append(w.popRegion, r)
	}
	w.regions = len(remap)
	return w, nil
}

// timings collects per-operation durations in nanoseconds.
type timings struct{ ns []int64 }

func newTimings(capacity int) *timings { return &timings{ns: make([]int64, 0, capacity)} }

func (t *timings) add(d time.Duration) { t.ns = append(t.ns, int64(d)) }

func (t *timings) n() int { return len(t.ns) }

func (t *timings) total() float64 {
	var s float64
	for _, v := range t.ns {
		s += float64(v)
	}
	return s
}

func (t *timings) mean() float64 {
	if len(t.ns) == 0 {
		return 0
	}
	return t.total() / float64(len(t.ns))
}

// sorted returns the durations ascending, in nanoseconds.
func (t *timings) sorted() []float64 {
	s := make([]float64, len(t.ns))
	for i, v := range t.ns {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return s
}

// addPeakRSS reports the process's peak resident set so far. Drivers
// call it when the measured window closes, before their checks read
// ledgers and snapshots back in.
func addPeakRSS(res *report.Result) { res.Add("peak_rss_mb", "MiB", peakRSSMiB(), 0) }

// peakRSSMiB reads the process's peak resident set (VmHWM); 0 where
// /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// timedBuild builds a fixture and returns how long that took, in seconds.
func timedBuild[T any](build func() (T, error)) (T, float64, error) {
	start := time.Now()
	fx, err := build()
	return fx, time.Since(start).Seconds(), err
}

// runFixture is the frame every workload shares: build the fixture,
// measure on it, discard it, and then build it p.SetupRepeats-1 more
// times for setup_s, discarding each build at once. The rebuilds come
// after the run's checks, so they change neither the window nor
// peak_rss_mb. setup_s is the fastest build, for the reason report.Quiet
// gives: a build is one long slice, and what a neighbour adds to it is
// not the program's.
func runFixture[T any](p Params, build func() (T, error), measure func(T, *report.Result) error, discard func(T)) (*report.Result, error) {
	fx, fastest, err := timedBuild(build)
	if err != nil {
		return nil, err
	}
	res := &report.Result{Info: map[string]string{}}
	err = measure(fx, res)
	discard(fx)
	if err != nil {
		return nil, err
	}
	for i := 1; i < p.SetupRepeats; i++ {
		runtime.GC() // the previous fixture is garbage; keep its collection off this build's clock
		fx, d, err := timedBuild(build)
		if err != nil {
			return nil, fmt.Errorf("rebuild %d: %w", i, err)
		}
		discard(fx)
		if d < fastest {
			fastest = d
		}
	}
	res.Add("setup_s", "s", fastest, p.SetupRepeats)
	return res, nil
}

// failures counts the operations of a run that errored or answered
// wrongly, keeping the first one's description.
type failures struct {
	failed int64
	first  string
}

func (f *failures) fail(format string, args ...any) {
	f.failed++
	if f.first == "" {
		f.first = fmt.Sprintf(format, args...)
	}
}

// finite guards a derived ratio against an empty denominator.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// window is one measured phase's wall-clock budget.
type window struct {
	start time.Time
	dur   time.Duration
}

func startWindow(seconds float64) window {
	return window{start: time.Now(), dur: time.Duration(seconds * float64(time.Second))}
}

func (w window) open() bool { return time.Since(w.start) < w.dur }

// recordedDigests pins the generated input of seeds 1 and 2 — the
// stream's SHA-256 as workload.StreamDigest computes it (live workloads:
// one epoch; ingest_1m: two), or the SHA-256 of the warm-up epochs'
// drawn client nodes (service workloads) — so both commits of a
// comparison provably saw identical input. The quick entries are the
// unit test's. A seed without an entry is printed, not checked.
var recordedDigests = map[string]string{
	"live_read/seed=1/quick=false":  "41526a35bc73df33c28e3978cc5cab395d2d430ec73eba384d881b6bc190fc07",
	"live_read/seed=2/quick=false":  "f036ba427fd1844927206ad47e18ac6208d28b3e0eefac0a74e69792a3d1f915",
	"live_read/seed=1/quick=true":   "fbee6adfc920a4526f829b2207faf76a660bed1ecb2c320d08d13722aa3d3161",
	"live_read/seed=2/quick=true":   "4f3bfd5d4dece7cf82bb318d8f0761d4f7b8574729402469b23918d7fbee9521",
	"live_mixed/seed=1/quick=false": "c4b11c6d484a5ad578f17deb00fd28f4ef86ad5dcd39685d31864e0021622651",
	"live_mixed/seed=2/quick=false": "0f719b75a7827f468513b6477c09e72843b01017c1682b0b4129c6285f0df9d3",
	"live_mixed/seed=1/quick=true":  "735941edfa2a38e6189a9372c43bb8dbab7586ac012800c248650db20ed101c7",
	"live_mixed/seed=2/quick=true":  "30557c1af98f5e722d787e3c55180c2456192c34585576deb71ff38222f5a528",
	"ingest_1m/seed=1/quick=false":  "151c51fcce2fff07b1e7a34940713a1b35ef63bff07b309090b09543f01ac25e",
	"ingest_1m/seed=2/quick=false":  "3e3c8d3a7ddd4e8edc98c7dd67dbb730cc90d7ea02371c2e7a448d937786ec88",
	"ingest_1m/seed=1/quick=true":   "847b4833b515d8b4ece374186ab8096fa850af3c98a5ef0354e33efc67c4f903",
	"ingest_1m/seed=2/quick=true":   "8a8dc7ab6f1f91fafd5e04e6c384ad92857a5091ef1b29781a31f532871db8cf",
	"fleet_10k/seed=1/quick=false":  "135d1e36bb8a82ef9c376ea81dc1a7a48d36d9189085ab3153b3712e06e086a2",
	"fleet_10k/seed=2/quick=false":  "09ec69b6da7396d12a62b599de17b295317b75b0196af33b3d6cd4855fc1591f",
	"fleet_10k/seed=1/quick=true":   "65bbefc0480fd5c1d7a224bcf90772d03fe8247e995408ac44157a042093c9b3",
	"fleet_10k/seed=2/quick=true":   "608e2b5d90d2ea4441205852c89d8b180da29a914911425e5e80d1fcf862df72",
	"decide_k4/seed=1/quick=false":  "236a3b02821908066c1542482e77e7e8c2fc365d1ed5585f730e128d8daab656",
	"decide_k4/seed=2/quick=false":  "2e3b1f507b262ae209d5c0d078127285229255da8abd73c08e9793ae6424a8a8",
	"decide_k4/seed=1/quick=true":   "f1d117183997847a6861a21c483422ea58826a0c93bcb561aeedaae498b8fddc",
	"decide_k4/seed=2/quick=true":   "61ea615b0386093ce2011cf5d85eeb5960c5e99fada4593c073495ec8f1f7cdf",
}

// checkDigest records the run's input digest and, where one is pinned
// for this workload, seed and size, fails the run on a mismatch.
func checkDigest(res *report.Result, workload, digest string, p Params) {
	res.Info["input_digest"] = digest
	want, ok := recordedDigests[fmt.Sprintf("%s/seed=%d/quick=%v", workload, p.Seed, p.Quick)]
	res.CheckOK("input_digest", !ok || want == digest, fmt.Sprintf("generated input hashes to %s, recorded %s", digest, want))
}
