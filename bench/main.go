// Command bench is the repository's benchmark: five named workloads over
// the live get/put path and the epoch tick, every metric printed by name
// with its unit, outputs checked, non-zero exit when a check fails.
//
//	go run ./bench -seed 1                       # all five workloads, one child process each
//	go run ./bench -workload live_read -seed 7   # one workload, in this process
//	go run ./bench -workload decide_k4 -trace 1  # traced run: per-layer metrics + bench/out/*.spans.jsonl
//	go run ./bench -seed 1 -runs 10 -json A.json # ten seeds per workload, results to a file
//	go run ./bench -compare A.json B.json        # B against A, per workload x metric
//
// The benchmark driver calls it as
// `go run ./bench --workload W --seed N --seconds S --trace 0|1`; the
// last line of standard output is then the result object BENCHMARK.json
// describes. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/georep/georep/bench/e2e"
	"github.com/georep/georep/bench/probe"
	"github.com/georep/georep/bench/report"
)

func main() {
	// Run conditions of every recorded number: one thread, default GC.
	// With two shared cores a second P only adds scheduler noise.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	nodes    []string
	outDir   string
	jsonPath string
	runs     int
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		o       options
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and span files (end-to-end numbers come from -trace 0)")
		nodes   = fs.String("nodes", "", "comma-separated addresses of running georepd nodes for live_read / live_mixed (operators; never recorded)")
		compare = fs.Bool("compare", false, "compare two run-set files: bench -compare A.json B.json")
	)
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(e2e.Workloads, ", ")+"; empty runs all five, each in a child process")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	fs.BoolVar(&o.quick, "quick", false, "tiny populations (smoke test; the numbers mean nothing)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for span files and scratch ledgers")
	fs.StringVar(&o.jsonPath, "json", "", "also write the results to this file as a JSON array (the input of -compare)")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = *trace != 0
	if *nodes != "" {
		o.nodes = strings.Split(*nodes, ",")
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two run-set files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	spec, err := findSpec()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.seconds <= 0 || o.runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	if o.workload == "" || o.runs > 1 {
		return runChildren(o, stdout)
	}
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if o.jsonPath != "" {
		if err := report.WriteJSON(o.jsonPath, []report.Result{*res}); err != nil {
			return err
		}
	}
	line, err := contractLine(res, spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct() {
		return fmt.Errorf("%s: correctness checks failed", res.Workload)
	}
	return nil
}

// findSpec reads BENCHMARK.json from the working directory or the
// nearest parent that has one (tests run inside bench/).
func findSpec() (*report.Spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil {
			return report.ReadSpec(path)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// sinkVariant is one short same-seed rerun of a traced epoch workload
// with a few configuration switches flipped, to price a sink.
type sinkVariant struct {
	name  string
	sinks e2e.Sinks
}

// with returns base with mut applied.
func with(base e2e.Sinks, mut func(*e2e.Sinks)) e2e.Sinks {
	mut(&base)
	return base
}

// sinkVariants lists a workload's reruns. The two ends of the stack —
// nothing attached, everything attached — are priced on every epoch
// workload. Single sinks are priced where a rerun is cheap: the tracer
// on ingest_1m's tick, and every sink on decide_k4 with the refinement
// off, so that a half-millisecond sink is not lost under an 18 ms
// search. A 10k-object rerun costs seconds, so fleet_10k gets the two
// ends only — the stack's total there is what nobody had measured.
func sinkVariants(workload string) []sinkVariant {
	vs := []sinkVariant{{"epoch.base_us", e2e.AllOff}, {"epoch.all_on_us", e2e.Sinks{}}}
	bare := e2e.AllOff
	switch workload {
	case e2e.Ingest1M:
		return append(vs, sinkVariant{"tracer", with(bare, func(s *e2e.Sinks) { s.NoTracer = false })})
	case e2e.DecideK4:
		bare.NoRefine = true
		return append(vs,
			sinkVariant{"bare", bare},
			sinkVariant{"all_on", e2e.Sinks{NoRefine: true}},
			sinkVariant{"tracer", with(bare, func(s *e2e.Sinks) { s.NoTracer = false })},
			sinkVariant{"metrics", with(bare, func(s *e2e.Sinks) { s.NoMetrics = false })},
			sinkVariant{"ledger", with(bare, func(s *e2e.Sinks) { s.NoLedger = false })},
			sinkVariant{"provenance", with(bare, func(s *e2e.Sinks) { s.NoProvenance = false })},
			sinkVariant{"metrics_slo", with(bare, func(s *e2e.Sinks) { s.NoMetrics, s.NoSLO = false, false })},
		)
	}
	return vs
}

// setupBuilds is how many times an untraced run builds its fixture for
// setup_s: seven times where a build takes a third of a second, three
// times where it takes more than one.
var setupBuilds = map[string]int{
	e2e.LiveRead: 7, e2e.LiveMixed: 7, e2e.Ingest1M: 3, e2e.Fleet10K: 3, e2e.DecideK4: 7,
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*report.Result, error) {
	tmp := filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	p := e2e.Params{
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Nodes: o.nodes,
		TmpDir: filepath.Join(tmp, "run"), SetupRepeats: setupBuilds[o.workload],
	}
	if o.quick {
		p.SetupRepeats = 1
	}
	if !o.trace {
		return e2e.Run(o.workload, p)
	}

	// A traced run spends a third of its length untraced (the reference
	// for the harness overhead), a third traced, and the rest on reruns
	// and post-run probes.
	rec := report.NewRecorder(1 << 18)
	p.Seconds, p.TraceSeconds, p.Rec = o.seconds/3, o.seconds/3, rec
	live := o.workload == e2e.LiveRead || o.workload == e2e.LiveMixed
	var (
		liveWalk  *probe.LiveWalk
		epochWalk *probe.EpochWalk
	)
	if live {
		var err error
		if liveWalk, err = probe.NewLiveWalk(rec, 3); err != nil {
			return nil, err
		}
		p.LiveHooks = liveWalk
	} else {
		epochWalk = probe.NewEpochWalk(rec, filepath.Join(tmp, "walk"))
		defer epochWalk.Close()
		p.EpochHooks = epochWalk
	}
	res, err := e2e.Run(o.workload, p)
	if err != nil {
		return nil, err
	}
	if live {
		liveWalk.AddMetrics(res)
	} else {
		if err := priceSinks(res, o, tmp); err != nil {
			return nil, err
		}
		epochWalk.Finish()
		epochWalk.AddMetrics(res)
	}
	spans := filepath.Join(o.outDir, o.workload+".spans.jsonl")
	if err := report.WriteSpans(spans, rec.Spans()); err != nil {
		return nil, err
	}
	res.Info["spans"] = fmt.Sprintf("%s (%d spans)", spans, len(rec.Spans()))
	return res, nil
}

// priceSinks reruns the workload briefly per sink variant and turns the
// median ticks into deltas: one sink on minus bare, the refinement on
// minus off, and the gap between the whole stack and the sum of its
// single sinks.
func priceSinks(res *report.Result, o options, tmp string) error {
	tick := make(map[string]float64)
	for _, v := range sinkVariants(o.workload) {
		vr, err := e2e.Run(o.workload, e2e.Params{
			Seed: o.seed, Seconds: o.seconds / 12, Quick: o.quick,
			TmpDir: filepath.Join(tmp, "variant"), Sinks: v.sinks,
		})
		if err != nil {
			return fmt.Errorf("variant %s: %w", v.name, err)
		}
		if !vr.Correct() {
			return fmt.Errorf("variant %s: correctness checks failed", v.name)
		}
		m, _ := vr.Get("tick_ms_p50")
		tick[v.name] = m.Value * 1000
		if strings.HasPrefix(v.name, "epoch.") {
			res.Add(v.name, "us", m.Value*1000, m.Samples)
		}
	}
	bare, ok := tick["bare"]
	if !ok {
		bare = tick["epoch.base_us"]
	}
	var sum float64
	for _, d := range []struct{ metric, variant, from string }{
		{"trace.delta_us", "tracer", ""},
		{"metrics.delta_us", "metrics", ""},
		{"ledger.delta_us", "ledger", ""},
		{"provenance.delta_us", "provenance", ""},
		{"slo.delta_us", "metrics_slo", "metrics"},
	} {
		t, ok := tick[d.variant]
		if !ok {
			continue
		}
		from := bare
		if d.from != "" {
			from = tick[d.from]
		}
		res.Add(d.metric, "us", t-from, 0)
		sum += t - from
	}
	if allOn, ok := tick["all_on"]; ok {
		res.Add("epoch.stack_gap_us", "us", allOn-bare-sum, 0)
		res.Add("placement.refine_delta_us", "us", tick["epoch.all_on_us"]-allOn, 0)
	}
	return nil
}

// runChildren runs every requested workload x seed in a fresh child
// process each (so peak_rss_mb is the workload's own), passing output
// through and collecting the results.
func runChildren(o options, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := e2e.Workloads
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	var all []report.Result
	failed := 0
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			tmpJSON := filepath.Join(o.outDir, fmt.Sprintf("child-%d.json", os.Getpid()))
			args := []string{
				"-workload", w, "-seed", fmt.Sprint(o.seed + int64(r)),
				"-seconds", fmt.Sprint(o.seconds), "-trace", traceArg,
				"-out", o.outDir, "-json", tmpJSON,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			if len(o.nodes) > 0 {
				args = append(args, "-nodes", strings.Join(o.nodes, ","))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			// The environment the repository's bench scripts pin.
			cmd.Env = append(os.Environ(), "GOFLAGS=", "GODEBUG=", "GOGC=100", "GOMAXPROCS=1", "LC_ALL=C", "LANG=C")
			runErr := cmd.Run()
			rs, err := report.ReadResults(tmpJSON)
			os.Remove(tmpJSON)
			if err == nil {
				all = append(all, rs...)
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w, o.seed+int64(r), runErr)
				failed++
			}
		}
	}
	if o.jsonPath != "" {
		if err := report.WriteJSON(o.jsonPath, all); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

// printResult prints every metric by name with its unit and sample
// count, then the checks.
func printResult(w io.Writer, res *report.Result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.3gs  %s\n", res.Workload, res.Seed, res.Seconds, mode)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range res.Metrics {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.Name, m.Value, m.Unit, n)
	}
	_ = tw.Flush() // stdout: nothing to recover
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "  info %s: %s\n", k, res.Info[k])
	}
	for _, c := range res.Checks {
		status := "ok"
		if c.Failed > 0 {
			status = fmt.Sprintf("FAILED x%d: %s", c.Failed, c.Detail)
		}
		fmt.Fprintf(w, "  check %s: %s\n", c.Name, status)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine renders the result object the benchmark driver reads:
// every end-to-end metric of BENCHMARK.json for an untraced run, every
// per-layer metric for a traced one. A per-layer metric a workload does
// not exercise reads 0; an end-to-end metric may never be missing.
func contractLine(res *report.Result, spec *report.Spec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if out.Attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	want := spec.EndToEnd
	if res.Trace {
		want = spec.PerLayer
	}
	for _, s := range want {
		m, ok := res.Get(s.Name)
		if !ok && !res.Trace {
			return "", fmt.Errorf("%s did not report end-to-end metric %s", res.Workload, s.Name)
		}
		out.Metrics[s.Name] = value{Value: m.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func compareFiles(pathA, pathB string, stdout io.Writer) error {
	spec, err := findSpec()
	if err != nil {
		return err
	}
	a, err := report.ReadResults(pathA)
	if err != nil {
		return err
	}
	b, err := report.ReadResults(pathB)
	if err != nil {
		return err
	}
	regressed, unresolved := report.WriteRows(stdout, report.Compare(a, b, spec))
	if regressed > 0 || unresolved > 0 {
		return fmt.Errorf("%d regressed, %d unresolved", regressed, unresolved)
	}
	return nil
}
