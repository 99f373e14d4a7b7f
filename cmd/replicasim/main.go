// Command replicasim reproduces the paper's evaluation: every figure and
// table of "Towards Optimal Data Replication Across Data Centers"
// (ICDCS Workshops 2011), on a synthetic PlanetLab-like testbed.
//
// Usage:
//
//	replicasim -all                 # everything, paper-scale (30 runs, 226 nodes)
//	replicasim -fig 1               # Figure 1: delay vs number of data centers
//	replicasim -fig 2               # Figure 2: delay vs degree of replication
//	replicasim -fig 3               # Figure 3: delay vs micro-cluster budget
//	replicasim -fig rnp             # §III-A: coordinate accuracy (RNP vs Vivaldi)
//	replicasim -fig drift           # extension: gradual migration under drifting demand
//	replicasim -fig quorum          # ablation: quorum reads vs placement geometry
//	replicasim -fig threshold       # ablation: migration-gain threshold sweep
//	replicasim -fig capacity        # ablation: per-DC capacity limits (load balancing)
//	replicasim -fig readwrite       # ablation: optimal k vs read/write ratio
//	replicasim -fig routing         # §III-A: predicted-closest-replica routing accuracy
//	replicasim -fig tail            # ablation: mean vs p95 placement objectives
//	replicasim -fig strategies      # all seven strategies vs k (heuristic comparison)
//	replicasim -fig failures        # robustness: mean delay under a seeded fault plan
//	replicasim -fig writepath       # robustness: leader-based writes under faults (see -write-ratio)
//	replicasim -fig scale           # extension: planet-scale streaming ingest (see -clients, -rate)
//	replicasim -fig multiobject     # extension: fleet placement with demand-signature grouping (see -objects)
//	replicasim -table 2             # Table II: online vs offline clustering cost
//	replicasim -fig 2 -runs 5       # faster, noisier
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "replicasim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("replicasim", flag.ContinueOnError)
	var (
		fig         = fs.String("fig", "", "figure to reproduce: 1, 2, 3, rnp, drift, quorum, threshold, capacity, readwrite, routing, tail, strategies, failures, writepath, scale or multiobject")
		table       = fs.String("table", "", "table to reproduce: 2")
		all         = fs.Bool("all", false, "reproduce every figure and table")
		runs        = fs.Int("runs", 30, "simulation runs to average over (paper: 30)")
		nodes       = fs.Int("nodes", 226, "testbed size (paper: 226 PlanetLab nodes)")
		algo        = fs.String("coord", "rnp", "coordinate algorithm: rnp or vivaldi")
		micro       = fs.Int("m", 10, "micro-clusters per replica for the online strategy")
		maxK        = fs.Int("maxk", 7, "largest degree of replication in Figure 2/3")
		seedTable   = fs.Int64("seed", 1, "seed for Table II workload generation")
		csv         = fs.Bool("csv", false, "emit figures as CSV instead of aligned text")
		faultPlan   = fs.String("fault-plan", "", "override the failures scenario with a fault-plan DSL string (see internal/faults)")
		faultSeed   = fs.Int64("fault-seed", 1, "seed for the failures scenario")
		traceOut    = fs.String("trace-out", "", "write the failures or writepath run's per-epoch span trees as JSONL to this file (writepath exports the faulted pass, SLO pins included)")
		traceChrome = fs.String("trace-chrome", "", "write the failures or writepath run's span trees in Chrome trace_event format to this file (load via chrome://tracing or Perfetto)")
		ledgerOut   = fs.String("ledger-out", "", "write the drift, failures, scale or multiobject run's epoch decisions as a durable ledger to this directory (audit with georepctl audit)")
		clients     = fs.Int("clients", 0, "scale figure: synthetic client population (0 = default 100k)")
		rate        = fs.Int("rate", 0, "scale figure: accesses generated per epoch (0 = default 50k)")
		shards      = fs.Int("ingest-shards", 0, "scale figure: per-replica ingest shards, power of two (0 = default 8)")
		objects     = fs.Int("objects", 0, "multiobject figure: fleet size (0 = default 200)")
		writeRatio  = fs.Float64("write-ratio", 0, "writepath figure: write share of the mixed workload (0 = default 0.2)")
		leaderPol   = fs.String("leader-policy", "", "writepath figure: leader placement policy, centroid or fanout (default centroid)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *fig == "" && *table == "" {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -fig or -table")
	}

	setup := experiment.DefaultSetup()
	setup.Nodes = *nodes
	var err error
	setup.CoordAlgorithm, err = coord.ParseAlgorithm(*algo)
	if err != nil {
		return err
	}

	needWorlds := *all || (*fig != "" && *fig != "drift" && *fig != "threshold" && *fig != "failures" && *fig != "writepath" && *fig != "scale" && *fig != "multiobject")
	var worlds []*experiment.World
	if needWorlds {
		start := time.Now()
		fmt.Fprintf(w, "building %d worlds (%d nodes, %s coordinates)...\n", *runs, *nodes, *algo)
		worlds, err = experiment.BuildWorlds(*runs, setup)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "done in %s\n\n", time.Since(start).Round(time.Millisecond))
	}

	ks := make([]int, 0, *maxK)
	for k := 1; k <= *maxK; k++ {
		ks = append(ks, k)
	}

	if *all || *fig == "1" {
		fig, err := experiment.Figure1(worlds, []int{5, 10, 15, 20, 25, 30}, 3,
			experiment.PaperStrategies(*micro))
		if err != nil {
			return err
		}
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "2" {
		fig, err := experiment.Figure2(worlds, 20, ks, experiment.PaperStrategies(*micro))
		if err != nil {
			return err
		}
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "3" {
		fig, err := experiment.Figure3(worlds, 20, ks, []int{1, 2, 4, 7, 11})
		if err != nil {
			return err
		}
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "rnp" {
		rows, err := experiment.CoordAccuracy(worlds, setup)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderAccuracy(rows))
	}
	if *all || *fig == "drift" {
		cfg := experiment.DefaultDriftConfig()
		cfg.Setup.CoordAlgorithm = setup.CoordAlgorithm
		led, closeLedger, err := openLedger(w, *ledgerOut, *fig == "drift")
		if err != nil {
			return err
		}
		cfg.Ledger = led
		res, err := experiment.Drift(1, cfg)
		if cerr := closeLedger(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderDrift(res))
	}
	if *all || *fig == "quorum" {
		// The exhaustive quorum search is the expensive part; cap the
		// candidate count to keep C(n,k) reasonable.
		fig, err := experiment.QuorumAblation(worlds, 20, 3, *micro)
		if err != nil {
			return err
		}
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "threshold" {
		cfg := experiment.DefaultDriftConfig()
		cfg.Setup.CoordAlgorithm = setup.CoordAlgorithm
		rows, err := experiment.ThresholdSweep(1, cfg, []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderThresholdSweep(rows))
	}
	if *all || *fig == "readwrite" {
		fig, err := experiment.ReadWriteAblation(worlds, 20, *micro,
			[]int{1, 2, 3, 5, 7}, []float64{0.5, 0.7, 0.9, 0.95, 0.99, 1.0})
		if err != nil {
			return err
		}
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "capacity" {
		fig, err := experiment.CapacityAblation(worlds, 20, 3, *micro, 6)
		if err != nil {
			return err
		}
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "strategies" {
		fig, err := experiment.Figure2(worlds, 20, ks, experiment.AllStrategies(*micro))
		if err != nil {
			return err
		}
		fig.Title = "All strategies: delay vs degree of replication (20 data centers)"
		printFigure(w, fig, *csv)
	}
	if *all || *fig == "tail" {
		rows, err := experiment.TailAblation(worlds, 20, 3, *micro)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderTail(rows))
	}
	if *all || *fig == "routing" {
		rows, err := experiment.RoutingAccuracy(worlds, 20, *micro, []int{2, 3, 5, 7})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderRouting(rows))
	}
	if *all || *fig == "failures" {
		cfg := experiment.DefaultFailureConfig()
		cfg.Setup.CoordAlgorithm = setup.CoordAlgorithm
		cfg.Plan = *faultPlan
		var rec *trace.FlightRecorder
		if *traceOut != "" || *traceChrome != "" {
			rec = trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
			cfg.Trace = rec
		}
		led, closeLedger, err := openLedger(w, *ledgerOut, *fig == "failures")
		if err != nil {
			return err
		}
		cfg.Ledger = led
		res, err := experiment.Failure(*faultSeed, cfg)
		if cerr := closeLedger(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderFailure(res))
		if rec != nil {
			if err := exportTraces(w, rec.Traces(), *traceOut, *traceChrome); err != nil {
				return err
			}
		}
	}
	if *all || *fig == "writepath" {
		cfg := experiment.DefaultWritePathConfig()
		cfg.Setup.CoordAlgorithm = setup.CoordAlgorithm
		cfg.Plan = *faultPlan
		if *writeRatio > 0 {
			cfg.WriteFraction = *writeRatio
		}
		if *leaderPol != "" {
			cfg.LeaderPolicy, err = replog.ParseLeaderPolicy(*leaderPol)
			if err != nil {
				return err
			}
		}
		res, err := experiment.WritePath(*faultSeed, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderWritePath(res))
		if *traceOut != "" || *traceChrome != "" {
			if err := exportTraces(w, res.Traces, *traceOut, *traceChrome); err != nil {
				return err
			}
		}
	}
	if *all || *fig == "scale" {
		cfg := experiment.DefaultScaleConfig()
		cfg.Setup.CoordAlgorithm = setup.CoordAlgorithm
		if *clients > 0 {
			cfg.Clients = *clients
		}
		if *rate > 0 {
			cfg.Rate = *rate
		}
		if *shards > 0 {
			cfg.IngestShards = *shards
		}
		led, closeLedger, err := openLedger(w, *ledgerOut, *fig == "scale")
		if err != nil {
			return err
		}
		cfg.Ledger = led
		res, err := experiment.Scale(1, cfg)
		if cerr := closeLedger(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderScale(res))
	}
	if *all || *fig == "multiobject" {
		cfg := experiment.DefaultMultiObjectConfig()
		cfg.Setup.CoordAlgorithm = setup.CoordAlgorithm
		if *objects > 0 {
			cfg.Objects = *objects
		}
		led, closeLedger, err := openLedger(w, *ledgerOut, *fig == "multiobject")
		if err != nil {
			return err
		}
		cfg.Ledger = led
		res, err := experiment.MultiObject(1, cfg)
		if cerr := closeLedger(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderMultiObject(res))
	}
	if *all || *table == "2" {
		rows, err := experiment.Table2(rand.New(rand.NewSource(*seedTable)), experiment.DefaultCostConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiment.RenderCostTable(rows))
	}
	return nil
}

// openLedger opens the -ledger-out directory for the figure that owns
// it. enabled keeps -all runs from interleaving two experiments' epochs
// in one ledger: only an explicitly requested drift, failures, scale or
// multiobject figure writes. The returned close function is a no-op
// when disabled.
func openLedger(w io.Writer, dir string, enabled bool) (*ledger.Ledger, func() error, error) {
	if dir == "" || !enabled {
		return nil, func() error { return nil }, nil
	}
	l, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "recording epoch ledger to %s\n", dir)
	return l, l.Close, nil
}

// exportTraces writes the collected span trees to the requested files:
// JSONL (one span per line, replayable via trace.ReadJSONL and
// georepctl trace -in) and Chrome trace_event JSON.
func exportTraces(w io.Writer, traces []trace.Trace, jsonlPath, chromePath string) error {
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		if err := trace.WriteJSONL(f, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d span trees to %s\n", len(traces), jsonlPath)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace of %d trees to %s\n", len(traces), chromePath)
	}
	return nil
}

// printFigure emits a figure as aligned text or CSV.
func printFigure(w io.Writer, fig *experiment.Figure, asCSV bool) {
	if asCSV {
		fmt.Fprintf(w, "# %s\n%s\n", fig.Title, fig.CSV())
		return
	}
	fmt.Fprintln(w, fig.Render())
}
