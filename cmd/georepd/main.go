// Command georepd runs one storage node of the replica-placement system:
// a TCP daemon serving object reads/writes, summarizing client accesses
// into micro-clusters, and exposing the coordination protocol (summary
// export, decay, migration puts/deletes).
//
// A coordinator (see examples/kvcluster for a complete in-process one)
// periodically collects each daemon's summary, runs weighted k-means,
// and moves replicas with plain put/delete calls.
//
// Usage:
//
//	georepd -addr 127.0.0.1:7001 -node 0 -m 10 -dims 3
//	georepd -addr 127.0.0.1:7002 -node 1 -matrix matrix.txt   # emulate WAN RTTs
//	georepd -addr 127.0.0.1:7001 -metrics-addr 127.0.0.1:9090 # observability over HTTP
//	georepd -addr 127.0.0.1:7001 -fault-plan "crash 0@2-4"    # chaos-test this node
//	georepd -addr 127.0.0.1:7001 -write-ratio 0.2             # leader write log + replicate RPC
//	georepd -addr 127.0.0.1:7001 -log info,transport=debug    # per-component log levels
//	georepd -addr 127.0.0.1:7001 -slo "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001"
//
// With -metrics-addr the daemon serves an observability surface over
// HTTP. /metrics.json, /slo, /trace and /explain serve the bytes of the
// RPC of the same name:
//
//	/metrics          Prometheus text exposition with georep_-prefixed
//	                  series (scrape this)
//	/metrics.json     the registry snapshot as JSON
//	/metrics/history  the in-process time-series ring as JSON
//	                  (?lookback=10m; requires -slo)
//	/slo              live SLO status: states, burn rates, budgets
//	                  (requires -slo)
//	/trace            retained span trees as JSONL (?format=chrome for
//	                  Chrome trace_event / Perfetto)
//	/audit            continuous placement-regret audit report as JSON
//	                  (requires -ledger-dir)
//	/explain          decision provenance report as JSON: reason, cost
//	                  decomposition, scored counterfactuals, regret
//	                  (?epoch=N, default latest; requires -ledger-dir)
//	/healthz          health probe: 200 while healthy, 503 with a JSON
//	                  body naming the paging objective when any SLO
//	                  pages (requires -slo to ever degrade)
//	/debug/pprof/     Go profiling endpoints (only with -pprof)
//
// The metrics cover RPC counts and errors per method, transport bytes
// in/out, handler latency histograms with p50/p95/p99, and summary-
// export sizes. Tracing (-trace, on by default) retains recent span
// trees plus complete trees for anomalous requests in a bounded flight
// recorder; fetch them here, via the trace RPC (georepctl trace), or
// both.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/georep/georep/internal/audit"
	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/explain"
	"github.com/georep/georep/internal/faults"
	"github.com/georep/georep/internal/latency"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/logging"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/trace"
)

// maxPageProfiles bounds how many page transitions trigger one-shot
// profile captures, so a flapping objective cannot fill the ledger dir.
const maxPageProfiles = 4

// pageProfiler returns an SLO transition hook that, on each page
// transition (up to limit), writes a one-shot heap profile and a 2s CPU
// profile into dir next to the epoch ledger. Captures run off the
// evaluation goroutine and never overlap: the Go runtime allows only
// one CPU profile at a time.
func pageProfiler(dir string, limit int32) func(slo.Transition) {
	var taken int32
	var busy int32
	return func(t slo.Transition) {
		if t.To != slo.StatePage {
			return
		}
		n := atomic.AddInt32(&taken, 1)
		if n > limit || !atomic.CompareAndSwapInt32(&busy, 0, 1) {
			return
		}
		go func() {
			defer atomic.StoreInt32(&busy, 0)
			base := filepath.Join(dir, fmt.Sprintf("slo_page_%d_%s", n,
				strings.Map(safeFileRune, t.Objective)))
			if f, err := os.Create(base + ".heap.pprof"); err == nil {
				_ = rpprof.Lookup("heap").WriteTo(f, 0)
				f.Close()
			}
			f, err := os.Create(base + ".cpu.pprof")
			if err != nil {
				return
			}
			defer f.Close()
			if err := rpprof.StartCPUProfile(f); err != nil {
				return
			}
			time.Sleep(2 * time.Second)
			rpprof.StopCPUProfile()
		}()
	}
}

// safeFileRune maps objective names onto a filename-safe alphabet.
func safeFileRune(r rune) rune {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		return r
	}
	return '_'
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "georepd:", err)
		os.Exit(1)
	}
}

// addrs reports where a started daemon listens: the RPC address and,
// when -metrics-addr is given, the HTTP metrics address.
type addrs struct {
	RPC     string
	Metrics string
}

// run starts the daemon and blocks until a signal arrives on stop. If
// ready is non-nil, the bound addresses are sent on it once listening.
func run(args []string, stop <-chan os.Signal, ready chan<- addrs) error {
	fs := flag.NewFlagSet("georepd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		nodeID      = fs.Int("node", 0, "this node's index in the deployment")
		micro       = fs.Int("m", 10, "micro-cluster budget")
		shards      = fs.Int("ingest-shards", 0, "partition the summary into this many client-hash shards (power of two) so concurrent reads don't serialize; 0 or 1 = unsharded")
		objects     = fs.Bool("objects", false, "maintain a per-object micro-cluster summary alongside the node-wide one, served by the micros RPC with an {Object} body (multi-object coordinators)")
		dims        = fs.Int("dims", 3, "client coordinate dimensionality")
		matrixPath  = fs.String("matrix", "", "RTT matrix file; reads are delayed by RTT(client,node) to emulate a WAN")
		scale       = fs.Float64("timescale", 1.0, "emulated delay multiplier (0.1 = 10x faster demos)")
		coordFlag   = fs.String("coord", "", "this node's network coordinate as comma-separated floats, e.g. \"12.5,-3.1,40.2\"")
		height      = fs.Float64("height", 0, "height component of this node's coordinate")
		metricsAddr = fs.String("metrics-addr", "", "HTTP address serving /metrics, /metrics.json, /metrics/history, /slo, /trace, /audit, /explain and /healthz (see the package doc); empty disables")
		writeRatio  = fs.Float64("write-ratio", 0, "expected write share of traffic in [0,1]; > 0 enables the replication write log: puts append CRC-framed entries, replog_* metrics join /metrics, and the replicate RPC serves catch-up batches")
		writeRetain = fs.Int("write-log-retain", 0, "uncompacted write-log tail bound; followers further behind get a snapshot redirect (0 = default)")
		faultPlan   = fs.String("fault-plan", "", "inject faults from a plan DSL, e.g. \"crash 2@5-8; drop *>0:0.2@1-10\" (see internal/faults); the decay RPC advances the epoch")
		faultSeed   = fs.Int64("fault-seed", 1, "seed for -fault-plan coin flips")
		logSpec     = fs.String("log", "info", "log levels: default[,component=level ...] with components daemon and transport, e.g. \"warn,transport=debug\"")
		traceOn     = fs.Bool("trace", true, "retain recent and anomalous span trees in a flight recorder, served at /trace and the trace RPC")
		pprofOn     = fs.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on -metrics-addr")
		sloSpec     = fs.String("slo", "", "SLO spec DSL, e.g. \"avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001; read_p99 p99(daemon_rpc_get_ms) <= 50\" (see internal/slo); enables the metrics history ring, burn-rate alerting, slo_* gauges, the slo RPC, and /slo + /metrics/history on -metrics-addr")
		sloEvery    = fs.Duration("slo-interval", 10*time.Second, "history sampling and SLO evaluation cadence")
		histSamples = fs.Int("history-samples", 360, "metrics history ring capacity (360 at the default cadence = one hour)")
		ledgerDir   = fs.String("ledger-dir", "", "continuously audit the epoch ledger in this directory: regret/drift/quality gauges join /metrics and the report is served at /audit")
		auditEvery  = fs.Duration("audit-interval", 30*time.Second, "how often the -ledger-dir auditor re-reads the ledger")
		auditSeed   = fs.Int64("audit-seed", 1, "seed for the auditor's offline k-means baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logCfg, err := logging.Parse(*logSpec)
	if err != nil {
		return err
	}

	var inj *faults.Injector
	if *faultPlan != "" {
		plan, err := faults.Parse(*faultSeed, *faultPlan)
		if err != nil {
			return err
		}
		if inj, err = faults.NewInjector(plan); err != nil {
			return err
		}
	}

	var delay daemon.DelayFunc
	if *matrixPath != "" {
		f, err := os.Open(*matrixPath)
		if err != nil {
			return err
		}
		m, err := latency.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		if *nodeID < 0 || *nodeID >= m.N() {
			return fmt.Errorf("node %d outside matrix of %d nodes", *nodeID, m.N())
		}
		delay = func(client int) time.Duration {
			if client < 0 || client >= m.N() {
				return 0
			}
			return time.Duration(m.RTT(client, *nodeID) * *scale * float64(time.Millisecond))
		}
	}

	var selfCoord []float64
	if *coordFlag != "" {
		for _, f := range strings.Split(*coordFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("bad -coord component %q: %w", f, err)
			}
			selfCoord = append(selfCoord, v)
		}
		if len(selfCoord) != *dims {
			return fmt.Errorf("-coord has %d components, -dims is %d", len(selfCoord), *dims)
		}
	}

	var rec *trace.FlightRecorder
	if *traceOn {
		rec = trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
	}
	var onTransition func(slo.Transition)
	if *sloSpec != "" && *pprofOn && *ledgerDir != "" {
		onTransition = pageProfiler(*ledgerDir, maxPageProfiles)
	}
	// Decision-provenance explanations: nodes with a ledger directory
	// answer the explain RPC and serve /explain by re-reading the ledger
	// per request (explanations are an operator surface, not a hot path).
	var explainJSON func(epoch int, objectID string) ([]byte, error)
	if *ledgerDir != "" {
		dir := *ledgerDir
		explainJSON = func(epoch int, objectID string) ([]byte, error) {
			recs, err := ledger.ReadDir(dir)
			if err != nil {
				return nil, err
			}
			rep, err := explain.Build(recs, explain.Options{Epoch: epoch, ObjectID: objectID})
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		}
	}
	n, err := daemon.NewNode(daemon.Config{
		ID:                       *nodeID,
		MicroClusters:            *micro,
		IngestShards:             *shards,
		PerObjectSummaries:       *objects,
		Dims:                     *dims,
		Delay:                    delay,
		Coordinate:               selfCoord,
		Height:                   *height,
		WriteRatio:               *writeRatio,
		WriteLogRetain:           *writeRetain,
		Faults:                   inj,
		AdvanceFaultEpochOnDecay: inj != nil,
		Trace:                    rec,
		SLOSpec:                  *sloSpec,
		SLOInterval:              *sloEvery,
		HistorySamples:           *histSamples,
		OnSLOTransition:          onTransition,
		ExplainJSON:              explainJSON,
		Logger:                   logCfg.Logger(os.Stderr, "daemon"),
		TransportLogger:          logCfg.Logger(os.Stderr, "transport"),
	})
	if err != nil {
		return err
	}
	if err := n.Start(*addr); err != nil {
		return err
	}
	fmt.Printf("georepd node %d listening on %s\n", *nodeID, n.Addr())
	if *writeRatio > 0 {
		fmt.Printf("write log enabled (expected write ratio %.2f): puts append framed entries, replicate serves catch-up\n", *writeRatio)
	}
	if inj != nil {
		fmt.Printf("fault injection active (seed %d): %s\n", *faultSeed, *faultPlan)
	}
	if *sloSpec != "" {
		fmt.Printf("slo engine active (every %s): %s\n", *sloEvery, n.SLO().Spec())
		if onTransition != nil {
			fmt.Printf("page transitions capture cpu+heap profiles to %s (at most %d)\n", *ledgerDir, maxPageProfiles)
		}
	}

	var aw *audit.Watcher
	if *ledgerDir != "" {
		aw = audit.NewWatcher(*ledgerDir, *auditEvery, audit.Config{Seed: *auditSeed}, n.Metrics())
		fmt.Printf("auditing ledger %s every %s\n", *ledgerDir, *auditEvery)
	}

	var metricsURL string
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			if aw != nil {
				aw.Close()
			}
			n.Close()
			return fmt.Errorf("metrics listen %s: %w", *metricsAddr, err)
		}
		metricsURL = ln.Addr().String()
		metricsSrv = &http.Server{Handler: newObsMux(n, rec, aw, *pprofOn, explainJSON != nil)}
		go func() { _ = metricsSrv.Serve(ln) }()
		fmt.Printf("metrics on http://%s/metrics\n", metricsURL)
	}
	if ready != nil {
		ready <- addrs{RPC: n.Addr(), Metrics: metricsURL}
	}

	<-stop
	fmt.Println("shutting down")
	if metricsSrv != nil {
		_ = metricsSrv.Close()
	}
	if aw != nil {
		aw.Close()
	}
	return n.Close()
}

// newObsMux builds the daemon's HTTP observability surface. /metrics.json,
// /slo, /trace and /explain serve the bytes the RPC of the same name
// replies with (daemon.Node's view methods); a view the node runs without
// is a 404.
func newObsMux(n *daemon.Node, rec *trace.FlightRecorder, aw *audit.Watcher, pprofOn, explainOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		err := metrics.WritePrometheusPrefixed(&buf, n.Snapshot(), "georep_")
		writeView(w, "text/plain; version=0.0.4; charset=utf-8", buf.Bytes(), err)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		body, err := n.MetricsJSON()
		writeView(w, "application/json", body, err)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "tracing disabled (-trace=false)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			var buf bytes.Buffer
			err := trace.WriteChromeTrace(&buf, rec.Traces())
			writeView(w, "application/json", buf.Bytes(), err)
			return
		}
		body, err := n.TraceJSONL()
		writeView(w, "application/x-ndjson", body, err)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		if n.SLO() == nil {
			http.Error(w, "slo engine disabled (start with -slo)", http.StatusNotFound)
			return
		}
		body, err := n.SLOJSON()
		writeView(w, "application/json", body, err)
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		h := n.History()
		if h == nil {
			http.Error(w, "metrics history disabled (start with -slo)", http.StatusNotFound)
			return
		}
		var since int64 // zero = everything retained
		if lb := r.URL.Query().Get("lookback"); lb != "" {
			d, err := time.ParseDuration(lb)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad lookback %q: %v", lb, err), http.StatusBadRequest)
				return
			}
			since = metrics.SinceNs(time.Now().UnixNano(), d)
		}
		body, err := json.Marshal(h.Dump(since))
		writeView(w, "application/json", body, err)
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, _ *http.Request) {
		if aw == nil {
			http.Error(w, "ledger auditing disabled (start with -ledger-dir)", http.StatusNotFound)
			return
		}
		body, err := json.MarshalIndent(aw.Report(), "", "  ")
		writeView(w, "application/json", body, err)
	})
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		if !explainOn {
			http.Error(w, "decision provenance disabled (start with -ledger-dir)", http.StatusNotFound)
			return
		}
		epoch := -1
		if e := r.URL.Query().Get("epoch"); e != "" {
			v, err := strconv.Atoi(e)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad epoch %q: %v", e, err), http.StatusBadRequest)
				return
			}
			epoch = v
		}
		body, err := n.ExplainJSON(epoch, r.URL.Query().Get("object"))
		writeView(w, "application/json", body, err)
	})
	// Readiness: 200 while no SLO objective pages; 503 with a JSON body
	// naming the paging objective otherwise, so orchestrators and load
	// balancers see the degradation the operator is being paged for.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if eng := n.SLO(); eng != nil {
			for _, o := range eng.Status().Objectives {
				if o.State != slo.StatePage {
					continue
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]any{
					"status":    "degraded",
					"objective": o.Name,
					"state":     o.State.String(),
					"burn_fast": o.BurnFastShort,
				})
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeView writes a rendered body under its content type, or a 500
// when rendering failed: the body is complete before the status is
// sent, so a failure is never a truncated 200.
func writeView(w http.ResponseWriter, contentType string, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(body)
}
