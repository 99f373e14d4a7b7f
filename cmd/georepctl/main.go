// Command georepctl is the coordinator CLI for a fleet of georepd
// storage nodes: inspect the fleet, read and write objects, and run one
// cycle of the paper's Algorithm 1 — collect micro-cluster summaries,
// weighted-k-means them, and migrate an object toward its users.
//
// Usage:
//
//	georepctl -nodes host1:port,host2:port status
//	georepctl -nodes ... put   -obj key -data "payload" [-version 2]
//	georepctl -nodes ... get   -obj key
//	georepctl -nodes ... read  -obj key -client 7 -client-coord "10,-3,42"
//	georepctl -nodes ... rebalance -obj key -k 2 [-min-gain 0.05] [-apply] [-trace-out t.jsonl]
//	georepctl -nodes ... decay -factor 0.5
//	georepctl -nodes ... metrics [-metric daemon_rpc] [-watch 2s]
//	georepctl -nodes ... slo [-watch 2s]
//	georepctl -nodes ... trace [-anomalous] [-trace-id id] [-o tree|chrome|jsonl]
//	georepctl -nodes ... spans [-kind collect] [-top 10]
//	georepctl trace -in run.jsonl                # render an exported trace file
//	georepctl ledger -dir ./epochs [-limit 20] [-verify] [-o table|jsonl]
//	georepctl audit  -dir ./epochs [-what-if 3] [-audit-seed 1] [-why] [-o table|json]
//	georepctl explain -dir ./epochs [-epoch 5] [-obj key] [-watch 2s] [-o table|json]
//	georepctl -nodes ... explain [-epoch 5] [-obj key]   # same report over the explain RPC
//
// read acts as a client at the given coordinate: it fetches the object
// from the predicted-closest holder, which records the access in that
// node's micro-cluster summary — the signal rebalance feeds on.
//
// Rebalance prints the proposed placement and its estimated improvement;
// with -apply it executes the migration via put/delete RPCs and ages the
// summaries. Nodes must have been started with -coord so the coordinator
// knows where they sit in latency space. Every rebalance cycle is traced
// as one span tree — collect per holder, k-means, decision, migration —
// and unreachable holders degrade the cycle (named on an errored collect
// span, the trace pinned anomalous) instead of failing it; -trace-out
// merges the coordinator's spans with the daemons' server-side legs into
// a JSONL file that `georepctl trace -in` or about://tracing renders.
//
// slo renders each node's live SLO dashboard — per objective: state,
// error-budget remaining, fast/slow burn rates, and a sparkline of the
// recent bad-event fraction — and with -watch re-renders it top-style
// using the same restart-resilient loop as metrics -watch. Nodes must
// run with -slo. The plain metrics table also appends an SLO section
// whenever a node serves one, so a metrics -watch shows budget and burn
// columns alongside the raw series.
//
// trace fetches the span trees retained by the daemons' flight
// recorders (or reads an exported JSONL file with -in) and renders them
// as indented trees, Chrome trace_event JSON, or raw JSONL. spans ranks
// the slowest spans by duration, optionally filtered by kind.
//
// ledger and audit are local commands — they read an epoch-decision
// ledger directory (written by a manager configured with a ledger, or
// replicasim -ledger-out) and need no -nodes. ledger inspects, verifies
// (full CRC walk, failing on unrecoverable bytes) or exports the raw
// decision records; audit replays every epoch through the offline
// k-means and exhaustive-optimal baselines and reports placement regret,
// demand drift, and micro-cluster quality — the paper's online-vs-
// offline comparison recomputed from decision provenance. With -why the
// audit joins each epoch's recorded outcome reason and live regret
// (ledger codec v3) against those hindsight baselines, and the summary
// counts held migrations and capacity displacements.
//
// explain renders one epoch's decision provenance — outcome reason with
// its gating inputs, cost decomposition with per-DC shares, the scored
// counterfactual placements ranked cheapest-first, and the regret line.
// With -dir it reads a local ledger like audit; with -nodes it asks a
// ledger-configured daemon over the explain RPC. -epoch selects an
// epoch (-1 = latest), -obj filters to one object, -watch follows the
// live ledger top-style.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/georep/georep/internal/audit"
	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
	"github.com/georep/georep/internal/vec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "georepctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("georepctl", flag.ContinueOnError)
	var (
		nodesFlag   = fs.String("nodes", "", "comma-separated daemon addresses")
		obj         = fs.String("obj", "", "object id")
		data        = fs.String("data", "", "object payload for put")
		version     = fs.Uint64("version", 1, "object version for put")
		k           = fs.Int("k", 2, "replication degree for rebalance")
		clientID    = fs.Int("client", -1, "client node id for read")
		clientPos   = fs.String("client-coord", "", "client coordinate for read, comma-separated floats")
		decayFactor = fs.Float64("factor", 0.5, "summary aging factor for decay")
		minGain     = fs.Float64("min-gain", 0.05, "minimum relative estimated gain to apply a rebalance")
		apply       = fs.Bool("apply", false, "execute the rebalance instead of printing the plan")
		timeout     = fs.Duration("timeout", 3*time.Second, "dial timeout per node")
		callTimeout = fs.Duration("call-timeout", 0, "per-RPC deadline (0 = transport default)")
		retries     = fs.Int("retries", 0, "max attempts per idempotent RPC with exponential backoff (0 = no retries)")
		metricFilt  = fs.String("metric", "", "substring filter for metrics names (metrics command)")
		traceIn     = fs.String("in", "", "trace/spans: read span trees from a JSONL file instead of the fleet")
		traceFmt    = fs.String("o", "tree", "output format: trace tree|chrome|jsonl, ledger table|jsonl, audit table|json")
		traceID     = fs.String("trace-id", "", "trace: show only this trace id")
		anomOnly    = fs.Bool("anomalous", false, "trace: show only anomalous traces")
		topN        = fs.Int("top", 10, "spans: how many of the slowest spans to list")
		kindFilt    = fs.String("kind", "", "spans: keep only spans of this kind (epoch, collect, kmeans, decide, migrate, client, attempt, server, failover)")
		traceOut    = fs.String("trace-out", "", "rebalance: export the cycle's span tree, merged with the daemons' server-side legs, as JSONL to this file")
		watchEvery  = fs.Duration("watch", 0, "metrics: clear the screen and re-render every interval until interrupted (0 = print once)")
		ledgerDir   = fs.String("dir", "", "ledger/audit: local ledger directory (as written by a ledger-configured manager or replicasim -ledger-out)")
		verifyFlag  = fs.Bool("verify", false, "ledger: CRC-check every segment and fail if any bytes are unrecoverable")
		limit       = fs.Int("limit", 0, "ledger: show only the last N records (0 = all)")
		whatIfK     = fs.Int("what-if", 0, "audit: replay the offline baselines at this replication degree instead of each epoch's logged k")
		auditSeed   = fs.Int64("audit-seed", 1, "audit: seed for the offline k-means baseline")
		maxLeaves   = fs.Int("max-leaves", 0, "audit: skip the exhaustive optimal baseline when the search would exceed this many leaves (0 = default, negative = never skip)")
		epochFlag   = fs.Int("epoch", -1, "explain: epoch to explain (-1 = latest recorded)")
		whyFlag     = fs.Bool("why", false, "audit: join recorded decision reasons and live regret (codec v3 provenance) with the offline baselines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first positional argument, so accept flags both
	// before and after the command: extract the command, then parse the
	// rest as flags too.
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("need a command: status, get, put, read, rebalance, decay, metrics, slo, explain, trace, spans, ledger, audit")
	}
	cmd := rest[0]
	if err := fs.Parse(rest[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	// trace and spans can work entirely from an exported file.
	fromFile := *traceIn != "" && (cmd == "trace" || cmd == "spans")
	if fromFile {
		traces, err := readTraceFile(*traceIn)
		if err != nil {
			return err
		}
		if cmd == "trace" {
			return writeTraces(os.Stdout, traces, *traceFmt, *traceID, *anomOnly)
		}
		return topSpans(os.Stdout, traces, *kindFilt, *topN)
	}
	// ledger and audit work entirely from a local ledger directory.
	switch cmd {
	case "ledger":
		return ledgerCmd(os.Stdout, *ledgerDir, *verifyFlag, *limit, *traceFmt)
	case "audit":
		return auditCmd(os.Stdout, *ledgerDir, audit.Config{
			Seed:             *auditSeed,
			WhatIfK:          *whatIfK,
			MaxOptimalLeaves: *maxLeaves,
		}, *traceFmt, *whyFlag)
	case "explain":
		// Local when a ledger directory is given; otherwise the fleet's
		// explain RPC below.
		if *ledgerDir != "" {
			return explainLocal(os.Stdout, *ledgerDir, *epochFlag, *obj, *traceFmt, *watchEvery, 0)
		}
	}
	if *nodesFlag == "" {
		return fmt.Errorf("-nodes is required")
	}

	// The coordinator records its own side of every traced cycle; the
	// clients are dialed with the tracer so RPC legs land in the same
	// trees. Untraced commands record nothing.
	rec := trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
	tracer := trace.New(rec, "ctl")

	opts := []transport.ClientOption{transport.WithClientTracer(tracer)}
	if *callTimeout > 0 {
		opts = append(opts, transport.WithCallTimeout(*callTimeout))
	}
	if *retries > 1 {
		p := transport.DefaultRetryPolicy()
		p.MaxAttempts = *retries
		opts = append(opts, transport.WithRetryPolicy(p))
	}

	fleet, err := dialFleet(strings.Split(*nodesFlag, ","), *timeout, opts...)
	if err != nil {
		return err
	}
	defer fleet.close()
	fleet.tracer, fleet.rec = tracer, rec

	switch cmd {
	case "status":
		return fleet.status()
	case "get":
		if *obj == "" {
			return fmt.Errorf("get needs -obj")
		}
		return fleet.get(*obj)
	case "put":
		if *obj == "" {
			return fmt.Errorf("put needs -obj")
		}
		return fleet.put(*obj, []byte(*data), *version)
	case "read":
		if *obj == "" {
			return fmt.Errorf("read needs -obj")
		}
		pos, err := parseFloats(*clientPos)
		if err != nil {
			return err
		}
		return fleet.read(*obj, *clientID, pos)
	case "rebalance":
		if *obj == "" {
			return fmt.Errorf("rebalance needs -obj")
		}
		return fleet.rebalance(*obj, *k, *minGain, *apply, *traceOut)
	case "decay":
		if *decayFactor <= 0 || *decayFactor > 1 {
			return fmt.Errorf("decay needs -factor in (0,1]")
		}
		return fleet.decay(*decayFactor)
	case "metrics":
		if *watchEvery > 0 {
			return fleet.metricsWatch(os.Stdout, *metricFilt, *watchEvery, 0)
		}
		return fleet.metrics(os.Stdout, *metricFilt)
	case "slo":
		if *watchEvery > 0 {
			return fleet.watch(os.Stdout, "slo", *watchEvery, 0, fleet.slo)
		}
		return fleet.slo(os.Stdout)
	case "explain":
		render := func(fw io.Writer) error {
			return fleet.explain(fw, *epochFlag, *obj, *traceFmt)
		}
		if *watchEvery > 0 {
			return fleet.watch(os.Stdout, "explain", *watchEvery, 0, render)
		}
		return render(os.Stdout)
	case "trace":
		traces, err := fleet.gatherTraces()
		if err != nil {
			return err
		}
		return writeTraces(os.Stdout, traces, *traceFmt, *traceID, *anomOnly)
	case "spans":
		traces, err := fleet.gatherTraces()
		if err != nil {
			return err
		}
		return topSpans(os.Stdout, traces, *kindFilt, *topN)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// member is one daemon the coordinator talks to.
type member struct {
	addr   string
	client *daemon.Client
	node   int
	coord  coord.Coordinate
}

type fleet struct {
	members []*member
	byNode  map[int]*member
	// down records addresses that could not be dialed or identified, so
	// a traced rebalance can name them instead of silently shrinking the
	// fleet.
	down   map[string]error
	tracer *trace.Tracer
	rec    *trace.FlightRecorder
}

// dialFleet connects to every reachable daemon. Nodes that cannot be
// dialed or that stall the identifying coord call are skipped with a
// warning rather than failing the fleet — a coordinator that dies
// because one node is down would be useless exactly when it matters.
func dialFleet(addrs []string, timeout time.Duration, opts ...transport.ClientOption) (*fleet, error) {
	f := &fleet{byNode: make(map[int]*member), down: make(map[string]error)}
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		c, err := daemon.DialNode(addr, timeout, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "georepctl: skipping unreachable node %s: %v\n", addr, err)
			f.down[addr] = err
			continue
		}
		cr, err := c.Coord()
		if err != nil {
			fmt.Fprintf(os.Stderr, "georepctl: skipping unreachable node %s: %v\n", addr, err)
			f.down[addr] = err
			c.Close()
			continue
		}
		m := &member{
			addr:   addr,
			client: c,
			node:   cr.Node,
			coord:  coord.Coordinate{Pos: vec.Vec(cr.Pos), Height: cr.Height},
		}
		if dup, ok := f.byNode[m.node]; ok {
			f.close()
			return nil, fmt.Errorf("nodes %s and %s both report id %d", dup.addr, addr, m.node)
		}
		f.members = append(f.members, m)
		f.byNode[m.node] = m
	}
	if len(f.members) == 0 {
		return nil, fmt.Errorf("no reachable nodes")
	}
	return f, nil
}

func (f *fleet) close() {
	for _, m := range f.members {
		m.client.Close()
	}
}

func (f *fleet) status() error {
	fmt.Printf("%-6s%-24s%10s%12s%12s%10s  %s\n",
		"node", "addr", "objects", "bytes", "accesses", "ping", "coordinate")
	for _, m := range f.members {
		st, err := m.client.Stats()
		if err != nil {
			return err
		}
		rtt, err := m.client.Ping()
		if err != nil {
			return err
		}
		coordStr := "unknown"
		if len(m.coord.Pos) > 0 {
			coordStr = fmt.Sprintf("%.1f (h=%.1f)", []float64(m.coord.Pos), m.coord.Height)
		}
		fmt.Printf("%-6d%-24s%10d%12d%12d%10s  %s\n",
			m.node, m.addr, st.Objects, st.Bytes, st.Accesses,
			rtt.Round(time.Microsecond), coordStr)
	}
	return nil
}

func (f *fleet) get(obj string) error {
	for _, m := range f.members {
		resp, rtt, err := m.client.Get(-1, nil, obj)
		if err != nil {
			continue // not on this node
		}
		fmt.Printf("node %d (%s) v%d %dB in %s\n%s\n",
			m.node, m.addr, resp.Version, len(resp.Data), rtt.Round(time.Microsecond), resp.Data)
		return nil
	}
	return fmt.Errorf("object %q not found on any node", obj)
}

func (f *fleet) put(obj string, data []byte, version uint64) error {
	for _, m := range f.members {
		if err := m.client.Put(obj, data, version); err != nil {
			return err
		}
		fmt.Printf("stored %q v%d at node %d (%s)\n", obj, version, m.node, m.addr)
	}
	return nil
}

// read acts as a client: it finds the holders of the object, picks the
// one with the lowest predicted RTT from the client coordinate, and
// issues a summarized read there.
func (f *fleet) read(obj string, clientID int, clientPos []float64) error {
	holders, err := f.holders(obj)
	if err != nil {
		return err
	}
	if len(holders) == 0 {
		return fmt.Errorf("object %q not found on any node", obj)
	}
	best := holders[0]
	if len(clientPos) > 0 {
		clientCoord := coord.Coordinate{Pos: vec.Vec(clientPos)}
		bestD := clientCoord.DistanceTo(best.coord)
		for _, m := range holders[1:] {
			if len(m.coord.Pos) == 0 {
				continue
			}
			if d := clientCoord.DistanceTo(m.coord); d < bestD {
				best, bestD = m, d
			}
		}
	}
	resp, rtt, err := best.client.Get(clientID, clientPos, obj)
	if err != nil {
		return err
	}
	fmt.Printf("read %q v%d (%dB) from node %d in %s\n",
		obj, resp.Version, len(resp.Data), best.node, rtt.Round(time.Microsecond))
	return nil
}

// metrics fetches and pretty-prints every node's metrics snapshot.
// filter, when non-empty, keeps only metric names containing it.
func (f *fleet) metrics(w io.Writer, filter string) error {
	keep := func(name string) bool {
		return filter == "" || strings.Contains(name, filter)
	}
	for _, m := range f.members {
		s, err := m.client.Metrics()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "node %d (%s)\n", m.node, m.addr)
		for _, name := range metrics.SortedNames(s.Counters) {
			if keep(name) {
				fmt.Fprintf(w, "  %-44s %12d\n", name, s.Counters[name])
			}
		}
		for _, name := range metrics.SortedNames(s.Gauges) {
			if keep(name) {
				fmt.Fprintf(w, "  %-44s %12.3f\n", name, s.Gauges[name])
			}
		}
		for _, name := range metrics.SortedNames(s.Histograms) {
			if !keep(name) {
				continue
			}
			h := s.Histograms[name]
			fmt.Fprintf(w, "  %-44s n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
				name, h.Count, h.Mean(), h.P50, h.P95, h.P99, h.Max)
		}
		// Nodes running with -slo get a budget/burn section under the raw
		// series; nodes without one just skip it (the RPC errors).
		if st, err := m.client.SLO(); err == nil {
			fmt.Fprintf(w, "  slo%42s %8s %7s %7s\n", "state", "budget", "burnF", "burnS")
			for _, o := range st.Objectives {
				fmt.Fprintf(w, "    %-41s %5s %7.1f%% %6.1fx %6.1fx\n",
					o.Name, o.State, o.BudgetRemaining*100, o.BurnFastShort, o.BurnSlowShort)
			}
		}
	}
	return nil
}

// slo renders each node's live SLO dashboard. Nodes answering the slo
// RPC with an application error (engine disabled) are reported and
// skipped; if no node serves SLOs the command fails.
func (f *fleet) slo(w io.Writer) error {
	served := 0
	for _, m := range f.members {
		st, err := m.client.SLO()
		if err != nil {
			if transport.IsRetryable(err) {
				return err
			}
			fmt.Fprintf(w, "node %d (%s): no slo engine\n", m.node, m.addr)
			continue
		}
		served++
		fmt.Fprintf(w, "node %d (%s)  spec: %s\n", m.node, m.addr, st.Spec)
		fmt.Fprintf(w, "  page at %.1fx burn on %s+%s, warn at %.1fx on %s+%s\n",
			st.PageBurn, st.Windows["fast_short"], st.Windows["fast_long"],
			st.WarnBurn, st.Windows["slow_short"], st.Windows["slow_long"])
		for _, o := range st.Objectives {
			fmt.Fprintf(w, "  %-28s %-4s  budget %6.1f%%  burn %5.1fx %5.1fx %5.1fx %5.1fx  %s\n",
				o.Name, o.State, o.BudgetRemaining*100,
				o.BurnFastShort, o.BurnFastLong, o.BurnSlowShort, o.BurnSlowLong,
				sparkline(o.Spark))
			for _, ex := range o.Exemplars {
				fmt.Fprintf(w, "      exemplar %.3f trace %s\n", ex.Value, ex.TraceID)
			}
		}
	}
	if served == 0 {
		return fmt.Errorf("no node serves SLOs (start georepd with -slo)")
	}
	return nil
}

// sparkBars is the 8-level block alphabet sparklines draw with.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as unicode bars scaled to their own max;
// NaN (no data yet) renders as a space.
func sparkline(vals []float64) string {
	var max float64
	for _, v := range vals {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	out := make([]rune, 0, len(vals))
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			out = append(out, ' ')
		case max == 0:
			out = append(out, sparkBars[0])
		default:
			i := int(v / max * float64(len(sparkBars)-1))
			out = append(out, sparkBars[i])
		}
	}
	return string(out)
}

// metricsWatchMaxFailures is how many consecutive unreachable frames a
// metrics watch rides out before giving up: enough to span a daemon
// restart, small enough that a permanently dead fleet still surfaces.
const metricsWatchMaxFailures = 8

// watch re-renders one fleet view every interval,
// clearing the terminal between frames (top-style), until interrupted.
// Each frame is rendered to a buffer first so a partially fetched frame
// never tears the screen. A transport-level failure — a daemon
// restarting looks like a dead connection — does not end the watch:
// the frame is skipped with a backoff notice and the next attempt
// redials, giving up only after metricsWatchMaxFailures consecutive
// misses. Application errors still fail fast. iterations caps the
// number of frames (successful or skipped) for tests; <= 0 runs forever.
func (f *fleet) watch(w io.Writer, title string, interval time.Duration, iterations int, render func(io.Writer) error) error {
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	policy := transport.DefaultRetryPolicy()
	failures := 0
	for i := 0; ; i++ {
		var buf bytes.Buffer
		wait := interval
		switch err := render(&buf); {
		case err == nil:
			failures = 0
			fmt.Fprintf(w, "\033[H\033[2Jgeorepctl %s  (every %s, ctrl-c to stop)\n%s", title, interval, buf.String())
		case transport.IsRetryable(err):
			failures++
			if failures >= metricsWatchMaxFailures {
				return fmt.Errorf("%s watch: giving up after %d consecutive failures: %w", title, failures, err)
			}
			if backoff := policy.Backoff(failures, nil); backoff > wait {
				wait = backoff
			}
			fmt.Fprintf(w, "metrics watch: fleet unreachable (%v); retrying in %s (%d/%d)\n",
				err, wait.Round(time.Millisecond), failures, metricsWatchMaxFailures-1)
		default:
			return err
		}
		if iterations > 0 && i+1 >= iterations {
			return nil
		}
		time.Sleep(wait)
	}
}

// metricsWatch is the metrics-table view of the generic watch loop.
func (f *fleet) metricsWatch(w io.Writer, filter string, interval time.Duration, iterations int) error {
	return f.watch(w, "metrics", interval, iterations, func(fw io.Writer) error {
		return f.metrics(fw, filter)
	})
}

// decay ages every node's summary — an operator's manual epoch boundary.
func (f *fleet) decay(factor float64) error {
	for _, m := range f.members {
		if err := m.client.Decay(factor); err != nil {
			return err
		}
		fmt.Printf("aged summaries at node %d by %.2f\n", m.node, factor)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate component %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// gatherTraces fetches every reachable node's retained span trees and
// merges them by trace id, so a tree whose spans are scattered across
// daemons reassembles. Nodes running without a flight recorder
// contribute nothing.
func (f *fleet) gatherTraces() ([]trace.Trace, error) {
	sets := make([][]trace.Trace, 0, len(f.members))
	for _, m := range f.members {
		ts, err := m.client.Trace()
		if err != nil {
			return nil, fmt.Errorf("traces from node %d (%s): %w", m.node, m.addr, err)
		}
		sets = append(sets, ts)
	}
	return trace.Merge(sets...), nil
}

// readTraceFile loads span trees from a JSONL export.
func readTraceFile(path string) ([]trace.Trace, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return trace.ReadJSONL(fh)
}

// writeTraces renders traces in the requested format, optionally
// narrowed to one trace id or to anomalous traces only.
func writeTraces(w io.Writer, traces []trace.Trace, format, id string, anomOnly bool) error {
	var kept []trace.Trace
	for _, t := range traces {
		if id != "" && t.TraceID != id {
			continue
		}
		if anomOnly && t.Anomaly == "" {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		fmt.Fprintln(w, "no matching traces")
		return nil
	}
	switch format {
	case "tree":
		for _, t := range kept {
			fmt.Fprint(w, trace.RenderTree(t))
		}
		return nil
	case "chrome":
		return trace.WriteChromeTrace(w, kept)
	case "jsonl":
		return trace.WriteJSONL(w, kept)
	default:
		return fmt.Errorf("unknown trace format %q (want tree, chrome or jsonl)", format)
	}
}

// topSpans lists the slowest spans across all traces, optionally
// filtered by kind.
func topSpans(w io.Writer, traces []trace.Trace, kind string, n int) error {
	if n <= 0 {
		return fmt.Errorf("spans needs -top > 0")
	}
	var spans []trace.Span
	for _, t := range traces {
		for _, s := range t.Spans {
			if kind == "" || s.Kind == kind {
				spans = append(spans, s)
			}
		}
	}
	if len(spans) == 0 {
		fmt.Fprintln(w, "no matching spans")
		return nil
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].DurNs > spans[j].DurNs })
	if len(spans) > n {
		spans = spans[:n]
	}
	fmt.Fprintf(w, "%-12s%-24s%-10s%12s  %s\n", "kind", "name", "node", "ms", "trace")
	for _, s := range spans {
		line := fmt.Sprintf("%-12s%-24s%-10s%12.3f  %s", s.Kind, s.Name, s.Node, float64(s.DurNs)/1e6, s.TraceID)
		if s.Err != "" {
			line += "  ERR: " + s.Err
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// holders returns the members currently storing the object.
func (f *fleet) holders(obj string) ([]*member, error) {
	var out []*member
	for _, m := range f.members {
		objs, err := m.client.List()
		if err != nil {
			return nil, err
		}
		for _, o := range objs {
			if o == obj {
				out = append(out, m)
				break
			}
		}
	}
	return out, nil
}

func (f *fleet) rebalance(obj string, k int, minGain float64, apply bool, traceOut string) error {
	if k <= 0 || k > len(f.members) {
		return fmt.Errorf("k=%d out of [1,%d]", k, len(f.members))
	}
	for _, m := range f.members {
		if len(m.coord.Pos) == 0 {
			return fmt.Errorf("node %d (%s) has no coordinate; start georepd with -coord", m.node, m.addr)
		}
	}
	holders, err := f.holders(obj)
	if err != nil {
		return err
	}
	if len(holders) == 0 {
		return fmt.Errorf("object %q not found on any node", obj)
	}

	// One rebalance cycle is one span tree, mirroring the manager's
	// epoch span model: collect per holder, kmeans, decide, migrate.
	root := f.tracer.StartRoot("rebalance "+obj, trace.KindEpoch)
	defer root.End()
	root.SetAttr("object", obj)
	root.SetAttr("k", strconv.Itoa(k))

	// Collect summaries from the current holders. An unreachable holder
	// degrades the cycle — named on its errored collect span, the cycle
	// pinned anomalous — rather than failing it.
	var micros []cluster.Micro
	var summaryBytes int
	var current, missing []int
	for _, m := range holders {
		sp := f.tracer.Start(root.Context(), fmt.Sprintf("collect %d", m.node), trace.KindCollect)
		sp.SetAttr("replica", strconv.Itoa(m.node))
		ctx := trace.ContextWithSpan(context.Background(), sp)
		current = append(current, m.node)
		ms, n, err := m.client.MicrosCtx(ctx)
		if err != nil {
			sp.SetErrString(fmt.Sprintf("holder %d (%s) unreachable: %v", m.node, m.addr, err))
			sp.End()
			fmt.Fprintf(os.Stderr, "georepctl: no summary from node %d (%s): %v\n", m.node, m.addr, err)
			missing = append(missing, m.node)
			continue
		}
		sp.SetAttr("bytes", strconv.Itoa(n))
		sp.End()
		micros = append(micros, ms...)
		summaryBytes += n
	}
	// Nodes that never made it into the fleet still get named: they may
	// hold a replica we cannot see, so the cycle is degraded either way.
	downAddrs := make([]string, 0, len(f.down))
	for addr := range f.down {
		downAddrs = append(downAddrs, addr)
	}
	sort.Strings(downAddrs)
	for _, addr := range downAddrs {
		sp := f.tracer.Start(root.Context(), "collect "+addr, trace.KindCollect)
		sp.SetErrString(fmt.Sprintf("node at %s unreachable: %v", addr, f.down[addr]))
		sp.End()
	}
	if len(missing) > 0 {
		root.SetAttr("missing", fmt.Sprint(missing))
	}
	if len(missing) > 0 || len(downAddrs) > 0 {
		root.MarkAnomalous("degraded")
	}
	if len(micros) == 0 {
		err := fmt.Errorf("no access summaries reachable; let clients read %q first or retry", obj)
		root.SetErr(err)
		return err
	}

	// Dense coordinate table indexed by node id.
	maxNode := 0
	for _, m := range f.members {
		if m.node > maxNode {
			maxNode = m.node
		}
	}
	coords := make([]coord.Coordinate, maxNode+1)
	var candidates []int
	for _, m := range f.members {
		coords[m.node] = m.coord
		candidates = append(candidates, m.node)
	}

	ksp := f.tracer.Start(root.Context(), "kmeans", trace.KindKMeans)
	ksp.SetAttr("micros", strconv.Itoa(len(micros)))
	proposed, err := replica.ProposePlacement(rand.New(rand.NewSource(time.Now().UnixNano())),
		micros, k, candidates, coords)
	if err != nil {
		ksp.SetErr(err)
		ksp.End()
		root.SetErr(err)
		return err
	}
	ksp.End()
	dsp := f.tracer.Start(root.Context(), "decide", trace.KindDecide)
	oldEst, err := replica.EstimateMeanDelay(micros, current, coords)
	if err == nil {
		var newEst float64
		newEst, err = replica.EstimateMeanDelay(micros, proposed, coords)
		if err == nil {
			gain := 0.0
			if oldEst > 0 {
				gain = (oldEst - newEst) / oldEst
			}
			dsp.SetAttr("gain_ms", fmt.Sprintf("%.3f", oldEst-newEst))
			dsp.End()
			err = f.applyRebalance(obj, root, holders, current, proposed,
				oldEst, newEst, gain, minGain, apply, summaryBytes)
		}
	}
	if err != nil {
		dsp.SetErr(err)
		dsp.End()
		root.SetErr(err)
		return err
	}
	if traceOut != "" {
		root.End()
		if err := f.exportTrace(traceOut); err != nil {
			return err
		}
	}
	return nil
}

// applyRebalance prints the proposal and, with apply, executes the
// migration under a migrate span.
func (f *fleet) applyRebalance(obj string, root *trace.ActiveSpan, holders []*member,
	current, proposed []int, oldEst, newEst, gain, minGain float64, apply bool, summaryBytes int) error {
	fmt.Printf("object %q: current %v (est %.1f ms) → proposed %v (est %.1f ms), gain %.1f%%, %dB summaries\n",
		obj, current, oldEst, proposed, newEst, 100*gain, summaryBytes)

	if !apply {
		fmt.Println("dry run; pass -apply to migrate")
		return nil
	}
	// A change of the replication degree is explicit operator intent and
	// is applied regardless of the gain bar; the bar only filters
	// same-size churn.
	if gain < minGain && len(proposed) == len(current) {
		fmt.Printf("gain below -min-gain %.1f%%; not migrating\n", 100*minGain)
		return nil
	}

	ops, err := store.PlanMigration(store.ObjectID(obj), current, proposed)
	if err != nil {
		return err
	}
	msp := f.tracer.Start(root.Context(), "migrate", trace.KindMigrate)
	msp.SetAttr("ops", strconv.Itoa(len(ops)))
	defer msp.End()
	ctx := trace.ContextWithSpan(context.Background(), msp)
	for _, op := range ops {
		if op.Copy {
			src, dst := f.byNode[op.Source], f.byNode[op.Target]
			resp, _, err := src.client.GetCtx(ctx, -1, nil, obj)
			if err != nil {
				msp.SetErr(err)
				return err
			}
			if err := dst.client.PutCtx(ctx, obj, resp.Data, resp.Version+1); err != nil {
				msp.SetErr(err)
				return err
			}
			fmt.Printf("copied %q: node %d → node %d\n", obj, op.Source, op.Target)
		} else {
			if err := f.byNode[op.Target].client.DeleteCtx(ctx, obj); err != nil {
				msp.SetErr(err)
				return err
			}
			fmt.Printf("deleted %q at node %d\n", obj, op.Target)
		}
	}
	root.MarkAnomalous("migrated")
	// Age the summaries so the next cycle reflects fresh demand.
	for _, m := range holders {
		if err := m.client.DecayCtx(ctx, 0.5); err != nil {
			msp.SetErr(err)
			return err
		}
	}
	fmt.Println("migration complete")
	return nil
}

// exportTrace merges the coordinator's recorded spans with every
// reachable daemon's server-side legs and writes the result as JSONL.
func (f *fleet) exportTrace(path string) error {
	sets := [][]trace.Trace{f.rec.Traces()}
	for _, m := range f.members {
		ts, err := m.client.Trace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "georepctl: no traces from node %d (%s): %v\n", m.node, m.addr, err)
			continue
		}
		sets = append(sets, ts)
	}
	merged := trace.Merge(sets...)
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(fh, merged); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d span trees to %s\n", len(merged), path)
	return nil
}
