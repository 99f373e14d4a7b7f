// Package daemon is the networked storage-node runtime: a TCP server
// exposing the object store, the per-replica micro-cluster summary, and
// the coordination hooks (summary export, decay, migration ops). Both
// the georepd binary and the kvcluster example embed it; a coordinator
// drives a set of daemons with Client.
//
// Wide-area latencies can be emulated on one machine by giving each node
// a delay function: reads sleep the emulated RTT before answering, so
// the latency a client measures matches the matrix being emulated.
package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/faults"
	"github.com/georep/georep/internal/logging"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
	"github.com/georep/georep/internal/vec"
)

// Protocol bodies. All requests that model a client read carry the
// client's identity and coordinate: real deployments know both (the
// coordinate system is decentralized, every node has its own coordinate).
// Every type travels in the binary body codec of wire.go; the metrics,
// slo, trace and explain replies are the view's rendered bytes.
type (
	// GetRequest reads an object on behalf of a client.
	GetRequest struct {
		Client      int
		ClientCoord []float64
		Object      string
		Bytes       float64 // accounting weight; 0 means len(data)
	}
	// GetResponse returns the object payload.
	GetResponse struct {
		Data    []byte
		Version uint64
	}
	// PutRequest stores an object (coordinator or writer path; no
	// summary recording).
	PutRequest struct {
		Object  string
		Data    []byte
		Version uint64
	}
	// DeleteRequest removes an object.
	DeleteRequest struct {
		Object string
	}
	// MicrosRequest optionally narrows the summary export to one
	// object's accesses (multi-object placement); an empty Object asks
	// for the node-wide summary.
	MicrosRequest struct {
		Object string
	}
	// MicrosResponse carries the micro-cluster summary in the fixed-width
	// micros codec (cluster.EncodeMicros / DecodeMicros).
	MicrosResponse struct {
		Encoded []byte
	}
	// DecayRequest ages the summary by Factor in (0,1].
	DecayRequest struct {
		Factor float64
	}
	// StatsResponse describes the node.
	StatsResponse struct {
		Node     int
		Objects  int
		Bytes    int64
		Accesses int64
	}
	// CoordResponse reports the node's own network coordinate, which a
	// coordinator needs to run placement over a daemon fleet.
	CoordResponse struct {
		Node   int
		Pos    []float64
		Height float64
	}
	// ListResponse enumerates stored objects.
	ListResponse struct {
		Objects []string
	}
	// ExplainRequest asks for a decision-provenance explanation from a
	// node that serves one (georepd -ledger-dir). Epoch < 0 means the
	// latest recorded epoch; ObjectID narrows multi-object ledgers.
	ExplainRequest struct {
		Epoch    int
		ObjectID string
	}
	// ReplicateRequest asks a write-log node for log entries past the
	// caller's highest applied sequence — the catch-up leg of the
	// leader-based write path over the wire.
	ReplicateRequest struct {
		// From is the caller's highest applied sequence; entries are
		// served starting at From+1.
		From uint64
		// Max caps the batch; 0 means the server default.
		Max int
	}
	// ReplicateResponse carries CRC-framed log entries (decode with
	// replog.DecodeBatch). When the requested position is already
	// compacted, Snapshot is true and the caller must install the
	// SnapSeq/SnapTerm boundary before re-requesting the tail.
	ReplicateResponse struct {
		Frames   []byte
		Snapshot bool
		SnapSeq  uint64
		SnapTerm uint64
		// Last is the node's log tail, so callers can gauge their lag.
		Last uint64
	}
)

// Method names of the daemon protocol.
const (
	MethodGet     = "get"
	MethodPut     = "put"
	MethodDelete  = "delete"
	MethodMicros  = "micros"
	MethodDecay   = "decay"
	MethodStats   = "stats"
	MethodPing    = "ping"
	MethodCoord   = "coord"
	MethodList    = "list"
	MethodMetrics = "metrics"
	MethodTrace   = "trace"
	// MethodSLO serves the node's live SLO engine status (objectives,
	// states, burn rates, budget remaining, sparkline samples).
	MethodSLO = "slo"
	// MethodReplicate serves replication-log entries to catching-up
	// followers (write-log nodes only).
	MethodReplicate = "replicate"
	// MethodExplain serves a decision-provenance explanation built from
	// the node's ledger (nodes started with a ledger directory only).
	MethodExplain = "explain"
)

// defaultWriteLogRetain bounds the uncompacted write-log tail when the
// config does not: entries further behind the tip are compacted into
// the snapshot boundary and followers that far behind get a snapshot
// redirect instead of a frame batch.
const defaultWriteLogRetain = 1024

// maxReplicateBatch caps one replicate response regardless of the
// request's Max, keeping frames inside a sane transport payload.
const maxReplicateBatch = 4096

// DelayFunc returns the emulated RTT for serving a given client node;
// the daemon sleeps this long before answering a read. nil disables
// emulation.
type DelayFunc func(client int) time.Duration

// Config parameterizes a Node.
type Config struct {
	// ID is the node's index in the deployment.
	ID int
	// MicroClusters is the summary budget m.
	MicroClusters int
	// Dims is the client-coordinate dimensionality.
	Dims int
	// IngestShards, when > 1 (power of two), partitions the summary into
	// client-hash shards so concurrent reads do not serialize on the
	// node's mutex while folding into the summarizer; the exported
	// summary is merged back down to the MicroClusters budget.
	IngestShards int
	// PerObjectSummaries additionally maintains one summary per stored
	// object (same budget and sharding as the node-wide summary), so a
	// multi-object coordinator can collect each object's demand with
	// micros {Object: id}. The node-wide summary keeps aggregating every
	// access, so single-object coordinators are unaffected.
	PerObjectSummaries bool
	// Delay emulates wide-area RTTs; nil serves at local speed.
	Delay DelayFunc
	// Coordinate is this node's own network coordinate, reported to
	// coordinators via the coord method. Optional: an empty position
	// means "unknown" and rebalancing tools must supply coordinates
	// out of band.
	Coordinate []float64
	// Height is the height component of the node's coordinate.
	Height float64
	// Faults, when non-nil, injects the plan's node-level faults into
	// this daemon: while the node is crashed (or a wildcard-source link
	// rule drops the traversal) incoming requests are silently swallowed
	// — the client sees a stall, exactly as if the process were dead —
	// and latency spikes delay the reply. Partitions and source-specific
	// link rules need both endpoints and are the caller's concern (the
	// coordinator applies them via its unreachable set).
	Faults *faults.Injector
	// AdvanceFaultEpochOnDecay moves the injector one epoch forward each
	// time a decay request arrives (even a dropped one): the coordinator
	// sends exactly one decay per epoch, so the node's fault schedule
	// stays in step without an out-of-band clock. Leave false when the
	// test driver sets the epoch explicitly on a shared injector.
	AdvanceFaultEpochOnDecay bool
	// WriteRatio, when > 0, enables the node's replication write log:
	// every put appends a CRC-framed entry, replog_* metrics join the
	// registry (and thus /metrics and the metrics RPC), and the
	// replicate method serves the framed tail to catching-up followers.
	// The value itself is advisory — the expected write share of
	// traffic, exported as the daemon_write_ratio gauge so operators
	// can compare the configured mix against the observed
	// daemon_rpc_put_total / daemon_rpc_get_total split. Must be in
	// [0, 1]; 0 disables the write log entirely (byte-identical to a
	// node that predates it). Fenced multi-leader terms and failover
	// live in replog.Group; the daemon log is the single-writer wire
	// surface.
	WriteRatio float64
	// WriteLogRetain bounds the uncompacted write-log tail; 0 means
	// defaultWriteLogRetain. Followers further behind than the retained
	// tail receive a snapshot redirect from the replicate method.
	WriteLogRetain int
	// Trace, when non-nil, retains server-side spans for traced inbound
	// requests (frames carrying a trace context). The trace RPC and the
	// georepd /trace endpoint export the retained trees, so a
	// coordinator can assemble the daemon legs of its epoch traces.
	Trace *trace.FlightRecorder
	// SLOSpec, when non-empty, turns on the node's live SLO engine: a
	// metrics history ring samples the registry every SLOInterval and
	// the engine evaluates the parsed objectives (see internal/slo for
	// the DSL), exporting slo_* gauges, serving the slo RPC, and — when
	// a flight recorder is attached — pinning the latest retained trace
	// on every page transition.
	SLOSpec string
	// SLOInterval is the history sampling / evaluation cadence
	// (default 10s).
	SLOInterval time.Duration
	// HistorySamples sizes the metrics history ring (default 360: one
	// hour at the default cadence).
	HistorySamples int
	// OnSLOTransition, when non-nil, observes every SLO state change
	// after the node's own handling (trace pinning); georepd uses it
	// for one-shot pprof captures on page.
	OnSLOTransition func(slo.Transition)
	// ExplainJSON, when non-nil, answers the explain RPC: it returns a
	// JSON-encoded explain.Report for the requested epoch (negative =
	// latest recorded) and object filter. georepd supplies a closure
	// over its ledger directory; the daemon package itself stays
	// ledger-agnostic. Nil makes the explain RPC an application error.
	ExplainJSON func(epoch int, objectID string) ([]byte, error)
	// Logger receives daemon lifecycle and serve-loop events; nil
	// discards them.
	Logger *slog.Logger
	// TransportLogger receives transport-server events (fault drops,
	// unknown methods, handler errors); nil discards them.
	TransportLogger *slog.Logger
}

// Node is one running storage daemon.
type Node struct {
	cfg    Config
	store  *store.Store
	server *transport.Server
	reg    *metrics.Registry
	met    nodeMetrics
	log    *slog.Logger

	mu       sync.Mutex
	all      summary             // the node-wide summary
	objSums  map[string]*summary // nil unless Config.PerObjectSummaries
	accesses int64
	wlog     *replog.Log // nil unless Config.WriteRatio > 0
	wretain  int

	history *metrics.History // nil unless Config.SLOSpec != ""
	sloEng  *slo.Engine
	sloStop chan struct{}
	sloWG   sync.WaitGroup
}

// nodeMetrics are the handlers' metric handles, resolved once so the
// per-request path does no registry lookups. The replog handles stay nil
// (no-ops, and absent from the registry) on a node without a write log.
type nodeMetrics struct {
	summarizedAccesses *metrics.Counter
	summarizedWeight   *metrics.Gauge
	summaryBytesTotal  *metrics.Counter
	summaryBytes       *metrics.Histogram

	appends            *metrics.Counter
	logBytes           *metrics.Counter
	compactions        *metrics.Counter
	lastSeq            *metrics.Gauge
	replicateBytes     *metrics.Counter
	replicateSnapshots *metrics.Counter
	repLag             *metrics.Histogram // follower lag served by replicate
}

// summary is one micro-cluster summary: the node-wide one, or one
// object's, created on the object's first summarized access
// (Config.PerObjectSummaries). Every summary of a node is sharded or
// not as Config.IngestShards says; n.mu guards an unsharded one.
type summary struct {
	sum    *cluster.Summarizer // nil when sharded
	shards *cluster.Sharded    // nil when unsharded
}

func newSummary(cfg Config) (s summary, err error) {
	if cfg.IngestShards > 1 {
		s.shards, err = cluster.NewSharded(cfg.IngestShards, cfg.MicroClusters, cfg.Dims)
	} else {
		s.sum, err = cluster.NewSummarizer(cfg.MicroClusters, cfg.Dims)
	}
	return s, err
}

// NewNode builds the node runtime (not yet listening). Every node
// carries a metrics registry covering both the daemon protocol
// (per-method counts, errors, latencies) and the underlying transport
// (bytes in/out); Snapshot and the metrics RPC expose it.
func NewNode(cfg Config) (*Node, error) {
	if cfg.MicroClusters <= 0 {
		return nil, fmt.Errorf("daemon: MicroClusters must be positive, got %d", cfg.MicroClusters)
	}
	if cfg.Dims <= 0 {
		return nil, fmt.Errorf("daemon: Dims must be positive, got %d", cfg.Dims)
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 {
		return nil, fmt.Errorf("daemon: WriteRatio must be in [0, 1], got %v", cfg.WriteRatio)
	}
	if cfg.WriteLogRetain < 0 {
		return nil, fmt.Errorf("daemon: WriteLogRetain must be non-negative, got %d", cfg.WriteLogRetain)
	}
	reg := metrics.NewRegistry()
	n := &Node{
		cfg:   cfg,
		store: store.New(),
		reg:   reg,
		log:   logging.Or(cfg.Logger),
		met: nodeMetrics{
			summarizedAccesses: reg.Counter("daemon_summarized_accesses_total"),
			summarizedWeight:   reg.Gauge("daemon_summarized_weight_total"),
			summaryBytesTotal:  reg.Counter("daemon_summary_bytes_total"),
			summaryBytes:       reg.Histogram("daemon_summary_bytes", metrics.SizeBuckets()),
		},
	}
	srvOpts := []transport.ServerOption{transport.WithMetrics(reg)}
	if cfg.Faults != nil {
		srvOpts = append(srvOpts, transport.WithServerFaults(n.faultAction))
	}
	if cfg.Trace != nil {
		srvOpts = append(srvOpts,
			transport.WithServerTracer(trace.New(cfg.Trace, fmt.Sprintf("node%d", cfg.ID))))
	}
	if cfg.TransportLogger != nil {
		srvOpts = append(srvOpts, transport.WithServerLogger(cfg.TransportLogger))
	}
	n.server = transport.NewServer(srvOpts...)
	var err error
	if n.all, err = newSummary(cfg); err != nil {
		return nil, err
	}
	if cfg.PerObjectSummaries {
		n.objSums = make(map[string]*summary)
	}
	if cfg.WriteRatio > 0 {
		n.wlog = replog.NewLog()
		n.wretain = cfg.WriteLogRetain
		if n.wretain == 0 {
			n.wretain = defaultWriteLogRetain
		}
		reg.Gauge("daemon_write_ratio").Set(cfg.WriteRatio)
		// The whole replog family registers at zero so /metrics,
		// /metrics.json, and Prometheus scrapes expose consistent
		// series from the first scrape — not only after the first
		// append/fence/failover event happens to create them.
		n.met.appends = reg.Counter("replog_appends_total")
		n.met.logBytes = reg.Counter("replog_log_bytes_total")
		n.met.compactions = reg.Counter("replog_compactions_total")
		n.met.replicateBytes = reg.Counter("replog_replicate_bytes_total")
		n.met.replicateSnapshots = reg.Counter("replog_replicate_snapshots_total")
		for _, c := range []string{
			"replog_reads_total",
			"replog_appends_fenced_total", "replog_failovers_total",
			"replog_ryw_violations_total", "replog_monotonic_violations_total",
			"replog_stale_reads_degraded_total",
		} {
			reg.Counter(c)
		}
		n.met.lastSeq = reg.Gauge("replog_last_seq")
		n.met.repLag = reg.Histogram("replog_replication_lag_entries",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	}
	if cfg.SLOSpec != "" {
		spec, err := slo.Parse(cfg.SLOSpec)
		if err != nil {
			return nil, err
		}
		samples := cfg.HistorySamples
		if samples <= 0 {
			samples = 360
		}
		n.history = metrics.NewHistory(reg, samples)
		n.sloEng, err = slo.New(spec, slo.Config{
			History: n.history,
			OnTransition: func(t slo.Transition) {
				if t.To == slo.StatePage {
					t.PinnedTrace = cfg.Trace.PinLatest("slo_page:" + t.Objective)
				}
				n.log.Info("slo transition", "objective", t.Objective,
					"from", t.From.String(), "to", t.To.String(),
					"burn_fast", t.BurnFastShort, "budget_remaining", t.BudgetRemaining)
				if cfg.OnSLOTransition != nil {
					cfg.OnSLOTransition(t)
				}
			},
		})
		if err != nil {
			return nil, err
		}
	}
	if err := n.registerHandlers(); err != nil {
		return nil, err
	}
	return n, nil
}

// History returns the node's metrics history ring (nil without -slo).
func (n *Node) History() *metrics.History { return n.history }

// SLO returns the node's SLO engine (nil without -slo).
func (n *Node) SLO() *slo.Engine { return n.sloEng }

// objSummaryFor returns (lazily creating) the object's summary. Callers
// must hold n.mu.
func (n *Node) objSummaryFor(object string) (*summary, error) {
	if s := n.objSums[object]; s != nil {
		return s, nil
	}
	s, err := newSummary(n.cfg)
	if err != nil {
		return nil, err
	}
	n.objSums[object] = &s
	return &s, nil
}

// Metrics returns the node's registry, shared with its transport server.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Snapshot captures the node's current metrics.
func (n *Node) Snapshot() metrics.Snapshot { return n.reg.Snapshot() }

// handlers is the protocol: one handler per method.
func (n *Node) handlers() map[string]transport.Handler {
	return map[string]transport.Handler{
		MethodGet:       n.handleGet,
		MethodPut:       n.handlePut,
		MethodDelete:    n.handleDelete,
		MethodMicros:    n.handleMicros,
		MethodDecay:     n.handleDecay,
		MethodStats:     n.handleStats,
		MethodPing:      func([]byte) ([]byte, error) { return nil, nil },
		MethodCoord:     n.handleCoord,
		MethodList:      n.handleList,
		MethodMetrics:   func([]byte) ([]byte, error) { return n.MetricsJSON() },
		MethodTrace:     func([]byte) ([]byte, error) { return n.TraceJSONL() },
		MethodSLO:       func([]byte) ([]byte, error) { return n.SLOJSON() },
		MethodReplicate: n.handleReplicate,
		MethodExplain:   n.handleExplain,
	}
}

func (n *Node) registerHandlers() error {
	for name, h := range n.handlers() {
		if err := n.instrument(name, h); err != nil {
			return err
		}
	}
	return nil
}

// instrument registers a handler wrapped with per-method counters, and a
// latency histogram (inclusive of any emulated WAN delay — the latency a
// client of this method actually experiences server-side) that the
// transport server fills from the handler interval it times anyway.
func (n *Node) instrument(method string, h transport.Handler) error {
	reqs := n.reg.Counter("daemon_rpc_" + method + "_total")
	errs := n.reg.Counter("daemon_rpc_" + method + "_errors_total")
	lat := n.reg.Histogram("daemon_rpc_"+method+"_ms", metrics.LatencyBuckets())
	total := n.reg.Counter("daemon_rpc_total")
	totalErrs := n.reg.Counter("daemon_rpc_errors_total")
	return n.server.HandleTimed(method, func(body []byte) ([]byte, error) {
		out, err := h(body)
		reqs.Inc()
		total.Inc()
		if err != nil {
			errs.Inc()
			totalErrs.Inc()
		}
		return out, err
	}, lat)
}

// faultAction consults the injector for one incoming request. The node
// is the destination; the source is unknown at this layer, so only
// crash windows and wildcard-source link rules apply.
func (n *Node) faultAction(method string) transport.FaultAction {
	if method == MethodDecay && n.cfg.AdvanceFaultEpochOnDecay {
		defer n.cfg.Faults.AdvanceEpoch()
	}
	v := n.cfg.Faults.Verdict(faults.Wild, n.cfg.ID)
	return transport.FaultAction{
		Drop:  v.Drop,
		Delay: time.Duration(v.ExtraMs * float64(time.Millisecond)),
	}
}

// The node's four JSON views. Each renders the bytes that the RPC of
// the same name replies with and that georepd serves over HTTP.

// MetricsJSON renders the registry snapshot (metrics.MarshalSnapshot).
func (n *Node) MetricsJSON() ([]byte, error) {
	return metrics.MarshalSnapshot(n.reg.Snapshot())
}

// SLOJSON renders the SLO engine's status; an error when the node runs
// without one.
func (n *Node) SLOJSON() ([]byte, error) {
	if n.sloEng == nil {
		return nil, fmt.Errorf("daemon: slo engine disabled (start with -slo)")
	}
	return json.Marshal(n.sloEng.Status())
}

// TraceJSONL renders the retained span trees as JSONL
// (trace.WriteJSONL); empty when the node runs without a flight
// recorder.
func (n *Node) TraceJSONL() ([]byte, error) {
	var buf bytes.Buffer
	err := trace.WriteJSONL(&buf, n.cfg.Trace.Traces())
	return buf.Bytes(), err
}

// ExplainJSON renders the explain.Report for an epoch (negative = latest
// recorded) and object filter; an error when the node has no ledger.
func (n *Node) ExplainJSON(epoch int, objectID string) ([]byte, error) {
	if n.cfg.ExplainJSON == nil {
		return nil, fmt.Errorf("daemon: no decision ledger attached (start with -ledger-dir)")
	}
	return n.cfg.ExplainJSON(epoch, objectID)
}

func (n *Node) handleExplain(body []byte) ([]byte, error) {
	var req ExplainRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	return n.ExplainJSON(req.Epoch, req.ObjectID)
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine until Close.
func (n *Node) Start(addr string) error {
	if err := n.server.Listen(addr); err != nil {
		return err
	}
	n.log.Info("daemon listening", "node", n.cfg.ID, "addr", n.Addr())
	if n.sloEng != nil && n.sloStop == nil {
		interval := n.cfg.SLOInterval
		if interval <= 0 {
			interval = 10 * time.Second
		}
		n.sloStop = make(chan struct{})
		n.sloWG.Add(1)
		go func() {
			defer n.sloWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-n.sloStop:
					return
				case now := <-tick.C:
					n.history.Sample(now.UnixNano())
					n.sloEng.Evaluate(now.UnixNano())
				}
			}
		}()
	}
	go func() {
		if err := n.server.Serve(); err != nil && !errors.Is(err, transport.ErrServerClosed) {
			// A dead listener also surfaces to clients as connection
			// errors, but the cause belongs in the node's own log.
			n.log.Error("serve loop exited", "node", n.cfg.ID, "err", err)
		}
	}()
	return nil
}

// Addr returns the listening address, empty before Start.
func (n *Node) Addr() string {
	a := n.server.Addr()
	if a == nil {
		return ""
	}
	return a.String()
}

// Close stops the server and the SLO sampler.
func (n *Node) Close() error {
	if n.sloStop != nil {
		close(n.sloStop)
		n.sloWG.Wait()
		n.sloStop = nil
	}
	return n.server.Close()
}

func (n *Node) handleGet(body []byte) ([]byte, error) {
	var req GetRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	// Bytes becomes the access weight; a NaN or infinite one would sit in
	// the summary through every decay and poison the coordinator's k-means.
	if math.IsNaN(req.Bytes) || math.IsInf(req.Bytes, 0) {
		return nil, fmt.Errorf("daemon: get %q: non-finite bytes %v", req.Object, req.Bytes)
	}
	if n.cfg.Delay != nil {
		time.Sleep(n.cfg.Delay(req.Client))
	}
	obj, err := n.store.Get(store.ObjectID(req.Object))
	if err != nil {
		return nil, err
	}
	weight := req.Bytes
	if weight <= 0 {
		weight = float64(len(obj.Data))
	}
	if len(req.ClientCoord) == n.cfg.Dims {
		var obj *summary
		if n.objSums != nil && req.Object != "" {
			n.mu.Lock()
			obj, err = n.objSummaryFor(req.Object)
			n.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
		if n.all.shards != nil {
			// Sharded ingest locks only the client's shard; the node
			// mutex covers just the access counter.
			err = n.all.shards.Observe(req.Client, vec.Vec(req.ClientCoord), weight)
			if err == nil && obj != nil {
				err = obj.shards.Observe(req.Client, vec.Vec(req.ClientCoord), weight)
			}
			n.mu.Lock()
			n.accesses++
			n.mu.Unlock()
		} else {
			n.mu.Lock()
			err = n.all.sum.Observe(vec.Vec(req.ClientCoord), weight)
			if err == nil && obj != nil {
				err = obj.sum.Observe(vec.Vec(req.ClientCoord), weight)
			}
			n.accesses++
			n.mu.Unlock()
		}
		if err != nil {
			return nil, err
		}
		n.met.summarizedAccesses.Inc()
		n.met.summarizedWeight.Add(weight)
	}
	return transport.Marshal(GetResponse{Data: obj.Data, Version: obj.Version})
}

func (n *Node) handlePut(body []byte) ([]byte, error) {
	var req PutRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	err := n.store.Put(store.Object{
		ID:      store.ObjectID(req.Object),
		Data:    req.Data,
		Version: req.Version,
	})
	if err != nil {
		return nil, err
	}
	if n.wlog != nil {
		if err := n.appendWrite(req); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// appendWrite records one accepted put in the replication log and keeps
// the tail bounded. The daemon log runs a single writer, so every entry
// carries term 1; fenced terms belong to the in-process group runtime
// (replog.Group), not the wire surface.
func (n *Node) appendWrite(req PutRequest) error {
	n.mu.Lock()
	e := replog.Entry{
		Seq:  n.wlog.Last() + 1,
		Term: 1,
		// The daemon put path carries no client identity (it is the
		// coordinator/migration leg); -1 marks the writer unknown.
		Client: -1,
		Object: objHash(req.Object),
		Bytes:  float64(len(req.Data)),
	}
	if err := n.wlog.Append(e); err != nil {
		n.mu.Unlock()
		return err
	}
	var compacted bool
	if n.wlog.Len() > n.wretain {
		if err := n.wlog.CompactTo(n.wlog.Last() - uint64(n.wretain)); err != nil {
			n.mu.Unlock()
			return err
		}
		compacted = true
	}
	last := n.wlog.Last()
	n.mu.Unlock()
	n.met.appends.Inc()
	n.met.logBytes.Add(replog.FrameLen)
	n.met.lastSeq.Set(float64(last))
	if compacted {
		n.met.compactions.Inc()
	}
	return nil
}

// objHash maps an object ID onto the fixed-width entry encoding (FNV-1a).
func objHash(object string) int32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(object); i++ {
		h ^= uint32(object[i])
		h *= prime32
	}
	return int32(h)
}

// handleReplicate serves the framed write-log tail past the caller's
// applied position, or a snapshot redirect when that position is
// already compacted away.
func (n *Node) handleReplicate(body []byte) ([]byte, error) {
	if n.wlog == nil {
		return nil, fmt.Errorf("daemon: write log disabled (start with -write-ratio > 0)")
	}
	var req ReplicateRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	max := req.Max
	if max <= 0 || max > maxReplicateBatch {
		max = maxReplicateBatch
	}
	n.mu.Lock()
	resp := ReplicateResponse{Last: n.wlog.Last()}
	es, ok := n.wlog.EntriesFrom(req.From+1, max)
	if !ok {
		resp.Snapshot = true
		resp.SnapSeq = n.wlog.SnapSeq()
		resp.SnapTerm, _ = n.wlog.TermAt(n.wlog.SnapSeq())
	} else {
		// EntriesFrom aliases log storage: frame while still holding
		// the lock so no concurrent put can touch it under us.
		resp.Frames = replog.EncodeBatch(es)
	}
	n.mu.Unlock()
	// The gap between the log tail and the follower's applied position
	// is the replication lag this catch-up call observed — the live
	// counterpart of the simulator's per-round lag sampling.
	if resp.Last >= req.From {
		n.met.repLag.Observe(float64(resp.Last - req.From))
	}
	n.met.replicateBytes.Add(int64(len(resp.Frames)))
	if resp.Snapshot {
		n.met.replicateSnapshots.Inc()
	}
	return transport.Marshal(resp)
}

func (n *Node) handleDelete(body []byte) ([]byte, error) {
	var req DeleteRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	n.store.Delete(store.ObjectID(req.Object))
	return nil, nil
}

func (n *Node) handleMicros(body []byte) ([]byte, error) {
	var req MicrosRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	s := &n.all
	if req.Object != "" {
		if n.objSums == nil {
			return nil, fmt.Errorf("daemon: per-object summaries disabled (start with -objects)")
		}
		n.mu.Lock()
		s = n.objSums[req.Object]
		n.mu.Unlock()
	}
	var enc []byte
	var err error
	switch {
	case s == nil:
		// No summarized access yet: an empty summary, not an error — a
		// freshly registered object simply has no demand.
		enc, err = cluster.EncodeMicros(nil)
	case s.shards != nil:
		enc, err = cluster.EncodeMicros(s.shards.Summary())
	default:
		n.mu.Lock()
		enc, err = cluster.EncodeMicros(s.sum.Clusters())
		n.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	// The exported summary is the online algorithm's entire bandwidth
	// cost; its cumulative wire size is the paper's O(k·m) claim made
	// observable.
	n.met.summaryBytesTotal.Add(int64(len(enc)))
	n.met.summaryBytes.Observe(float64(len(enc)))
	return transport.Marshal(MicrosResponse{Encoded: enc})
}

func (n *Node) handleDecay(body []byte) ([]byte, error) {
	var req DecayRequest
	if err := req.DecodeBody(body); err != nil {
		return nil, err
	}
	// Epoch decay is fleet-wide: every per-object summary and the
	// node-wide one age together.
	n.mu.Lock()
	sums := make([]*summary, 0, len(n.objSums)+1)
	for _, s := range n.objSums {
		sums = append(sums, s)
	}
	n.mu.Unlock()
	for _, s := range append(sums, &n.all) {
		var err error
		if s.shards != nil {
			err = s.shards.Decay(req.Factor)
		} else {
			n.mu.Lock()
			err = s.sum.Decay(req.Factor)
			n.mu.Unlock()
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (n *Node) handleCoord([]byte) ([]byte, error) {
	return transport.Marshal(CoordResponse{
		Node:   n.cfg.ID,
		Pos:    n.cfg.Coordinate,
		Height: n.cfg.Height,
	})
}

func (n *Node) handleList([]byte) ([]byte, error) {
	keys := n.store.Keys()
	objs := make([]string, len(keys))
	for i, k := range keys {
		objs[i] = string(k)
	}
	return transport.Marshal(ListResponse{Objects: objs})
}

func (n *Node) handleStats([]byte) ([]byte, error) {
	n.mu.Lock()
	accesses := n.accesses
	n.mu.Unlock()
	return transport.Marshal(StatsResponse{
		Node:     n.cfg.ID,
		Objects:  n.store.Len(),
		Bytes:    n.store.TotalBytes(),
		Accesses: accesses,
	})
}
