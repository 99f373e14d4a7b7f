// Package trace is a span-based distributed tracing layer for the
// replica-placement runtime. One coordinator epoch produces a single
// span tree spanning every node it touched: the epoch root on the
// coordinator, one collection span per replica (including retries and
// circuit-breaker trips at the transport layer),
// the k-means macro-clustering, and the migration decision. Trace and
// span IDs travel in the transport wire frames (W3C-trace-context
// style: a 16-byte trace ID and 8-byte span IDs, hex encoded), so the
// server-side spans a daemon records slot into the same tree the
// coordinator started.
//
// The package is dependency-free and nil-safe throughout: a nil
// *Tracer or nil *ActiveSpan ignores every operation, so call sites
// instrument unconditionally and pay one nil check when tracing is
// off. Completed spans land in a Recorder — normally the bounded
// FlightRecorder in recorder.go, which retains recent traces plus
// complete trees for anomalous epochs.
package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Span kinds used across the runtime. Kind is free-form; these are the
// conventional values the tree renderer and georepctl understand.
const (
	KindEpoch    = "epoch"    // coordinator epoch root
	KindCollect  = "collect"  // one replica's summary collection
	KindKMeans   = "kmeans"   // weighted k-means macro-clustering
	KindDecide   = "decide"   // migration decision
	KindMigrate  = "migrate"  // executing one migration op
	KindClient   = "client"   // client side of one RPC (all attempts)
	KindAttempt  = "attempt"  // one RPC attempt on the wire
	KindServer   = "server"   // server side of one RPC
	KindFailover = "failover" // a replication-log leader election
)

// Attr is one key/value attribute on a span.
type Attr struct {
	Key, Value string
}

// Attrs is a span's attribute list. Spans carry a handful of attributes
// at most, so a flat slice costs one allocation (and one GC-scannable
// object) where a map costs several — measurable on the epoch hot path,
// where every span tree becomes recorder-retained garbage. JSON
// round-trips as an object, so wire format and exports are unchanged.
type Attrs []Attr

// Set replaces key's value or appends it, returning the updated list.
// The first append sizes the backing array for the usual handful of
// attributes so a span's whole list costs one allocation.
func (a Attrs) Set(key, value string) Attrs {
	for i := range a {
		if a[i].Key == key {
			a[i].Value = value
			return a
		}
	}
	if a == nil {
		a = make(Attrs, 0, 4)
	}
	return append(a, Attr{Key: key, Value: value})
}

// MarshalJSON renders the list as a JSON object in insertion order.
func (a Attrs) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, kv := range a {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(kv.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(kv.Value)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON accepts a JSON object, sorted by key for a
// deterministic order regardless of the producer's.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(Attrs, 0, len(m))
	for _, k := range keys {
		out = append(out, Attr{Key: k, Value: m[k]})
	}
	*a = out
	return nil
}

// Span is one completed operation in a trace. Times are Unix
// nanoseconds so spans from different processes (and synthetic spans
// stamped with a simulated clock) order on a common axis.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Kind     string `json:"kind,omitempty"`
	// Node names the process that recorded the span ("coord", "node3",
	// "sim"...), distinguishing the legs of a cross-node tree.
	Node    string `json:"node,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   Attrs  `json:"attrs,omitempty"`
	Err     string `json:"err,omitempty"`
}

// Root reports whether the span is a trace root (no parent).
func (s Span) Root() bool { return s.ParentID == "" }

// SpanContext identifies a position in a trace: the trace and the span
// that new child spans should parent under. The zero value is invalid
// and means "not traced".
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context identifies a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Recorder receives completed spans. FlightRecorder is the standard
// implementation; tests may supply their own.
type Recorder interface {
	Record(Span)
}

// AnomalyMarker is an optional Recorder extension: marking a trace
// anomalous pins its complete tree in retention (see FlightRecorder).
type AnomalyMarker interface {
	MarkAnomalous(traceID, reason string)
}

// Tracer mints spans for one process. It is safe for concurrent use; a
// nil Tracer is a no-op.
type Tracer struct {
	rec   Recorder
	node  string
	clock func() int64

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithRand fixes the ID-generation randomness, for deterministic tests
// and seeded simulations.
func WithRand(r *rand.Rand) Option {
	return func(t *Tracer) { t.rng = r }
}

// WithClock overrides the wall clock (Unix nanoseconds). Simulated
// epochs use this to stamp spans with the discrete-event clock so
// replicasim traces are directly comparable to live-daemon traces.
func WithClock(clock func() int64) Option {
	return func(t *Tracer) { t.clock = clock }
}

// New returns a tracer recording into rec under the given node name.
// A nil rec yields a nil (no-op) tracer, so callers can pass an
// optional recorder straight through.
func New(rec Recorder, node string, opts ...Option) *Tracer {
	if rec == nil {
		return nil
	}
	t := &Tracer{
		rec:   rec,
		node:  node,
		clock: func() int64 { return time.Now().UnixNano() },
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// ids returns n random bytes hex-encoded (n must be 8 or 16). Both
// buffers live on the stack so minting an ID costs exactly the one
// string allocation that outlives the call.
func (t *Tracer) ids(n int) string {
	var b [16]byte
	t.mu.Lock()
	for i := 0; i < n; i += 8 {
		binary.BigEndian.PutUint64(b[i:], t.rng.Uint64())
	}
	t.mu.Unlock()
	var dst [32]byte
	hex.Encode(dst[:2*n], b[:n])
	return string(dst[:2*n])
}

// StartRoot begins a new trace with a root span.
func (t *Tracer) StartRoot(name, kind string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return t.start(t.ids(16), "", name, kind)
}

// Start begins a child span under parent. An invalid parent returns a
// nil (no-op) span: a call that arrives untraced stays untraced.
func (t *Tracer) Start(parent SpanContext, name, kind string) *ActiveSpan {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.start(parent.TraceID, parent.SpanID, name, kind)
}

func (t *Tracer) start(traceID, parentID, name, kind string) *ActiveSpan {
	return &ActiveSpan{
		t: t,
		s: Span{
			TraceID:  traceID,
			SpanID:   t.ids(8),
			ParentID: parentID,
			Name:     name,
			Kind:     kind,
			Node:     t.node,
			StartNs:  t.clock(),
		},
	}
}

// MarkAnomalous flags a trace for pinned retention if the recorder
// supports it (FlightRecorder does).
func (t *Tracer) MarkAnomalous(traceID, reason string) {
	if t == nil || traceID == "" {
		return
	}
	if m, ok := t.rec.(AnomalyMarker); ok {
		m.MarkAnomalous(traceID, reason)
	}
}

// ActiveSpan is a span being measured. All methods are nil-safe; End
// records the completed span exactly once.
type ActiveSpan struct {
	t       *Tracer
	mu      sync.Mutex
	s       Span
	anomaly string
	ended   bool
}

// Context returns the span's context for propagation to children and
// onto the wire. A nil span returns the invalid zero context.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.s.TraceID, SpanID: a.s.SpanID}
}

// SetAttr attaches a key/value attribute (replacing an existing key).
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.s.Attrs = a.s.Attrs.Set(key, value)
	a.mu.Unlock()
}

// SetErr records a failure on the span (nil error is ignored).
func (a *ActiveSpan) SetErr(err error) {
	if a == nil || err == nil {
		return
	}
	a.mu.Lock()
	a.s.Err = err.Error()
	a.mu.Unlock()
}

// SetErrString records a failure described as text ("" is ignored).
func (a *ActiveSpan) SetErrString(msg string) {
	if a == nil || msg == "" {
		return
	}
	a.mu.Lock()
	a.s.Err = msg
	a.mu.Unlock()
}

// MarkAnomalous pins the whole trace in the flight recorder when the
// span ends, with the given reason (degraded epoch, below quorum, ...).
func (a *ActiveSpan) MarkAnomalous(reason string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.anomaly = reason
	a.mu.Unlock()
}

// End completes the span and hands it to the recorder. Subsequent Ends
// are ignored.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	a.s.DurNs = a.t.clock() - a.s.StartNs
	if a.s.DurNs < 0 {
		a.s.DurNs = 0
	}
	s, anomaly := a.s, a.anomaly
	a.mu.Unlock()
	a.t.rec.Record(s)
	if anomaly != "" {
		a.t.MarkAnomalous(s.TraceID, anomaly)
	}
}

type ctxKey struct{}

// NewContext returns ctx carrying the span context.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context from ctx (invalid if absent).
func FromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// ContextWithSpan returns ctx carrying the active span's context —
// shorthand for NewContext(ctx, span.Context()).
func ContextWithSpan(ctx context.Context, a *ActiveSpan) context.Context {
	return NewContext(ctx, a.Context())
}

// NewTraceID mints a 16-byte hex trace ID from the given randomness,
// for synthetic spans built outside a Tracer.
func NewTraceID(r *rand.Rand) string { return randHex(r, 16) }

// NewSpanID mints an 8-byte hex span ID.
func NewSpanID(r *rand.Rand) string { return randHex(r, 8) }

func randHex(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return hex.EncodeToString(b)
}
