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
	// root is the open local root whose tree a child started from this
	// context joins (see ActiveSpan.End); nil for a context that arrived
	// over the wire.
	root *ActiveSpan
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
	rec Recorder
	// flight is rec when it is a FlightRecorder, which takes locally
	// rooted trees whole (see ActiveSpan).
	flight *FlightRecorder
	node   string
	clock  func() int64

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
	t.flight, _ = rec.(*FlightRecorder)
	return t
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// spanID draws an 8-byte span ID.
func (t *Tracer) spanID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Uint64()
}

// appendSpanID appends id hex-encoded, as a span ID reads on the wire.
func appendSpanID(dst []byte, id uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.AppendEncode(dst, b[:])
}

// formatSpanID renders id with the one string allocation that outlives
// the call.
func formatSpanID(id uint64) string {
	var buf [16]byte
	return string(appendSpanID(buf[:0], id))
}

// rootIDs draws a root's trace ID and span ID in the order two ids calls
// would, into one string allocation the two IDs share.
func (t *Tracer) rootIDs() (traceID, spanID string) {
	var b [24]byte
	t.mu.Lock()
	for i := 0; i < len(b); i += 8 {
		binary.BigEndian.PutUint64(b[i:], t.rng.Uint64())
	}
	t.mu.Unlock()
	var dst [48]byte
	hex.Encode(dst[:], b[:])
	ids := string(dst[:])
	return ids[:32], ids[32:]
}

// StartRoot begins a new trace with a root span. When the recorder is a
// FlightRecorder the root opens a local tree whose root and first
// children come from one treeBlock.
func (t *Tracer) StartRoot(name, kind string) *ActiveSpan {
	if t == nil {
		return nil
	}
	traceID, spanID := t.rootIDs()
	var a *ActiveSpan
	var attrs Attrs
	if t.flight != nil {
		b := &treeBlock{n: 1}
		a, attrs = &b.spans[0], b.attrs[:0:spanAttrs]
		b.open = openTree{root: a, block: b}
		a.tree = &b.open
	} else {
		a = &ActiveSpan{}
	}
	a.t = t
	a.s = Span{TraceID: traceID, SpanID: spanID, Name: name, Kind: kind, Node: t.node, StartNs: t.clock(), Attrs: attrs}
	return a
}

// Start begins a child span under parent. An invalid parent returns a
// nil (no-op) span: a call that arrives untraced stays untraced.
func (t *Tracer) Start(parent SpanContext, name, kind string) *ActiveSpan {
	if t == nil || !parent.Valid() {
		return nil
	}
	var a *ActiveSpan
	var attrs Attrs
	if root := parent.root; root != nil && root.t == t {
		a, attrs = root.child()
	} else {
		a = &ActiveSpan{}
	}
	a.t = t
	a.id = t.spanID()
	a.s = Span{
		TraceID:  parent.TraceID,
		ParentID: parent.SpanID,
		Name:     name,
		Kind:     kind,
		Node:     t.node,
		StartNs:  t.clock(),
		Attrs:    attrs,
	}
	if a.tree == nil {
		a.s.SpanID = formatSpanID(a.id)
	}
	return a
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
//
// When the recorder is a FlightRecorder, the spans of a locally rooted
// tree are buffered in its root and handed over together when the root
// ends. Many trees can be open at once — a fleet begins every object's
// epoch before completing any — and span by span, the recorder's
// retention window would evict a tree's early spans while its root was
// still open, then keep a fragment. A span whose parent is in another
// process, or that ends after its root, is recorded on its own. A tree
// keeps its first spans up to the recorder's per-trace cap, as a trace
// recorded span by span does. A pin taken while the tree is open
// (PinTrace) waits with it.
type ActiveSpan struct {
	t       *Tracer
	mu      sync.Mutex
	ended   bool
	s       Span
	anomaly string
	// id is the span ID as drawn. A tree's child renders it only when
	// its context is asked for; otherwise the recorder renders the IDs of
	// a whole tree into one string when the root ends.
	id uint64
	// tree is the open local tree the span belongs to — its root's, for
	// the root itself; nil for a span recorded on its own.
	tree *openTree
	// next links the tree's ended children in end order.
	next *ActiveSpan
}

// Per-tree allocation sizes: a treeBlock holds a root and its first
// five children (an epoch's root, three collects, k-means and decide),
// each with room for three attributes.
const (
	treeSpans = 6
	spanAttrs = 3
)

// treeBlock is the one allocation a locally rooted tree's ActiveSpans
// and their attribute lists come from; a tree with more children chains
// further blocks. The ended children wait in their blocks until the root
// ends and the recorder copies them out, so an open tree holds no span
// buffer. A span may outlive its tree (a child can end after its root),
// so a block is never recycled: the garbage collector frees it with the
// last span that points into it.
type treeBlock struct {
	spans [treeSpans]ActiveSpan
	attrs [treeSpans * spanAttrs]Attr
	n     int      // spans handed out
	open  openTree // the tree's state, in its first block
}

// openTree is a local tree while its root is open: the root, the block
// the next child comes from, the ended children in end order, and the
// first anomaly reason one of them, or PinTrace, carried. Guarded by the
// root's mu.
type openTree struct {
	root        *ActiveSpan
	block       *treeBlock
	first, last *ActiveSpan
	n           int // children linked: at most the recorder's per-trace cap
	anomaly     string
}

// child hands out the next ActiveSpan of the tree rooted at a, with its
// attribute storage.
func (a *ActiveSpan) child() (*ActiveSpan, Attrs) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.tree.block
	if b.n == len(b.spans) {
		b = &treeBlock{}
		a.tree.block = b
	}
	i := b.n
	b.n++
	c := &b.spans[i]
	c.tree = a.tree
	return c, b.attrs[i*spanAttrs : i*spanAttrs : (i+1)*spanAttrs]
}

// span returns the completed span as the recorder keeps it: block
// storage nothing was set in reads as no attributes, and an ID not yet
// rendered is. a has ended, so nothing writes its fields any more.
func (a *ActiveSpan) span() Span {
	s := a.s
	if len(s.Attrs) == 0 {
		s.Attrs = nil
	}
	if s.SpanID == "" {
		s.SpanID = formatSpanID(a.id)
	}
	return s
}

// Context returns the span's context for propagation to children and
// onto the wire. A nil span returns the invalid zero context.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	if a.tree == nil {
		return SpanContext{TraceID: a.s.TraceID, SpanID: a.s.SpanID}
	}
	if a.tree.root == a {
		return SpanContext{TraceID: a.s.TraceID, SpanID: a.s.SpanID, root: a}
	}
	a.mu.Lock()
	id := a.s.SpanID
	if id == "" {
		id = formatSpanID(a.id)
		if !a.ended { // an ended span's fields are the recorder's to read
			a.s.SpanID = id
		}
	}
	a.mu.Unlock()
	return SpanContext{TraceID: a.s.TraceID, SpanID: id, root: a.tree.root}
}

// SetAttr attaches a key/value attribute (replacing an existing key).
// Like every setter it is ignored once the span has ended: the recorded
// span is the one End saw.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.s.Attrs = a.s.Attrs.Set(key, value)
	}
	a.mu.Unlock()
}

// SetErr records a failure on the span (nil error is ignored).
func (a *ActiveSpan) SetErr(err error) {
	if a == nil || err == nil {
		return
	}
	a.SetErrString(err.Error())
}

// SetErrString records a failure described as text ("" is ignored).
func (a *ActiveSpan) SetErrString(msg string) {
	if a == nil || msg == "" {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.s.Err = msg
	}
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

// End completes the span and hands it to the recorder — or, for a span
// of an open local tree, to its root. Subsequent Ends are ignored.
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
	anomaly := a.anomaly
	a.mu.Unlock()
	if t := a.tree; t != nil {
		if t.root == a {
			// Ended under mu, so no child joins any more: the tree is
			// complete.
			a.t.flight.recordTree(t, a.span(), anomaly)
			return
		}
		if t.root.join(a, anomaly) {
			return
		}
	}
	s := a.span()
	a.t.rec.Record(s)
	if anomaly != "" {
		a.t.MarkAnomalous(s.TraceID, anomaly)
	}
}

// PinTrace pins the span's trace with reason now and returns the trace
// ID; the first reason wins. While the span's local tree is open the pin
// waits in its root and lands after the spans ended so far, where a pin
// of a trace recorded span by span would have landed; otherwise the
// recorder pins the trace at once.
func (a *ActiveSpan) PinTrace(reason string) string {
	if a == nil {
		return ""
	}
	if a.tree == nil || !a.tree.root.join(nil, reason) {
		a.t.MarkAnomalous(a.s.TraceID, reason)
	}
	return a.s.TraceID
}

// join adds to the open tree rooted at a: an ended child (nil for none)
// and an anomaly reason ("" for none; the first wins). A child past the
// recorder's per-trace cap is dropped, as the recorder would drop its
// span. It reports false once the root has ended; the caller then goes
// to the recorder itself.
func (a *ActiveSpan) join(c *ActiveSpan, anomaly string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ended {
		return false
	}
	t := a.tree
	if c != nil && t.n < defaultMaxSpans {
		if t.last == nil {
			t.first = c
		} else {
			t.last.next = c
		}
		t.last = c
		t.n++
	}
	if t.anomaly == "" {
		t.anomaly = anomaly
	}
	return true
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
