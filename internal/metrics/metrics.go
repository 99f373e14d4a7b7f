// Package metrics is a dependency-free, concurrency-safe metrics layer
// for the replica-placement runtime: atomic counters and gauges,
// fixed-bucket histograms with quantile snapshots, and a bounded epoch
// trace ring. Every runtime layer (replica manager, daemon, transport,
// experiments) feeds a Registry; snapshots serialize to JSON for the
// georepd metrics endpoint and the georepctl metrics subcommand.
//
// All metric operations on hot paths are single atomic instructions, so
// instrumentation stays cheap enough for the Route/Record path (see
// BenchmarkMetricsOverhead at the repo root). Nil receivers are no-ops:
// code may hold a nil *Registry and instrument unconditionally.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters only
// go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can move in both directions. The zero
// value is ready to use; a nil Gauge ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (lock-free CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram over float64 observations.
// Bucket i counts observations v <= bounds[i]; one implicit overflow
// bucket counts the rest. All updates are atomic; a nil Histogram
// ignores all operations.
type Histogram struct {
	bounds    []float64 // sorted upper bounds, len >= 1
	counts    []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64 // float64 sum, CAS-updated
	minBits   atomic.Uint64 // float64, CAS-updated
	maxBits   atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // last traced observation per bucket
}

// Exemplar links one concrete observation to the trace that produced
// it, Prometheus/OpenMetrics style: a histogram bucket remembers the
// most recent traced value it absorbed, so a tail-latency bucket (or a
// paging SLO reading it) points straight at a span tree in the flight
// recorder.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// LatencyBuckets are the default bucket upper bounds for millisecond
// latencies, spanning sub-millisecond local calls to multi-second WAN
// stalls.
func LatencyBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
}

// SizeBuckets are the default bucket upper bounds for byte sizes
// (powers of four from 64 B to 64 MiB).
func SizeBuckets() []float64 {
	return []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864}
}

// NewHistogram builds a histogram with the given sorted upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("metrics: NaN bucket bound at %d", i)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: bucket bounds not strictly increasing at %d: %v", i, bounds)
		}
	}
	h := &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1), // +1 overflow
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// AttachExemplar links traceID to the bucket that v falls in without
// recording a new observation. Retrofit hook for call sites whose
// counting happens elsewhere (e.g. the replication log observes lag
// itself; the experiment attaches the epoch's trace ID afterwards).
func (h *Histogram) AttachExemplar(v float64, traceID string) {
	if h == nil || traceID == "" || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
}

// TailExemplars returns the exemplars attached to buckets whose range
// lies at or above bound — the traced observations that explain the
// histogram's tail. Order is bucket order (ascending).
func (h *Histogram) TailExemplars(bound float64) []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	from := sort.SearchFloat64s(h.bounds, bound)
	for i := from; i < len(h.exemplars); i++ {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// BucketCount is one bucket of a histogram snapshot. UpperMs is +Inf for
// the overflow bucket. Exemplar is the bucket's most recent traced
// observation, when any call site attached one.
type BucketCount struct {
	Upper    float64   `json:"upper"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is a consistent-enough point-in-time view of a
// histogram (individual fields are read atomically; a snapshot taken
// during heavy concurrent writes may be off by in-flight observations).
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns Sum/Count, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot captures the histogram's current state, including estimated
// p50/p95/p99 (linear interpolation within buckets, clamped to the
// observed min/max).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	if s.Count == 0 {
		return HistogramSnapshot{Buckets: s.Buckets[:0]}
	}
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		upper := math.Inf(1)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{Upper: upper, Count: c, Exemplar: h.exemplars[i].Load()}
		total += c
	}
	s.P50 = quantile(s, total, 0.50)
	s.P95 = quantile(s, total, 0.95)
	s.P99 = quantile(s, total, 0.99)
	return s
}

// quantile estimates the q-quantile from bucket counts. Within a bucket
// the distribution is assumed uniform; results are clamped to [Min,Max].
func quantile(s HistogramSnapshot, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, b := range s.Buckets {
		if b.Count == 0 {
			cum += b.Count
			continue
		}
		prev := cum
		cum += b.Count
		if float64(cum) < rank {
			continue
		}
		lo := s.Min
		if i > 0 {
			lo = math.Max(s.Min, s.Buckets[i-1].Upper)
		}
		hi := b.Upper
		if math.IsInf(hi, 1) {
			hi = s.Max
		}
		hi = math.Min(hi, s.Max)
		if hi < lo {
			return lo
		}
		frac := (rank - float64(prev)) / float64(b.Count)
		return lo + frac*(hi-lo)
	}
	return s.Max
}

// Registry is a named collection of metrics. Metric accessors are
// get-or-create and safe for concurrent use; holding the returned metric
// and updating it directly is the intended hot-path pattern. A nil
// Registry hands out nil metrics, which ignore all operations.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the existing histogram and
// ignore bounds). Invalid bounds on first use return nil, which is safe
// to observe into.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		var err error
		h, err = NewHistogram(bounds)
		if err != nil {
			return nil
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric in the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// jsonBucket mirrors BucketCount with an Inf-safe upper bound.
type jsonBucket struct {
	Upper    any       `json:"upper"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

type jsonHistogram struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

type jsonSnapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]jsonHistogram `json:"histograms"`
}

// MarshalSnapshot encodes a snapshot as indented JSON with +Inf bucket
// bounds stringified (encoding/json rejects raw infinities).
func MarshalSnapshot(s Snapshot) ([]byte, error) {
	out := jsonSnapshot{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]jsonHistogram, len(s.Histograms)),
	}
	for name, h := range s.Histograms {
		jh := jsonHistogram{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			P50: h.P50, P95: h.P95, P99: h.P99,
		}
		for _, b := range h.Buckets {
			jb := jsonBucket{Count: b.Count, Exemplar: b.Exemplar}
			if math.IsInf(b.Upper, 1) {
				jb.Upper = "+Inf"
			} else {
				jb.Upper = b.Upper
			}
			jh.Buckets = append(jh.Buckets, jb)
		}
		out.Histograms[name] = jh
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalSnapshot decodes JSON produced by MarshalSnapshot.
func UnmarshalSnapshot(b []byte) (Snapshot, error) {
	var in jsonSnapshot
	if err := json.Unmarshal(b, &in); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	s := Snapshot{
		Counters:   in.Counters,
		Gauges:     in.Gauges,
		Histograms: make(map[string]HistogramSnapshot, len(in.Histograms)),
	}
	for name, jh := range in.Histograms {
		h := HistogramSnapshot{
			Count: jh.Count, Sum: jh.Sum, Min: jh.Min, Max: jh.Max,
			P50: jh.P50, P95: jh.P95, P99: jh.P99,
		}
		for _, jb := range jh.Buckets {
			b := BucketCount{Count: jb.Count, Exemplar: jb.Exemplar}
			switch u := jb.Upper.(type) {
			case float64:
				b.Upper = u
			case string:
				b.Upper = math.Inf(1)
			}
			h.Buckets = append(h.Buckets, b)
		}
		s.Histograms[name] = h
	}
	return s, nil
}

// SortedNames returns the metric names of a kind in sorted order, for
// deterministic rendering.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
