package trace

import (
	"sort"
	"strings"
	"sync"
)

// Trace is one assembled span tree.
type Trace struct {
	TraceID string `json:"trace_id"`
	// Anomaly is why the trace was pinned ("" for plain recent traces):
	// "degraded", "below_quorum", "migrated", "latency_above_p99", ...
	Anomaly string `json:"anomaly,omitempty"`
	Spans   []Span `json:"spans"`
}

// FlightRecorder is a bounded, concurrency-safe store of recent span
// trees. Two retention classes share it:
//
//   - recent: the last `recent` traces, evicted oldest-first as new
//     traces arrive — the rolling "what just happened" window.
//   - anomalous: traces marked anomalous (degraded epoch, below-quorum
//     refusal, executed migration, root latency above the rolling p99)
//     survive recent eviction in their own bounded set, so the epochs
//     worth debugging are still there after a busy hour of boring ones.
//
// Spans may arrive for a trace in any order and from many goroutines;
// per-trace span counts are capped so a runaway loop cannot hold the
// process's memory hostage.
type FlightRecorder struct {
	mu        sync.Mutex
	traces    map[string]*entry
	order     []orderEnt // insertion order of trace IDs (for eviction)
	recent    int
	anomalous int
	maxSpans  int

	// rolling window of root-span durations for the p99 anomaly rule,
	// kept twice: arrival order for eviction, sorted for O(log n)
	// percentile reads on the Record hot path.
	durs       []int64
	sortedDurs []int64
	maxDurs    int

	// retained trace counts per class, maintained incrementally so the
	// per-span Record path never rescans f.order to know whether a
	// budget is over.
	plain int
	anom  int

	// free holds evicted entries, span buffers included, for the next new
	// traces. Nothing outside the recorder references an entry (Traces
	// copies), so an evicted one is free the moment it leaves retention.
	// Every new trace takes one and every eviction returns one, so in
	// steady state the list holds one or two.
	free []*entry
}

type entry struct {
	spans   []Span
	anomaly string
}

// orderEnt mirrors one retained trace in eviction order. The class bit
// lives here as well as in the entry so the eviction scan never needs a
// map lookup per skipped trace.
type orderEnt struct {
	id   string
	anom bool
}

// Retention defaults.
const (
	DefaultRecent    = 64
	DefaultAnomalous = 32
	defaultMaxSpans  = 512
	defaultMaxDurs   = 256
	minP99Samples    = 32
)

// NewFlightRecorder returns a recorder keeping the last `recent` traces
// plus up to `anomalous` pinned anomalous traces (non-positive values
// take the defaults).
func NewFlightRecorder(recent, anomalous int) *FlightRecorder {
	if recent <= 0 {
		recent = DefaultRecent
	}
	if anomalous <= 0 {
		anomalous = DefaultAnomalous
	}
	return &FlightRecorder{
		traces:    make(map[string]*entry),
		recent:    recent,
		anomalous: anomalous,
		maxSpans:  defaultMaxSpans,
		maxDurs:   defaultMaxDurs,
	}
}

// Record adds one completed span to its trace, creating the trace on
// first sight and evicting the oldest retained trace of the relevant
// class when over budget. Root spans feed the rolling p99 window; a
// root slower than the current p99 pins its trace as anomalous.
func (f *FlightRecorder) Record(s Span) {
	if f == nil || s.TraceID == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.traces[s.TraceID]
	reclass := !ok // a new trace or a class flip can push a budget over
	if !ok {
		e = f.takeEntryLocked(1)
		f.traces[s.TraceID] = e
		f.order = append(f.order, orderEnt{id: s.TraceID})
		f.plain++
	}
	if len(e.spans) < f.maxSpans {
		e.spans = append(e.spans, s)
	}
	if s.Root() && f.rootLocked(e, s) {
		reclass = true
	}
	if reclass {
		f.evictLocked()
	}
}

// rootLocked feeds a root span's duration to the rolling p99 window and
// pins its trace when the root is slower than the current p99,
// reporting whether it did. Caller holds f.mu.
func (f *FlightRecorder) rootLocked(e *entry, s Span) bool {
	pinned := false
	if len(f.durs) >= minP99Samples && s.DurNs > f.p99Locked() && e.anomaly == "" {
		e.anomaly = "latency_above_p99"
		f.flipLocked(s.TraceID)
		pinned = true
	}
	f.durs = append(f.durs, s.DurNs)
	f.insertDurLocked(s.DurNs)
	for len(f.durs) > f.maxDurs {
		f.removeDurLocked(f.durs[0])
		f.durs = f.durs[1:]
	}
	return pinned
}

// takeEntryLocked returns an empty entry for a new trace of n spans: an
// evicted one when the recorder has any, else a new one sized for n.
// Caller holds f.mu.
func (f *FlightRecorder) takeEntryLocked(n int) *entry {
	if k := len(f.free); k > 0 {
		e := f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
		e.anomaly = ""
		return e
	}
	if n <= 1 {
		return &entry{}
	}
	return &entry{spans: make([]Span, 0, n)}
}

// recycleLocked empties an entry that left retention onto the free
// list. Clearing the used spans drops their strings and attribute
// lists, so a free entry pins no tree block. The anomaly reason stays
// until the entry is taken again: a tree whose own pin evicted it still
// holds the entry for its remaining steps, and a set reason keeps those
// from pinning a trace that is gone. Caller holds f.mu.
func (f *FlightRecorder) recycleLocked(e *entry) {
	clear(e.spans)
	e.spans = e.spans[:0]
	f.free = append(f.free, e)
}

// recordTree takes a locally rooted tree whole when its root ends: the
// ended children in end order, then root; the first anomaly reason a
// child carried and the root's own, last. Retention runs the steps it
// would have run had each span arrived on its own — the trace enters on
// its first span, a child's reason pins it, the root feeds the p99
// window, the root's reason pins it — so a tree is retained exactly as a
// span-by-span trace whose early spans nothing evicted.
func (f *FlightRecorder) recordTree(t *openTree, root Span, last string) {
	// The children whose IDs nothing rendered share one string.
	var ids strings.Builder
	for c := t.first; c != nil; c = c.next {
		if c.s.SpanID == "" {
			if ids.Cap() == 0 {
				ids.Grow(16 * t.n)
			}
			var buf [16]byte
			ids.Write(appendSpanID(buf[:0], c.id))
		}
	}
	rendered := ids.String()

	id := root.TraceID
	f.mu.Lock()
	defer f.mu.Unlock()
	// Spans recorded on their own (a remote child) may have got here
	// first.
	e, ok := f.traces[id]
	if !ok {
		e = f.takeEntryLocked(t.n + 1)
	}
	for c := t.first; c != nil && len(e.spans) < f.maxSpans; c = c.next {
		s := c.s
		if len(s.Attrs) == 0 {
			s.Attrs = nil
		}
		if s.SpanID == "" {
			s.SpanID, rendered = rendered[:16], rendered[16:]
		}
		e.spans = append(e.spans, s)
	}
	if len(e.spans) < f.maxSpans {
		e.spans = append(e.spans, root)
	}
	if !ok {
		f.traces[id] = e
		f.order = append(f.order, orderEnt{id: id})
		f.plain++
		f.evictLocked()
	}
	f.pinLocked(id, e, t.anomaly)
	if f.rootLocked(e, root) {
		f.evictLocked()
	}
	f.pinLocked(id, e, last)
}

// pinLocked marks a retained trace anomalous unless it already is (the
// first reason wins). Caller holds f.mu.
func (f *FlightRecorder) pinLocked(id string, e *entry, reason string) {
	if reason == "" || e.anomaly != "" {
		return
	}
	e.anomaly = reason
	f.flipLocked(id)
	f.evictLocked()
}

// p99Locked estimates the 99th percentile of the rolling root-duration
// window. Caller holds f.mu.
func (f *FlightRecorder) p99Locked() int64 {
	idx := (len(f.sortedDurs)*99 + 99) / 100
	if idx > len(f.sortedDurs) {
		idx = len(f.sortedDurs)
	}
	if idx < 1 {
		idx = 1
	}
	return f.sortedDurs[idx-1]
}

// insertDurLocked adds v to the sorted window. Caller holds f.mu.
func (f *FlightRecorder) insertDurLocked(v int64) {
	i := sort.Search(len(f.sortedDurs), func(i int) bool { return f.sortedDurs[i] >= v })
	f.sortedDurs = append(f.sortedDurs, 0)
	copy(f.sortedDurs[i+1:], f.sortedDurs[i:])
	f.sortedDurs[i] = v
}

// removeDurLocked drops one occurrence of v from the sorted window.
// Caller holds f.mu.
func (f *FlightRecorder) removeDurLocked(v int64) {
	i := sort.Search(len(f.sortedDurs), func(i int) bool { return f.sortedDurs[i] >= v })
	if i < len(f.sortedDurs) && f.sortedDurs[i] == v {
		f.sortedDurs = append(f.sortedDurs[:i], f.sortedDurs[i+1:]...)
	}
}

// MarkAnomalous pins a trace with a reason. The first reason wins;
// unknown trace IDs are ignored (the trace may already be evicted).
func (f *FlightRecorder) MarkAnomalous(traceID, reason string) {
	if f == nil || traceID == "" || reason == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.traces[traceID]; ok {
		f.pinLocked(traceID, e, reason)
	}
}

// PinLatest pins the most recently retained trace with a reason and
// returns its ID ("" when the recorder is empty or nil). This is the
// SLO hook: a burn-rate state transition cannot name a single request,
// but the current epoch's span tree is the right thing to keep, so the
// alert points at what the system was doing when the budget tipped.
// Already-anomalous traces keep their first reason but still count as
// the pin target.
func (f *FlightRecorder) PinLatest(reason string) string {
	if f == nil || reason == "" {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return ""
	}
	id := f.order[len(f.order)-1].id
	if e, ok := f.traces[id]; ok {
		f.pinLocked(id, e, reason)
	}
	return id
}

// flipLocked reclassifies one retained trace plain -> anomalous in the
// class counts and the eviction order. The scan runs newest-first:
// traces flip at or near their root span, so the entry is almost always
// within a few slots of the tail. Caller holds f.mu.
func (f *FlightRecorder) flipLocked(traceID string) {
	f.plain--
	f.anom++
	for i := len(f.order) - 1; i >= 0; i-- {
		if f.order[i].id == traceID {
			f.order[i].anom = true
			return
		}
	}
}

// evictLocked enforces both retention budgets, oldest-first within each
// class, recycling each evicted entry. The class counts are maintained
// incrementally and each order entry carries its class bit, so the
// common steady-state call (one new trace, one eviction) walks to the
// oldest trace of the over-budget class without a single map lookup.
// Caller holds f.mu.
func (f *FlightRecorder) evictLocked() {
	evict := func(anomalous bool) {
		for i, oe := range f.order {
			if oe.anom == anomalous {
				f.recycleLocked(f.traces[oe.id])
				delete(f.traces, oe.id)
				f.order = append(f.order[:i], f.order[i+1:]...)
				return
			}
		}
	}
	for f.plain > f.recent {
		evict(false)
		f.plain--
	}
	for f.anom > f.anomalous {
		evict(true)
		f.anom--
	}
}

// Len returns how many traces are currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.order)
}

// Traces returns every retained trace, oldest-first, spans in recorded
// order. The result is a deep-enough copy: callers may sort and filter
// freely.
func (f *FlightRecorder) Traces() []Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Trace, 0, len(f.order))
	for _, oe := range f.order {
		e := f.traces[oe.id]
		out = append(out, Trace{
			TraceID: oe.id,
			Anomaly: e.anomaly,
			Spans:   append([]Span(nil), e.spans...),
		})
	}
	return out
}
