package trace

import (
	"sort"
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
		e = &entry{}
		f.traces[s.TraceID] = e
		f.order = append(f.order, orderEnt{id: s.TraceID})
		f.plain++
	}
	if len(e.spans) < f.maxSpans {
		e.spans = append(e.spans, s)
	}
	if s.Root() {
		if len(f.durs) >= minP99Samples && s.DurNs > f.p99Locked() && e.anomaly == "" {
			e.anomaly = "latency_above_p99"
			f.flipLocked(s.TraceID)
			reclass = true
		}
		f.durs = append(f.durs, s.DurNs)
		f.insertDurLocked(s.DurNs)
		for len(f.durs) > f.maxDurs {
			f.removeDurLocked(f.durs[0])
			f.durs = f.durs[1:]
		}
	}
	if reclass {
		f.evictLocked()
	}
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
	if e, ok := f.traces[traceID]; ok && e.anomaly == "" {
		e.anomaly = reason
		f.flipLocked(traceID)
		f.evictLocked()
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
	if e, ok := f.traces[id]; ok && e.anomaly == "" {
		e.anomaly = reason
		f.flipLocked(id)
		f.evictLocked()
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
// class. The class counts are maintained incrementally and each order
// entry carries its class bit, so the common steady-state call (one new
// trace, one eviction) walks to the oldest trace of the over-budget
// class without a single map lookup. Caller holds f.mu.
func (f *FlightRecorder) evictLocked() {
	evict := func(anomalous bool) {
		for i, oe := range f.order {
			if oe.anom == anomalous {
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
