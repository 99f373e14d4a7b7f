package trace

import (
	"fmt"
	"sync"
	"testing"
)

func span(traceID, spanID, parentID string, start, dur int64) Span {
	return Span{TraceID: traceID, SpanID: spanID, ParentID: parentID, Name: "s", StartNs: start, DurNs: dur}
}

// byID returns one retained trace by ID.
func byID(f *FlightRecorder, id string) (Trace, bool) {
	for _, tr := range f.Traces() {
		if tr.TraceID == id {
			return tr, true
		}
	}
	return Trace{}, false
}

// anomalous returns only the pinned traces, oldest-first.
func anomalous(f *FlightRecorder) []Trace {
	var out []Trace
	for _, tr := range f.Traces() {
		if tr.Anomaly != "" {
			out = append(out, tr)
		}
	}
	return out
}

func TestFlightRecorderRetainsAndEvictsOldestFirst(t *testing.T) {
	f := NewFlightRecorder(3, 2)
	for i := 0; i < 5; i++ {
		f.Record(span(fmt.Sprintf("t%d", i), "a", "", int64(i), 1))
	}
	traces := f.Traces()
	if len(traces) != 3 {
		t.Fatalf("retained %d, want 3", len(traces))
	}
	for i, want := range []string{"t2", "t3", "t4"} {
		if traces[i].TraceID != want {
			t.Fatalf("slot %d = %s, want %s (oldest-first eviction broken)", i, traces[i].TraceID, want)
		}
	}
}

func TestAnomalousTracesSurviveRecentEviction(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	f.Record(span("bad", "a", "", 0, 1))
	f.MarkAnomalous("bad", "degraded")
	for i := 0; i < 10; i++ {
		f.Record(span(fmt.Sprintf("ok%d", i), "a", "", int64(i+1), 1))
	}
	got, ok := byID(f, "bad")
	if !ok {
		t.Fatal("anomalous trace evicted by recent churn")
	}
	if got.Anomaly != "degraded" {
		t.Fatalf("anomaly = %q", got.Anomaly)
	}
	anom := anomalous(f)
	if len(anom) != 1 || anom[0].TraceID != "bad" {
		t.Fatalf("Anomalous() = %+v", anom)
	}
}

func TestAnomalousBudgetEvictsOldestAnomalous(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("a%d", i)
		f.Record(span(id, "s", "", int64(i), 1))
		f.MarkAnomalous(id, "degraded")
	}
	if _, ok := byID(f, "a0"); ok {
		t.Fatal("oldest anomalous trace should be evicted")
	}
	if _, ok := byID(f, "a3"); !ok {
		t.Fatal("newest anomalous trace missing")
	}
	if len(anomalous(f)) != 2 {
		t.Fatalf("anomalous count %d", len(anomalous(f)))
	}
}

func TestFirstAnomalyReasonWins(t *testing.T) {
	f := NewFlightRecorder(4, 4)
	f.Record(span("t", "a", "", 0, 1))
	f.MarkAnomalous("t", "below_quorum")
	f.MarkAnomalous("t", "migrated")
	got, _ := byID(f, "t")
	if got.Anomaly != "below_quorum" {
		t.Fatalf("anomaly = %q, want first reason", got.Anomaly)
	}
}

func TestPerTraceSpanCap(t *testing.T) {
	f := NewFlightRecorder(4, 4)
	f.maxSpans = 3
	for i := 0; i < 10; i++ {
		f.Record(span("t", fmt.Sprintf("s%d", i), "root", int64(i), 1))
	}
	got, _ := byID(f, "t")
	if len(got.Spans) != 3 {
		t.Fatalf("span cap: kept %d", len(got.Spans))
	}
}

func TestRollingP99MarksSlowRoots(t *testing.T) {
	f := NewFlightRecorder(256, 16)
	// Fill the window with fast roots, then record one pathological root.
	for i := 0; i < minP99Samples+10; i++ {
		f.Record(span(fmt.Sprintf("fast%d", i), "r", "", int64(i), 10))
	}
	f.Record(span("slow", "r", "", 1000, 10_000_000))
	got, ok := byID(f, "slow")
	if !ok {
		t.Fatal("slow trace missing")
	}
	if got.Anomaly != "latency_above_p99" {
		t.Fatalf("anomaly = %q, want latency_above_p99", got.Anomaly)
	}
	// A fast root in a fresh window must NOT be marked.
	if tr, _ := byID(f, "fast5"); tr.Anomaly != "" {
		t.Fatalf("fast trace marked anomalous: %q", tr.Anomaly)
	}
}

func TestP99NotAppliedBeforeMinSamples(t *testing.T) {
	f := NewFlightRecorder(64, 16)
	f.Record(span("a", "r", "", 0, 1))
	f.Record(span("b", "r", "", 1, 1_000_000))
	if tr, _ := byID(f, "b"); tr.Anomaly != "" {
		t.Fatalf("p99 rule fired with %d samples", 2)
	}
}

func TestMarkUnknownTraceIgnored(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	f.MarkAnomalous("ghost", "degraded") // must not panic or create an entry
	if f.Len() != 0 {
		t.Fatal("mark created a trace")
	}
}

func TestNilFlightRecorderSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(span("t", "s", "", 0, 1))
	f.MarkAnomalous("t", "x")
	if f.Len() != 0 || f.Traces() != nil {
		t.Fatal("nil recorder not inert")
	}
}

// TestConcurrentWritersEvictionOrder hammers the recorder from many
// goroutines (run with -race) and then checks the retained window is
// exactly the highest trace IDs in insertion order per class — eviction
// must stay oldest-first even under interleaved writers and markers.
func TestConcurrentWritersEvictionOrder(t *testing.T) {
	const (
		writers   = 8
		perWriter = 200
	)
	f := NewFlightRecorder(16, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				f.Record(span(id, "root", "", int64(i), 5))
				f.Record(span(id, "child", "root", int64(i), 2))
				if i%17 == 0 {
					f.MarkAnomalous(id, "degraded")
				}
			}
		}(w)
	}
	wg.Wait()

	traces := f.Traces()
	plain, anom := 0, 0
	for _, tr := range traces {
		if tr.Anomaly != "" {
			anom++
		} else {
			plain++
		}
		if len(tr.Spans) == 0 || len(tr.Spans) > 2 {
			t.Fatalf("trace %s has %d spans", tr.TraceID, len(tr.Spans))
		}
	}
	if plain > 16 || anom > 8 {
		t.Fatalf("budgets exceeded: plain=%d anom=%d", plain, anom)
	}
	if plain != 16 {
		t.Fatalf("plain window not full: %d", plain)
	}
	// Traces() is insertion-ordered; per-writer IDs must appear in
	// ascending i order since each writer inserts sequentially.
	lastSeen := make(map[string]int)
	for _, tr := range traces {
		var w, i int
		if _, err := fmt.Sscanf(tr.TraceID, "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad id %q", tr.TraceID)
		}
		key := fmt.Sprintf("w%d", w)
		if prev, ok := lastSeen[key]; ok && i < prev {
			t.Fatalf("writer %d order inverted: %d after %d", w, i, prev)
		}
		lastSeen[key] = i
	}
}
