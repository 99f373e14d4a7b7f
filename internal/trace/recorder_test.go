package trace

import (
	"fmt"
	"math/rand"
	"reflect"
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

// spanBySpan is a FlightRecorder a tracer does not recognise as one, so
// it records every span as it ends.
type spanBySpan struct{ f *FlightRecorder }

func (s spanBySpan) Record(sp Span)                       { s.f.Record(sp) }
func (s spanBySpan) MarkAnomalous(traceID, reason string) { s.f.MarkAnomalous(traceID, reason) }

// epochTree mints one epoch-shaped tree: a root, three collects, a
// k-means and a decide span.
func epochTree(tr *Tracer) *ActiveSpan {
	root := tr.StartRoot("epoch", KindEpoch)
	for _, name := range []string{"collect 0", "collect 1", "collect 2", "kmeans", "decide"} {
		tr.Start(root.Context(), name, KindCollect).End()
	}
	return root
}

// TestOpenTreesRetainedWhole opens more trees than the recorder retains
// before ending any root — the fleet's shape — and demands every
// retained trace whole, where span-by-span recording keeps fragments.
func TestOpenTreesRetainedWhole(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rec   func(*FlightRecorder) Recorder
		whole bool
	}{
		{"tree", func(f *FlightRecorder) Recorder { return f }, true},
		{"span-by-span", func(f *FlightRecorder) Recorder { return spanBySpan{f} }, false},
	} {
		f := NewFlightRecorder(4, 2)
		tr := New(tc.rec(f), "coord", WithRand(rand.New(rand.NewSource(1))))
		var roots []*ActiveSpan
		for i := 0; i < 20; i++ {
			roots = append(roots, epochTree(tr))
		}
		for i, root := range roots {
			if i%5 == 0 {
				root.MarkAnomalous("migrated")
			}
			root.End()
		}
		traces := f.Traces()
		if len(traces) != 6 {
			t.Fatalf("%s: retained %d traces, want 6", tc.name, len(traces))
		}
		whole := true
		for _, got := range traces {
			whole = whole && len(got.Spans) == 6 && got.Spans[5].Root()
		}
		if whole != tc.whole {
			t.Fatalf("%s: retained traces whole = %v, want %v", tc.name, whole, tc.whole)
		}
	}
}

// TestTreeRetentionMatchesSpanBySpan pins that handing a tree over whole
// changes nothing when trees do not overlap: the same traces, spans,
// order and anomaly reasons as recording span by span.
func TestTreeRetentionMatchesSpanBySpan(t *testing.T) {
	run := func(wrap func(*FlightRecorder) Recorder) []Trace {
		f := NewFlightRecorder(3, 2)
		now := int64(0)
		tr := New(wrap(f), "coord", WithRand(rand.New(rand.NewSource(1))), WithClock(func() int64 { now += 10; return now }))
		for i := 0; i < 60; i++ {
			root := epochTree(tr)
			switch {
			case i%7 == 0:
				root.MarkAnomalous("degraded")
			case i == 50:
				now += 1_000_000 // a slow root: pinned by the p99 rule
			}
			root.End()
		}
		return f.Traces()
	}
	tree := run(func(f *FlightRecorder) Recorder { return f })
	alone := run(func(f *FlightRecorder) Recorder { return spanBySpan{f} })
	if !reflect.DeepEqual(tree, alone) {
		t.Fatalf("whole-tree retention differs:\n%+v\n%+v", tree, alone)
	}
}

// TestTreeSpansOutsideTheTree covers the spans recorded on their own: a
// child whose parent arrived over the wire is recorded when it ends, and
// a child ending after its root joins the retained trace.
func TestTreeSpansOutsideTheTree(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	tr := New(f, "node1", WithRand(rand.New(rand.NewSource(1))))
	wire := SpanContext{TraceID: "remote", SpanID: "01"}
	tr.Start(wire, "serve", KindServer).End()
	if got, ok := byID(f, "remote"); !ok || len(got.Spans) != 1 {
		t.Fatalf("server span with a remote parent not recorded on its own: %+v", got)
	}

	root := tr.StartRoot("epoch", KindEpoch)
	late := tr.Start(root.Context(), "collect", KindCollect)
	root.End()
	late.End()
	if got, _ := byID(f, root.Context().TraceID); len(got.Spans) != 2 {
		t.Fatalf("late child lost: %+v", got.Spans)
	}
}

// TestTreeEvictedByItsOwnPin covers a tree whose trace entered earlier
// through a span recorded on its own: the child's reason pins it, which
// evicts it as the oldest anomalous trace, and the root's own reason
// must then pin nothing — neither the trace that is gone nor, through
// the recycled entry, the next new one.
func TestTreeEvictedByItsOwnPin(t *testing.T) {
	f := NewFlightRecorder(4, 1)
	tr := New(f, "coord", WithRand(rand.New(rand.NewSource(1))))
	root := tr.StartRoot("epoch", KindEpoch)
	rc := root.Context()
	f.Record(Span{TraceID: rc.TraceID, SpanID: "remote", ParentID: rc.SpanID, Name: "serve"})
	f.Record(span("b", "a", "", 0, 1))
	f.MarkAnomalous("b", "degraded")

	c := tr.Start(rc, "collect", KindCollect)
	c.MarkAnomalous("missing_summary")
	c.End()
	root.MarkAnomalous("migrated")
	root.End()
	for i := 0; i < 3; i++ {
		f.Record(span(fmt.Sprintf("t%d", i), "a", "", int64(i+1), 1))
	}

	var got []string
	for _, tr := range f.Traces() {
		got = append(got, tr.TraceID+":"+tr.Anomaly+":"+fmt.Sprint(len(tr.Spans)))
	}
	want := []string{"b:degraded:1", "t0::1", "t1::1", "t2::1"}
	if !reflect.DeepEqual(got, want) || f.Len() != len(want) {
		t.Fatalf("retained %v (Len %d), want %v", got, f.Len(), want)
	}
}

// TestTreeAddsNoAllocations pins that buffering a tree in its root costs
// no allocation over recording its spans one by one: the recorder keeps
// the root's buffer instead of growing its own.
func TestTreeAddsNoAllocations(t *testing.T) {
	allocs := func(rec func(*FlightRecorder) Recorder) float64 {
		tr := New(rec(NewFlightRecorder(4, 2)), "coord", WithRand(rand.New(rand.NewSource(1))))
		return testing.AllocsPerRun(200, func() { epochTree(tr).End() })
	}
	tree := allocs(func(f *FlightRecorder) Recorder { return f })
	alone := allocs(func(f *FlightRecorder) Recorder { return spanBySpan{f} })
	if tree > alone {
		t.Fatalf("a whole tree allocates %.0f times, span by span %.0f", tree, alone)
	}
}

// TestTreeOverCapKeepsFirstSpans ends more children than the per-trace
// cap before the root: nothing reaches the recorder while the root is
// open, and the retained trace holds the same first spans as recording
// span by span.
func TestTreeOverCapKeepsFirstSpans(t *testing.T) {
	run := func(wrap func(*FlightRecorder) Recorder) []Trace {
		f := NewFlightRecorder(4, 2)
		now := int64(0)
		tr := New(wrap(f), "coord", WithRand(rand.New(rand.NewSource(1))), WithClock(func() int64 { now += 10; return now }))
		root := tr.StartRoot("epoch", KindEpoch)
		for i := 0; i < defaultMaxSpans+40; i++ {
			child := tr.Start(root.Context(), fmt.Sprintf("collect %d", i), KindCollect)
			if i == defaultMaxSpans+10 {
				child.MarkAnomalous("degraded") // a dropped span still pins
			}
			child.End()
		}
		if _, isTree := wrap(f).(*FlightRecorder); isTree && f.Len() != 0 {
			t.Fatalf("%d traces recorded while the root was open", f.Len())
		}
		root.End()
		return f.Traces()
	}
	tree := run(func(f *FlightRecorder) Recorder { return f })
	if len(tree) != 1 || len(tree[0].Spans) != defaultMaxSpans || tree[0].Anomaly != "degraded" {
		t.Fatalf("over-cap tree retained as %d traces", len(tree))
	}
	if last := tree[0].Spans[defaultMaxSpans-1].Name; last != fmt.Sprintf("collect %d", defaultMaxSpans-1) {
		t.Fatalf("last kept span %q, want the cap's first spans", last)
	}
	if alone := run(func(f *FlightRecorder) Recorder { return spanBySpan{f} }); !reflect.DeepEqual(tree, alone) {
		t.Fatal("over-cap tree differs from span-by-span retention")
	}
}

// TestPinTraceOnOpenTree pins a tree while its root is open: the pin
// names the open tree, not the newest retained trace, and lands with it.
// A later pin keeps the first reason; a pin after the root ended goes to
// the recorder directly.
func TestPinTraceOnOpenTree(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	tr := New(f, "coord", WithRand(rand.New(rand.NewSource(1))))
	epochTree(tr).End()
	for _, children := range []int{0, 2} {
		root := tr.StartRoot("epoch", KindEpoch)
		for i := 0; i < children; i++ {
			tr.Start(root.Context(), "collect", KindCollect).End()
		}
		id := root.PinTrace("slo_page:avail")
		if id != root.Context().TraceID {
			t.Fatalf("PinTrace returned %q, want the open tree %q", id, root.Context().TraceID)
		}
		root.PinTrace("slo_page:lag")
		root.End()
		if got, _ := byID(f, id); got.Anomaly != "slo_page:avail" || len(got.Spans) != children+1 {
			t.Fatalf("%d children: pinned trace %+v", children, got)
		}
	}
	done := epochTree(tr)
	done.End()
	id := done.PinTrace("slo_page:avail")
	if got, _ := byID(f, id); got.Anomaly != "slo_page:avail" {
		t.Fatalf("pin after the root ended: %+v", got)
	}
}

// TestTreeConcurrentChildren starts, contexts and ends a tree's children
// from many goroutines, some after the root ended: every child is
// retained once with its own ID, and the ID a context handed out is the
// one recorded. Run under -race it checks the tree's locking.
func TestTreeConcurrentChildren(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	tr := New(f, "coord", WithRand(rand.New(rand.NewSource(1))))
	root := tr.StartRoot("epoch", KindEpoch)
	const children = 40
	ids := make([]string, children)
	var wg sync.WaitGroup
	for i := 0; i < children; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Start(root.Context(), "collect", KindCollect)
			sp.SetAttr("i", fmt.Sprint(i))
			if i%2 == 0 {
				ids[i] = sp.Context().SpanID
			}
			sp.End()
			if i%2 == 1 {
				ids[i] = sp.Context().SpanID
			}
		}(i)
		if i == children/2 {
			root.End()
		}
	}
	wg.Wait()
	got, _ := byID(f, root.Context().TraceID)
	if len(got.Spans) != children+1 {
		t.Fatalf("retained %d spans, want %d", len(got.Spans), children+1)
	}
	seen := make(map[string]bool)
	for _, s := range got.Spans {
		if seen[s.SpanID] {
			t.Fatalf("span ID %s recorded twice", s.SpanID)
		}
		seen[s.SpanID] = true
	}
	for i, id := range ids {
		if !seen[id] {
			t.Fatalf("child %d's context ID %s was not recorded", i, id)
		}
	}
}
