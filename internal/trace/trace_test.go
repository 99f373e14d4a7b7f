package trace

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// captureRecorder collects spans and anomaly marks in call order.
type captureRecorder struct {
	spans []Span
	marks map[string]string
}

func (c *captureRecorder) Record(s Span) { c.spans = append(c.spans, s) }

func (c *captureRecorder) MarkAnomalous(traceID, reason string) {
	if c.marks == nil {
		c.marks = make(map[string]string)
	}
	c.marks[traceID] = reason
}

func newTestTracer(rec Recorder) (*Tracer, *int64) {
	now := new(int64)
	return New(rec, "test",
		WithRand(rand.New(rand.NewSource(1))),
		WithClock(func() int64 { return *now }),
	), now
}

// attr returns the value for key ("" when absent).
func attr(a Attrs, key string) string {
	for _, kv := range a {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.StartRoot("x", KindEpoch)
	if sp != nil {
		t.Fatal("nil tracer returned span")
	}
	// every ActiveSpan method must tolerate nil
	sp.SetAttr("k", "v")
	sp.SetErr(errors.New("boom"))
	sp.SetErrString("boom")
	sp.MarkAnomalous("degraded")
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span has valid context")
	}
	tr.MarkAnomalous("abc", "degraded")
}

func TestNewNilRecorderYieldsNilTracer(t *testing.T) {
	if New(nil, "n") != nil {
		t.Fatal("New(nil, ...) should return nil tracer")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	rec := &captureRecorder{}
	tr, now := newTestTracer(rec)

	root := tr.StartRoot("epoch", KindEpoch)
	rctx := root.Context()
	if !rctx.Valid() {
		t.Fatal("root context invalid")
	}
	if len(rctx.TraceID) != 32 || len(rctx.SpanID) != 16 {
		t.Fatalf("want 16-byte trace id and 8-byte span id hex, got %q %q", rctx.TraceID, rctx.SpanID)
	}

	*now = 10
	child := tr.Start(rctx, "collect", KindCollect)
	child.SetAttr("replica", "dc3")
	child.SetErr(errors.New("link down"))
	*now = 25
	child.End()
	*now = 40
	root.End()

	if len(rec.spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(rec.spans))
	}
	c, r := rec.spans[0], rec.spans[1]
	if c.TraceID != r.TraceID {
		t.Fatal("child and root trace ids differ")
	}
	if c.ParentID != r.SpanID {
		t.Fatalf("child parent %q != root span %q", c.ParentID, r.SpanID)
	}
	if !r.Root() || c.Root() {
		t.Fatal("Root() misclassifies spans")
	}
	if c.StartNs != 10 || c.DurNs != 15 {
		t.Fatalf("child timing start=%d dur=%d", c.StartNs, c.DurNs)
	}
	if r.DurNs != 40 {
		t.Fatalf("root dur %d", r.DurNs)
	}
	if attr(c.Attrs, "replica") != "dc3" || c.Err != "link down" {
		t.Fatalf("child attrs/err: %+v", c)
	}
	if c.Node != "test" {
		t.Fatalf("node %q", c.Node)
	}
}

func TestStartInvalidParentIsNoop(t *testing.T) {
	rec := &captureRecorder{}
	tr, _ := newTestTracer(rec)
	if sp := tr.Start(SpanContext{}, "x", KindServer); sp != nil {
		t.Fatal("invalid parent should give nil span")
	}
	if len(rec.spans) != 0 {
		t.Fatal("no-op span recorded")
	}
}

func TestEndIdempotentAndAnomalyForwarded(t *testing.T) {
	rec := &captureRecorder{}
	tr, _ := newTestTracer(rec)
	sp := tr.StartRoot("epoch", KindEpoch)
	sp.MarkAnomalous("degraded")
	sp.End()
	sp.End()
	if len(rec.spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(rec.spans))
	}
	if rec.marks[rec.spans[0].TraceID] != "degraded" {
		t.Fatalf("anomaly not forwarded: %v", rec.marks)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	rec := &captureRecorder{}
	tr, now := newTestTracer(rec)
	*now = 100
	sp := tr.StartRoot("epoch", KindEpoch)
	*now = 50 // clock went backwards
	sp.End()
	if rec.spans[0].DurNs != 0 {
		t.Fatalf("negative duration not clamped: %d", rec.spans[0].DurNs)
	}
}

func TestContextPropagation(t *testing.T) {
	if FromContext(context.Background()).Valid() {
		t.Fatal("empty context yields valid span context")
	}
	sc := SpanContext{TraceID: "t", SpanID: "s"}
	ctx := NewContext(context.Background(), sc)
	if got := FromContext(ctx); got != sc {
		t.Fatalf("round trip: %+v", got)
	}
	// invalid contexts are not stored
	ctx2 := NewContext(context.Background(), SpanContext{TraceID: "only"})
	if FromContext(ctx2).Valid() {
		t.Fatal("invalid context stored")
	}

	rec := &captureRecorder{}
	tr, _ := newTestTracer(rec)
	sp := tr.StartRoot("epoch", KindEpoch)
	ctx3 := ContextWithSpan(context.Background(), sp)
	if FromContext(ctx3) != sp.Context() {
		t.Fatal("ContextWithSpan mismatch")
	}
	if got := FromContext(ContextWithSpan(context.Background(), nil)); got.Valid() {
		t.Fatal("nil span produced valid context")
	}
}

func TestSyntheticIDs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tid, sid := NewTraceID(r), NewSpanID(r)
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id lengths %d %d", len(tid), len(sid))
	}
	r2 := rand.New(rand.NewSource(7))
	if NewTraceID(r2) != tid {
		t.Fatal("seeded trace IDs not deterministic")
	}
}

func TestTracerDeterministicWithSeed(t *testing.T) {
	mk := func() []Span {
		rec := &captureRecorder{}
		tr, now := newTestTracer(rec)
		root := tr.StartRoot("epoch", KindEpoch)
		*now = 5
		ch := tr.Start(root.Context(), "collect", KindCollect)
		*now = 9
		ch.End()
		root.End()
		return rec.spans
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("span counts differ")
	}
	for i := range a {
		if a[i].TraceID != b[i].TraceID || a[i].SpanID != b[i].SpanID {
			t.Fatalf("seeded runs diverge at span %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
