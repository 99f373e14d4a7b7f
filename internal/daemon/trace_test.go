package daemon

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
)

func startTracedNode(t *testing.T, id int) (*Node, *trace.FlightRecorder) {
	t.Helper()
	rec := trace.NewFlightRecorder(16, 8)
	n, err := NewNode(Config{ID: id, MicroClusters: 8, Dims: 2, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, rec
}

// TestTraceRPCExportsServerSpans drives a traced read and checks the
// daemon's trace RPC returns the server-side leg of the tree.
func TestTraceRPCExportsServerSpans(t *testing.T) {
	n, _ := startTracedNode(t, 3)
	if err := n.store.Put(store.Object{ID: "obj", Data: []byte("v"), Version: 1}); err != nil {
		t.Fatal(err)
	}

	cliRec := trace.NewFlightRecorder(16, 8)
	tr := trace.New(cliRec, "coord", trace.WithRand(rand.New(rand.NewSource(1))))
	c, err := DialNode(n.Addr(), 2*time.Second,
		transport.WithCallTimeout(2*time.Second), transport.WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := tr.StartRoot("epoch", trace.KindEpoch)
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, _, err := c.GetCtx(ctx, 0, []float64{1, 2}, "obj"); err != nil {
		t.Fatal(err)
	}
	root.End()

	traces, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].TraceID != root.Context().TraceID {
		t.Fatalf("daemon traces: %+v", traces)
	}
	var serve *trace.Span
	for i, s := range traces[0].Spans {
		if s.Name == "serve.get" {
			serve = &traces[0].Spans[i]
		}
	}
	if serve == nil {
		t.Fatalf("no serve.get span: %+v", traces[0].Spans)
	}
	if serve.Node != "node3" {
		t.Fatalf("server span node %q", serve.Node)
	}
	// merged with the client side it must form one connected tree
	cli, _ := traceByID(cliRec, root.Context().TraceID)
	merged := trace.Merge([]trace.Trace{cli}, traces)
	if len(merged) != 1 || len(merged[0].Spans) != 4 {
		t.Fatalf("merged: %+v", merged)
	}
}

// TestTraceRPCWithoutRecorder: a node without a flight recorder answers
// the trace RPC with an empty list, not an error.
func TestTraceRPCWithoutRecorder(t *testing.T) {
	n, err := NewNode(Config{ID: 1, MicroClusters: 8, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := DialNode(n.Addr(), 2*time.Second, transport.WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	traces, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Fatalf("expected no traces, got %+v", traces)
	}
}

// TestFailoverTraced: a traced get against a dead node fails with the
// error on the hop's client span — the record a caller that picks another
// replica reads, since the client itself does not fail over.
func TestFailoverTraced(t *testing.T) {
	nDead, _ := startTracedNode(t, 0)
	rec := trace.NewFlightRecorder(16, 8)
	tr := trace.New(rec, "reader", trace.WithRand(rand.New(rand.NewSource(1))))
	// Dial while alive, then kill the node so the get fails.
	c, err := DialNode(nDead.Addr(), time.Second,
		transport.WithCallTimeout(300*time.Millisecond), transport.WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nDead.Close()

	root := tr.StartRoot("read", trace.KindEpoch)
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, _, err := c.GetCtx(ctx, 0, nil, "obj"); err == nil {
		t.Fatal("get from a dead node succeeded")
	}
	root.End()

	got, ok := traceByID(rec, root.Context().TraceID)
	if !ok {
		t.Fatal("trace missing")
	}
	var failedHop bool
	for _, s := range got.Spans {
		if s.Kind == trace.KindClient && s.ParentID == root.Context().SpanID && s.Err != "" {
			failedHop = true
		}
	}
	if !failedHop {
		t.Fatalf("failed hop not traced: %+v", got.Spans)
	}
}

// traceByID returns one trace retained by rec.
func traceByID(rec *trace.FlightRecorder, id string) (trace.Trace, bool) {
	for _, tr := range rec.Traces() {
		if tr.TraceID == id {
			return tr, true
		}
	}
	return trace.Trace{}, false
}
