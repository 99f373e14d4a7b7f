package transport

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/georep/georep/internal/trace"
)

func startEchoServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	srv := NewServer(opts...)
	if err := srv.HandleTimed("echo", func(b []byte) ([]byte, error) { return b, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func testTracer(node string) (*trace.FlightRecorder, *trace.Tracer) {
	rec := trace.NewFlightRecorder(16, 8)
	return rec, trace.New(rec, node, trace.WithRand(rand.New(rand.NewSource(1))))
}

// TestSpanPropagationAcrossWire checks a traced call assembles one tree
// across both processes: client rpc span → attempt span → server span,
// all sharing the trace ID minted at the client root.
func TestSpanPropagationAcrossWire(t *testing.T) {
	srvRec, srvTr := testTracer("srv")
	srv := startEchoServer(t, WithServerTracer(srvTr))

	cliRec, cliTr := testTracer("cli")
	c, err := Dial(srv.Addr().String(), 2*time.Second,
		WithCallTimeout(2*time.Second), WithClientTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := cliTr.StartRoot("epoch", trace.KindEpoch)
	ctx := trace.ContextWithSpan(context.Background(), root)
	var out raw
	if _, err := c.CallContext(ctx, "echo", raw("x"), &out); err != nil {
		t.Fatal(err)
	}
	root.End()
	traceID := root.Context().TraceID

	cli, ok := traceByID(cliRec, traceID)
	if !ok {
		t.Fatal("client side missing")
	}
	srvSide, ok := traceByID(srvRec, traceID)
	if !ok {
		t.Fatal("server side missing: trace context did not cross the wire")
	}
	merged := trace.Merge([]trace.Trace{cli}, []trace.Trace{srvSide})
	if len(merged) != 1 {
		t.Fatalf("merged into %d traces", len(merged))
	}
	spans := merged[0].Spans
	if len(spans) != 4 { // root, rpc.echo, attempt 1, serve.echo
		t.Fatalf("span count %d: %+v", len(spans), spans)
	}
	byName := map[string]trace.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rpc, attempt, serve := byName["rpc.echo"], byName["attempt 1"], byName["serve.echo"]
	if rpc.ParentID != root.Context().SpanID {
		t.Fatal("rpc span not under root")
	}
	if attempt.ParentID != rpc.SpanID {
		t.Fatal("attempt span not under rpc span")
	}
	if serve.ParentID != attempt.SpanID {
		t.Fatalf("server span parent %q, want attempt %q", serve.ParentID, attempt.SpanID)
	}
	if serve.Node != "srv" || rpc.Node != "cli" {
		t.Fatalf("nodes: serve@%s rpc@%s", serve.Node, rpc.Node)
	}
}

// TestUntracedCallRecordsNothing: without a span in ctx, nothing is
// recorded on either side even with tracers installed.
func TestUntracedCallRecordsNothing(t *testing.T) {
	srvRec, srvTr := testTracer("srv")
	srv := startEchoServer(t, WithServerTracer(srvTr))
	cliRec, cliTr := testTracer("cli")
	c, err := Dial(srv.Addr().String(), 2*time.Second,
		WithCallTimeout(2*time.Second), WithClientTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out raw
	if _, err := c.Call("echo", raw("x"), &out); err != nil {
		t.Fatal(err)
	}
	if cliRec.Len() != 0 || srvRec.Len() != 0 {
		t.Fatalf("untraced call recorded spans: cli=%d srv=%d", cliRec.Len(), srvRec.Len())
	}
}

// TestRetryVisibleAsAttemptSpans drops the first delivery via fault
// injection and checks the trace shows two attempts: a failed first and
// a successful second, plus the server span for the retry that landed.
func TestRetryVisibleAsAttemptSpans(t *testing.T) {
	var calls atomic.Int64
	srvRec, srvTr := testTracer("srv")
	srv := startEchoServer(t,
		WithServerTracer(srvTr),
		WithServerFaults(func(method string) FaultAction {
			return FaultAction{Drop: calls.Add(1) == 1}
		}))

	cliRec, cliTr := testTracer("cli")
	c, err := Dial(srv.Addr().String(), 2*time.Second,
		WithCallTimeout(300*time.Millisecond),
		WithClientTracer(cliTr),
		WithIdempotent("echo"),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := cliTr.StartRoot("epoch", trace.KindEpoch)
	ctx := trace.ContextWithSpan(context.Background(), root)
	var out raw
	if _, err := c.CallContext(ctx, "echo", raw("x"), &out); err != nil {
		t.Fatal(err)
	}
	root.End()

	cli, _ := traceByID(cliRec, root.Context().TraceID)
	var attempts []trace.Span
	for _, s := range cli.Spans {
		if s.Kind == trace.KindAttempt {
			attempts = append(attempts, s)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("attempt spans: %+v", attempts)
	}
	var failed, succeeded bool
	for _, a := range attempts {
		if a.Err != "" {
			failed = true
		} else {
			succeeded = true
		}
	}
	if !failed || !succeeded {
		t.Fatalf("want one failed and one successful attempt: %+v", attempts)
	}
	// Server side: the dropped delivery and the served retry each have a
	// span; the drop names the fault.
	srvSide, ok := traceByID(srvRec, root.Context().TraceID)
	if !ok {
		t.Fatal("server side missing")
	}
	var droppedSpan bool
	for _, s := range srvSide.Spans {
		if s.Err == "fault injection: request dropped" {
			droppedSpan = true
		}
	}
	if !droppedSpan {
		t.Fatalf("fault drop not visible in server spans: %+v", srvSide.Spans)
	}
}

// TestConcurrentTracedClients exercises tracer use from many clients in
// parallel (run with -race).
func TestConcurrentTracedClients(t *testing.T) {
	srvRec, srvTr := testTracer("srv")
	srv := startEchoServer(t, WithServerTracer(srvTr))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, tr := testTracer("cli")
			c, err := Dial(srv.Addr().String(), 2*time.Second,
				WithCallTimeout(2*time.Second), WithClientTracer(tr))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				root := tr.StartRoot("epoch", trace.KindEpoch)
				ctx := trace.ContextWithSpan(context.Background(), root)
				var out raw
				if _, err := c.CallContext(ctx, "echo", raw("x"), &out); err != nil {
					t.Error(err)
				}
				root.End()
			}
		}()
	}
	wg.Wait()
	if srvRec.Len() == 0 {
		t.Fatal("no server traces recorded")
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
