package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/trace"
)

// gobRequest/gobResponse are the envelope as a gob-era peer (the commit
// before frames) declares it.
type gobRequest struct {
	ID       uint64
	Method   string
	Body     []byte
	TraceID  string
	SpanID   string
	ParentID string
}

type gobResponse struct {
	ID      uint64
	Err     string
	Body    []byte
	TraceID string
	SpanID  string
}

// wantServed checks how many requests the server has served. The server
// reads nothing but frames, so every served request was one.
func wantServed(t *testing.T, reg *metrics.Registry, n int64, when string) {
	t.Helper()
	if got := reg.Snapshot().Counters["transport_server_requests_total"]; got != n {
		t.Fatalf("%s: server served %d requests, want %d", when, got, n)
	}
}

// wantFraming is wantServed(later+first): first counts the calls that
// opened a connection, later the calls after them.
func wantFraming(t *testing.T, reg *metrics.Registry, later, first int64, when string) {
	t.Helper()
	wantServed(t, reg, later+first, when)
}

// syncBuffer is a log sink the server's connection goroutines may write
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGobEraClientAgainstFramingServer: a client that speaks the gob
// envelope is refused on its first byte. The server hangs up at once,
// without a reply, logs the malformed frame, serves nothing, and keeps
// serving framed clients.
func TestGobEraClientAgainstFramingServer(t *testing.T) {
	reg := metrics.NewRegistry()
	var logs syncBuffer
	srv := startEchoServer(t, WithMetrics(reg),
		WithServerLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	for _, traced := range []bool{false, true} {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		req := gobRequest{ID: 1, Method: "echo", Body: []byte("gob era")}
		if traced {
			req.TraceID, req.SpanID = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"
		}
		start := time.Now()
		if err := gob.NewEncoder(conn).Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp gobResponse
		err = gob.NewDecoder(conn).Decode(&resp)
		if err == nil {
			t.Fatalf("traced=%v: a gob envelope was answered: %+v", traced, resp)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) || time.Since(start) > time.Second {
			t.Fatalf("traced=%v: the server held the connection for %v (%v)", traced, time.Since(start), err)
		}
		conn.Close()
	}
	wantServed(t, reg, 0, "gob envelopes")
	if got := logs.String(); strings.Count(got, "level=WARN msg=\"malformed frame, connection dropped\"") != 2 ||
		!strings.Contains(got, "first byte 0x") {
		t.Fatalf("server log:\n%s", got)
	}

	c, err := Dial(srv.Addr().String(), time.Second, WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out raw
	if _, err := c.Call("echo", raw("framed"), &out); err != nil || string(out) != "framed" {
		t.Fatalf("framed client after the gob-era ones: %q, %v", out, err)
	}
	wantServed(t, reg, 1, "one framed call")
}

// gobEraServer is a test double of the serve loop as it was before
// frames: one gob decoder straight on the connection, gob replies. A
// frame on its stream is a corrupt gob message and ends the connection,
// as it would on a real old node.
type gobEraServer struct {
	ln     net.Listener
	served atomic.Int64
	conns  atomic.Int64
}

func startGobEraServer(t *testing.T) *gobEraServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &gobEraServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go func() {
				defer conn.Close()
				dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
				for {
					var req gobRequest
					if err := dec.Decode(&req); err != nil {
						return
					}
					s.served.Add(1)
					if err := enc.Encode(gobResponse{ID: req.ID, Body: req.Body, TraceID: req.TraceID}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

// TestFramingClientAgainstGobEraServer: the client's first call is a
// frame, which a gob-era server cannot read. The call fails promptly —
// the old server hangs up, no deadline has to fire — on the first
// attempt and on its retry over a fresh connection, and nothing is
// served.
func TestFramingClientAgainstGobEraServer(t *testing.T) {
	srv := startGobEraServer(t)
	reg := metrics.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), 2*time.Second,
		WithCallTimeout(5*time.Second), WithClientMetrics(reg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterFrac: 0}),
		WithIdempotent("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var out raw
	if _, err := c.Call("echo", raw("1"), &out); err == nil {
		t.Fatalf("a gob-era server answered a frame: %q", out)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the failed call took %v; it waited for a deadline", d)
	}
	snap := reg.Snapshot()
	if srv.served.Load() != 0 || srv.conns.Load() != 2 || snap.Counters["transport_client_redials_total"] != 1 ||
		snap.Counters["transport_client_timeouts_total"] != 0 {
		t.Fatalf("served %d over %d connections, redials %d, timeouts %d; want 0 over 2, 1, 0",
			srv.served.Load(), srv.conns.Load(), snap.Counters["transport_client_redials_total"],
			snap.Counters["transport_client_timeouts_total"])
	}
}

// TestFramedFromFirstExchange: every exchange is a frame — the first of
// a connection, those after a forced break and re-dial, and a timed-out
// call's retry on its fresh connection.
func TestFramedFromFirstExchange(t *testing.T) {
	reg := metrics.NewRegistry()
	var drop atomic.Bool
	s := startFaultServer(t, WithMetrics(reg), WithServerFaults(func(string) FaultAction {
		return FaultAction{Drop: drop.CompareAndSwap(true, false)}
	}))
	creg := metrics.NewRegistry()
	c, err := Dial(s.Addr().String(), time.Second,
		WithCallTimeout(150*time.Millisecond), WithClientMetrics(creg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, JitterFrac: 0}),
		WithIdempotent("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func(when string) {
		t.Helper()
		var out raw
		if _, err := c.Call("echo", raw(when), &out); err != nil || string(out) != when {
			t.Fatalf("%s: echo = %q, %v", when, out, err)
		}
	}

	call("first")
	wantServed(t, reg, 1, "first exchange")
	for i := 0; i < 9; i++ {
		call("steady")
	}
	wantServed(t, reg, 10, "one connection, ten calls")

	// An application error travels in a frame.
	var remote *RemoteError
	if _, err := c.Call("fail", nil, nil); !errors.As(err, &remote) || remote.Message != "application says no" {
		t.Fatalf("framed error reply = %v", err)
	}
	if _, err := c.Call("nope", nil, nil); !errors.As(err, &remote) || remote.Method != "nope" {
		t.Fatalf("framed unknown method = %v", err)
	}
	wantServed(t, reg, 12, "error replies")

	// A broken connection is re-dialed and its first call is a frame.
	c.breakConn(errors.New("test: forced break"))
	call("after break")
	wantServed(t, reg, 13, "first exchange after a re-dial")

	// A dropped request times out; its retry runs on a fresh connection.
	drop.Store(true)
	call("retried")
	wantServed(t, reg, 14, "a dropped attempt and its retry")
	call("after retry")
	wantServed(t, reg, 15, "steady after the retry")
	snap := creg.Snapshot()
	if snap.Counters["transport_client_retries_total"] != 1 || snap.Counters["transport_client_redials_total"] != 2 {
		t.Fatalf("retries = %d, redials = %d, want 1 and 2",
			snap.Counters["transport_client_retries_total"], snap.Counters["transport_client_redials_total"])
	}
}

// TestMalformedFrameDropsConnection: a frame the server cannot parse
// ends that connection, and the server goes on serving others.
func TestMalformedFrameDropsConnection(t *testing.T) {
	srv := startEchoServer(t)
	good, err := encodeRequestFrame(request{ID: 1, Method: "echo", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	overrun := append([]byte(nil), good...)
	overrun[frameHead] = 0xFF
	for name, in := range map[string][]byte{
		"string overruns the frame": overrun,
		"length above the limit":    {frameRequest, 1, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0},
		"truncated":                 good[:len(good)-1],
	} {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(in); err != nil {
			t.Fatal(err)
		}
		if name == "truncated" {
			conn.(*net.TCPConn).CloseWrite()
		}
		if n, err := conn.Read(make([]byte, 64)); err == nil {
			t.Errorf("%s: the server answered %d bytes instead of hanging up", name, n)
		}
		conn.Close()
	}
	c, err := Dial(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out raw
	if _, err := c.Call("echo", raw("still here"), &out); err != nil || string(out) != "still here" {
		t.Fatalf("after malformed frames: %q, %v", out, err)
	}
}

// TestResponseIDMismatchBreaksFramedConnection: a reply whose id is not
// the request's breaks the connection, and the call after it runs on a
// fresh one.
func TestResponseIDMismatchBreaksFramedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var served atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				w := newWire(conn)
				w.out = make([]byte, headroom, 2*headroom)
				for {
					var req request
					if _, err := w.readRequest(&req); err != nil {
						return
					}
					resp := response{ID: req.ID, Body: req.Body}
					if served.Add(1) == 2 {
						resp.ID += 100 // the answer to some other request
					}
					if w.writeResponse(&resp) != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second, WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out raw
	if _, err := c.Call("echo", raw("1"), &out); err != nil || string(out) != "1" {
		t.Fatalf("first exchange = %q, %v", out, err)
	}
	if _, err := c.Call("echo", raw("2"), &out); err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a mismatched id = %v", err)
	}
	if !c.broken {
		t.Fatal("the connection survived an id mismatch")
	}
	if _, err := c.Call("echo", raw("3"), &out); err != nil || string(out) != "3" {
		t.Fatalf("after the re-dial = %q, %v", out, err)
	}
}

// TestTracedCallSameTreeOverFrames: the span tree of a traced call does
// not depend on the framing that carried it.
func TestTracedCallSameTreeOverFrames(t *testing.T) {
	srvRec, srvTr := testTracer("srv")
	reg := metrics.NewRegistry()
	srv := startEchoServer(t, WithServerTracer(srvTr), WithMetrics(reg))
	cliRec, cliTr := testTracer("cli")
	c, err := Dial(srv.Addr().String(), 2*time.Second, WithCallTimeout(2*time.Second), WithClientTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type edge struct{ name, kind, node, parent string }
	tree := func(when string) []edge {
		t.Helper()
		root := cliTr.StartRoot("epoch", trace.KindEpoch)
		var out raw
		if _, err := c.CallContext(trace.ContextWithSpan(context.Background(), root), "echo", raw("x"), &out); err != nil {
			t.Fatal(err)
		}
		root.End()
		cli, ok := traceByID(cliRec, root.Context().TraceID)
		if !ok {
			t.Fatalf("%s: client side missing", when)
		}
		srvSide, ok := traceByID(srvRec, root.Context().TraceID)
		if !ok {
			t.Fatalf("%s: trace context did not cross the wire", when)
		}
		merged := trace.Merge([]trace.Trace{cli}, []trace.Trace{srvSide})
		if len(merged) != 1 {
			t.Fatalf("%s: merged into %d traces", when, len(merged))
		}
		names := map[string]string{"": ""}
		for _, s := range merged[0].Spans {
			names[s.SpanID] = s.Name
		}
		var edges []edge
		for _, want := range []string{"epoch", "rpc.echo", "attempt 1", "serve.echo"} {
			for _, s := range merged[0].Spans {
				if s.Name == want {
					edges = append(edges, edge{s.Name, s.Kind, s.Node, names[s.ParentID]})
				}
			}
		}
		return edges
	}

	overGob := tree("over gob")
	wantFraming(t, reg, 0, 1, "traced call over gob")
	overFrames := tree("over frames")
	wantFraming(t, reg, 1, 1, "traced call over frames")
	want := []edge{
		{"epoch", trace.KindEpoch, "cli", ""},
		{"rpc.echo", trace.KindClient, "cli", "epoch"},
		{"attempt 1", trace.KindAttempt, "cli", "rpc.echo"},
		{"serve.echo", trace.KindServer, "srv", "attempt 1"},
	}
	for name, got := range map[string][]edge{"gob": overGob, "frames": overFrames} {
		if len(got) != len(want) {
			t.Fatalf("over %s: span tree %+v, want %+v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("over %s: span %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	// An untraced call on the traced client builds no spans on either side.
	before := cliRec.Len() + srvRec.Len()
	var out raw
	if _, err := c.Call("echo", raw("quiet"), &out); err != nil {
		t.Fatal(err)
	}
	if after := cliRec.Len() + srvRec.Len(); after != before {
		t.Fatalf("an untraced call recorded %d traces", after-before)
	}
}

// TestHandleTimed: the caller's histogram gets one observation per
// served request of that method — the interval transport_server_handle_ms
// gets — and none for other methods.
func TestHandleTimed(t *testing.T) {
	reg := metrics.NewRegistry()
	s, addr := startServer(t, WithMetrics(reg))
	lat := reg.Histogram("test_slow_ms", metrics.LatencyBuckets())
	if err := s.HandleTimed("slow", func(b []byte) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		return b, nil
	}, lat); err != nil {
		t.Fatal(err)
	}
	registerEcho(t, s)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Call("slow", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var resp echoResp
	if _, err := c.Call("echo", echoReq{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	slow, all := snap.Histograms["test_slow_ms"], snap.Histograms["transport_server_handle_ms"]
	if slow.Count != 3 || all.Count != 4 {
		t.Fatalf("per-method histogram has %d observations, the server's %d; want 3 and 4", slow.Count, all.Count)
	}
	if slow.Sum < 15 || slow.Sum > all.Sum {
		t.Fatalf("three 5 ms handlers observed %.3f ms in total (server: %.3f ms)", slow.Sum, all.Sum)
	}
}
