package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/trace"
)

// gobRequest/gobResponse are the envelope as a gob-era peer (the commit
// before frames) declares it: every field but the capability bit.
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

// framing reads the server's per-framing request counters.
func framing(reg *metrics.Registry) (frames, gobs int64) {
	s := reg.Snapshot()
	return s.Counters["transport_server_frames_total"], s.Counters["transport_server_gob_frames_total"]
}

func wantFraming(t *testing.T, reg *metrics.Registry, frames, gobs int64, when string) {
	t.Helper()
	if f, g := framing(reg); f != frames || g != gobs {
		t.Fatalf("%s: server saw %d framed and %d gob requests, want %d and %d", when, f, g, frames, gobs)
	}
}

// TestGobEraClientAgainstFramingServer: a client that knows nothing of
// frames is served in gob, exchange after exchange, and decodes every
// reply although it carries a field the client never declared.
func TestGobEraClientAgainstFramingServer(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := startEchoServer(t, WithMetrics(reg))
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)

	const calls = 50
	for i := 1; i <= calls; i++ {
		body, err := Marshal(i)
		if err != nil {
			t.Fatal(err)
		}
		method := "echo"
		if i%10 == 0 {
			method = "nope"
		}
		if err := enc.Encode(gobRequest{ID: uint64(i), Method: method, Body: body}); err != nil {
			t.Fatal(err)
		}
		var resp gobResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("exchange %d: a gob-era client cannot decode the reply: %v", i, err)
		}
		if resp.ID != uint64(i) {
			t.Fatalf("exchange %d answered with id %d", i, resp.ID)
		}
		if method == "nope" {
			if resp.Err == "" {
				t.Fatalf("exchange %d: unknown method answered without an error", i)
			}
			continue
		}
		var out int
		if err := Unmarshal(resp.Body, &out); err != nil || out != i || resp.Err != "" {
			t.Fatalf("exchange %d echoed %d, %q, %v", i, out, resp.Err, err)
		}
	}
	wantFraming(t, reg, 0, calls, "gob-era client")
}

// gobEraServer is a test double of the serve loop as it was before
// frames: one gob decoder straight on the connection, gob replies, no
// capability bit. A frame on its stream is a corrupt gob message and
// ends the connection, as it would on a real old node. hangUpAt makes it
// close the connection instead of answering that request (counted
// across connections).
type gobEraServer struct {
	ln       net.Listener
	served   atomic.Int64
	conns    atomic.Int64
	hangUpAt int64
}

func startGobEraServer(t *testing.T, hangUpAt int64) *gobEraServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &gobEraServer{ln: ln, hangUpAt: hangUpAt}
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
					if s.served.Add(1) == s.hangUpAt {
						return
					}
					if err := enc.Encode(gobResponse{ID: req.ID, Body: req.Body, TraceID: req.TraceID}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

// TestFramingClientAgainstGobEraServer: against a server that never
// sets the capability bit the client stays in gob — one frame would end
// the double's connection and fail the call — across 1 000 calls and a
// re-dial in the middle.
func TestFramingClientAgainstGobEraServer(t *testing.T) {
	const calls, hangUpAt = 1000, 400
	srv := startGobEraServer(t, hangUpAt)
	reg := metrics.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), 2*time.Second,
		WithCallTimeout(2*time.Second), WithClientMetrics(reg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterFrac: 0}),
		WithIdempotent("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < calls; i++ {
		var out int
		if _, err := c.Call("echo", i, &out); err != nil || out != i {
			t.Fatalf("call %d = %d, %v", i, out, err)
		}
		if c.w.framed {
			t.Fatalf("call %d switched the connection to frames without the capability bit", i)
		}
	}
	if got := srv.served.Load(); got != calls+1 {
		t.Fatalf("the gob-era server decoded %d requests, want %d (one retried)", got, calls+1)
	}
	snap := reg.Snapshot()
	if snap.Counters["transport_client_redials_total"] != 1 || srv.conns.Load() != 2 {
		t.Fatalf("redials = %d over %d connections, want 1 over 2",
			snap.Counters["transport_client_redials_total"], srv.conns.Load())
	}
}

// TestFramedAfterFirstExchange: between upgraded peers the first
// exchange of every connection is gob and the rest are frames — after a
// forced break and re-dial, and after a timeout's retry, too.
func TestFramedAfterFirstExchange(t *testing.T) {
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
		var out string
		if _, err := c.Call("echo", when, &out); err != nil || out != when {
			t.Fatalf("%s: echo = %q, %v", when, out, err)
		}
	}

	call("first")
	wantFraming(t, reg, 0, 1, "first exchange")
	if !c.w.framed {
		t.Fatal("the capability bit did not switch the connection")
	}
	for i := 0; i < 9; i++ {
		call("steady")
	}
	wantFraming(t, reg, 9, 1, "one connection, ten calls")

	// An application error travels in a frame and leaves the framing alone.
	var remote *RemoteError
	if _, err := c.Call("fail", nil, nil); !errors.As(err, &remote) || remote.Message != "application says no" {
		t.Fatalf("framed error reply = %v", err)
	}
	if _, err := c.Call("nope", nil, nil); !errors.As(err, &remote) || remote.Method != "nope" {
		t.Fatalf("framed unknown method = %v", err)
	}
	wantFraming(t, reg, 11, 1, "error replies")

	// A broken connection is re-dialed and starts over in gob.
	c.breakConn(errors.New("test: forced break"))
	call("after break")
	wantFraming(t, reg, 11, 2, "first exchange after a re-dial")
	call("after break, steady")
	wantFraming(t, reg, 12, 2, "second exchange after a re-dial")

	// A dropped request times out; its retry runs on a fresh connection,
	// in gob, and the connection then switches again.
	drop.Store(true)
	call("retried")
	wantFraming(t, reg, 13, 3, "a framed attempt dropped, its retry in gob")
	call("after retry")
	wantFraming(t, reg, 14, 3, "steady after the retry")
	snap := creg.Snapshot()
	if snap.Counters["transport_client_retries_total"] != 1 || snap.Counters["transport_client_redials_total"] != 2 {
		t.Fatalf("retries = %d, redials = %d, want 1 and 2",
			snap.Counters["transport_client_retries_total"], snap.Counters["transport_client_redials_total"])
	}
}

// TestFramingsInterleaveOnOneConnection: the server sniffs every
// message, not the connection, and answers each in kind.
func TestFramingsInterleaveOnOneConnection(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := startEchoServer(t, WithMetrics(reg))
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w := newWire(conn)

	var frames, gobs int64
	for i, framed := range []bool{false, true, true, false, true, false, false, true} {
		body := []byte{binMarker, byte(i)}
		req := request{ID: uint64(i + 1), Method: "echo", Body: body}
		w.framed = framed
		if err := w.writeRequest(append(make([]byte, headroom), body...), &req); err != nil {
			t.Fatal(err)
		}
		// Answered in kind: readResponse reads the framing it is told to.
		var resp response
		if err := w.readResponse(&resp); err != nil {
			t.Fatalf("message %d (framed=%v): %v", i, framed, err)
		}
		if resp.ID != req.ID || string(resp.Body) != string(body) || resp.Err != "" {
			t.Fatalf("message %d (framed=%v) = %+v", i, framed, resp)
		}
		if !framed && !resp.Frames {
			t.Fatalf("message %d: a gob reply without the capability bit", i)
		}
		if framed {
			frames++
		} else {
			gobs++
		}
	}
	wantFraming(t, reg, frames, gobs, "interleaved")
}

// TestMalformedFrameDropsConnection: a frame the server cannot parse
// ends that connection, exactly as a corrupt gob stream does, and the
// server goes on serving others.
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
	var out []byte
	if _, err := c.Call("echo", []byte("still here"), &out); err != nil || string(out) != "still here" {
		t.Fatalf("after malformed frames: %q, %v", out, err)
	}
}

// TestResponseIDMismatchBreaksFramedConnection: the id check guards a
// framed exchange as it guards a gob one.
func TestResponseIDMismatchBreaksFramedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
					_, framed, err := w.readRequest(&req)
					if err != nil {
						return
					}
					resp := response{ID: req.ID, Body: req.Body, Frames: true}
					if framed {
						resp.ID += 100 // the answer to some other request
					}
					if w.writeResponse(framed, &resp) != nil {
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
	var out int
	if _, err := c.Call("echo", 1, &out); err != nil || out != 1 {
		t.Fatalf("gob exchange = %d, %v", out, err)
	}
	if _, err := c.Call("echo", 2, &out); err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a mismatched id over frames = %v", err)
	}
	if !c.broken {
		t.Fatal("the connection survived an id mismatch")
	}
	// The re-dialed connection starts in gob, which this server answers
	// honestly.
	if _, err := c.Call("echo", 3, &out); err != nil || out != 3 {
		t.Fatalf("after the re-dial = %d, %v", out, err)
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
		var out []byte
		if _, err := c.CallContext(trace.ContextWithSpan(context.Background(), root), "echo", []byte("x"), &out); err != nil {
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
	var out []byte
	if _, err := c.Call("echo", []byte("quiet"), &out); err != nil {
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
	for i := 0; i < 3; i++ { // one gob exchange, two framed
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
