// Package transport is a minimal stdlib-only RPC layer so the
// replica-placement system also runs as real networked processes, not
// only inside the discrete-event simulator: TCP, fixed-width frames as
// envelope (frame.go), and bodies each type encodes itself (body.go).
// Servers can inject artificial per-request delays, which lets the
// examples reproduce wide-area RTTs between processes on one machine;
// clients measure the observed RTT of every call, which is exactly the
// measurement stream the coordinate system consumes.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/trace"
)

// request and response are what a frame carries (frame.go); Body is
// opaque here (see body.go).
//
// The trace fields are optional W3C-style span propagation: TraceID is
// the 16-byte hex trace, SpanID the caller-side span the server should
// parent under, ParentID that span's own parent (context only). Empty
// strings mean an untraced call.
type request struct {
	ID       uint64
	Method   string
	Body     []byte
	TraceID  string
	SpanID   string
	ParentID string
}

// response echoes the trace (and the server-side span it recorded) back
// to the caller; both fields are empty when the request was untraced or
// the server does not trace.
type response struct {
	ID      uint64
	Err     string
	Body    []byte
	TraceID string
	SpanID  string
}

// Handler serves one method: raw request body in, raw response body out.
type Handler func(body []byte) ([]byte, error)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("transport: server closed")

// ServerOption configures a Server.
type ServerOption interface {
	apply(*Server)
}

// serverMetrics are the server's metric handles, resolved once so the
// per-request path does no registry lookups. Nil handles are no-ops.
type serverMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
	dropped  *metrics.Counter
	handleMs *metrics.Histogram
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	return serverMetrics{
		requests: r.Counter("transport_server_requests_total"),
		errors:   r.Counter("transport_server_errors_total"),
		bytesIn:  r.Counter("transport_server_bytes_in_total"),
		bytesOut: r.Counter("transport_server_bytes_out_total"),
		dropped:  r.Counter("transport_server_dropped_total"),
		handleMs: r.Histogram("transport_server_handle_ms", metrics.LatencyBuckets()),
	}
}

type serverMetricsOption struct{ reg *metrics.Registry }

func (o serverMetricsOption) apply(s *Server) { s.met = newServerMetrics(o.reg) }

// WithMetrics instruments the server: request/error counts, request and
// response body bytes, and handler latency (excluding any injected fault
// delay), all recorded into the given registry.
func WithMetrics(reg *metrics.Registry) ServerOption { return serverMetricsOption{reg: reg} }

// FaultAction is a fault-injection ruling on one inbound request.
type FaultAction struct {
	// Drop silences the server: the request is consumed but never
	// answered, which a client observes as a stall (and must escape via
	// its call deadline). This models a crashed or partitioned node far
	// more faithfully than an error reply, which would prove the node
	// alive.
	Drop bool
	// Delay postpones handling, modelling a latency spike.
	Delay time.Duration
}

// ServerFaultFunc rules on each inbound request by method name.
type ServerFaultFunc func(method string) FaultAction

type serverFaultsOption struct{ fn ServerFaultFunc }

func (o serverFaultsOption) apply(s *Server) { s.faults = o.fn }

// WithServerFaults installs a fault-injection hook consulted before
// every request. Nil actions deliver normally. Used to run seeded
// fault plans (internal/faults) against live processes.
func WithServerFaults(fn ServerFaultFunc) ServerOption { return serverFaultsOption{fn: fn} }

type serverTracerOption struct{ tr *trace.Tracer }

func (o serverTracerOption) apply(s *Server) { s.tracer = o.tr }

// WithServerTracer records a server-side span for every traced inbound
// request (frames carrying a trace context), parented under the
// caller's wire span so coordinator and daemon spans assemble into one
// cross-node tree. Untraced requests stay untraced.
func WithServerTracer(tr *trace.Tracer) ServerOption { return serverTracerOption{tr: tr} }

type serverLoggerOption struct{ log *slog.Logger }

func (o serverLoggerOption) apply(s *Server) { s.log = o.log }

// WithServerLogger installs a structured logger for server events:
// malformed frames, fault drops/delays, unknown methods, and handler
// errors.
func WithServerLogger(log *slog.Logger) ServerOption { return serverLoggerOption{log: log} }

// Server accepts connections and dispatches method calls. Each
// connection is served by one goroutine, requests on it in order.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handlerEntry
	faults   ServerFaultFunc
	met      serverMetrics
	tracer   *trace.Tracer
	log      *slog.Logger
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// handlerEntry keeps the method's own string, so a request names its
// method without allocating, and the caller's latency histogram.
type handlerEntry struct {
	name string
	fn   Handler
	lat  *metrics.Histogram
}

// NewServer returns a server with no handlers registered.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		handlers: make(map[string]handlerEntry),
		conns:    make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// HandleTimed registers a method handler. Registering after Serve
// started is allowed; re-registering a name replaces the handler. A
// non-nil lat also receives, in milliseconds, the handler interval
// behind transport_server_handle_ms: a caller's per-method latency
// without a second pair of clock reads.
func (s *Server) HandleTimed(method string, h Handler, lat *metrics.Histogram) error {
	if method == "" {
		return errors.New("transport: empty method name")
	}
	if h == nil {
		return errors.New("transport: nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{name: method, fn: h, lat: lat}
	return nil
}

// Listen binds the server to addr (e.g. "127.0.0.1:0").
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr returns the bound address; nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Close. It blocks; run it in a
// goroutine.
func (s *Server) Serve() error {
	s.mu.RLock()
	ln := s.ln
	s.mu.RUnlock()
	if ln == nil {
		return errors.New("transport: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.RLock()
			closed := s.closed
			s.mu.RUnlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	w := newWire(conn)
	w.out = make([]byte, headroom, 2*headroom)
	for {
		// A fresh frame per message: req.Body is allocated anew, so a
		// handler's decoded request may alias it (see BodyDecoder).
		var req request
		method, err := w.readRequest(&req)
		if err != nil {
			// Connection closed, corrupt or truncated: drop it. A gob-era
			// peer's envelope lands here on its first byte.
			if errors.Is(err, errFrame) && s.log != nil {
				s.log.Warn("malformed frame, connection dropped", "remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		// The method arrives as bytes and takes its string from the
		// handler table: only an unknown one allocates its name.
		s.mu.RLock()
		ent := s.handlers[string(method)]
		s.mu.RUnlock()
		if ent.fn == nil {
			ent.name = string(method)
		}
		req.Method = ent.name
		// A traced frame opens a server span parented under the caller's
		// wire span; an untraced frame does not.
		var sp *trace.ActiveSpan
		if parent := (trace.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID}); s.tracer != nil && parent.Valid() {
			sp = s.tracer.Start(parent, "serve."+req.Method, trace.KindServer)
		}
		if s.faults != nil {
			switch act := s.faults(req.Method); {
			case act.Drop:
				s.met.dropped.Inc()
				if s.log != nil {
					s.log.Debug("request dropped by fault injection", "method", req.Method, "trace_id", req.TraceID)
				}
				sp.SetErrString("fault injection: request dropped")
				sp.End()
				continue // consume silently: the caller sees a stall
			case act.Delay > 0:
				if s.log != nil {
					s.log.Debug("request delayed by fault injection", "method", req.Method, "delay", act.Delay)
				}
				sp.SetAttr("fault_delay", act.Delay.String())
				time.Sleep(act.Delay)
			}
		}

		s.met.requests.Inc()
		s.met.bytesIn.Add(int64(len(req.Body)))

		resp := response{ID: req.ID, TraceID: req.TraceID}
		if sp != nil {
			resp.SpanID = sp.Context().SpanID
		}
		start := time.Now()
		if ent.fn == nil {
			resp.Err = fmt.Sprintf("transport: unknown method %q", req.Method)
			if s.log != nil {
				s.log.Warn("unknown method", "method", req.Method)
			}
		} else if body, err := ent.fn(req.Body); err != nil {
			resp.Err = err.Error()
		} else {
			resp.Body = body
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		s.met.handleMs.Observe(ms)
		ent.lat.Observe(ms)
		if resp.Err != "" {
			s.met.errors.Inc()
			if s.log != nil {
				s.log.Debug("handler error", "method", req.Method, "err", resp.Err)
			}
		}
		s.met.bytesOut.Add(int64(len(resp.Body)))
		sp.SetErrString(resp.Err)
		sp.End()
		if err := w.writeResponse(&resp); err != nil {
			return
		}
	}
}

// Close stops accepting, closes all connections, and waits for handler
// goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// maxKeptReqBuf caps the request buffer a client (and the reply buffer a
// server connection) keeps between calls, so one large put does not pin
// its size for the client's life.
const maxKeptReqBuf = 64 << 10

// DefaultCallTimeout bounds each call attempt unless WithCallTimeout
// overrides it. A stalled server can therefore never hang a client
// forever: the deadline fires, the connection is declared broken, and
// the retry policy (if any) takes over on a fresh connection.
const DefaultCallTimeout = 10 * time.Second

// Client is a synchronous RPC client to one target address. Calls are
// serialized; use one client per concurrent caller. Close may be called
// from any goroutine, including concurrently with an in-flight Call,
// which then returns ErrClientClosed.
//
// Each call attempt is bounded by the call timeout via a connection
// deadline. With a RetryPolicy installed, idempotent methods (marked
// via WithIdempotent) are retried on transport-level failures with
// exponential backoff, re-dialing broken connections; with a Breaker
// installed, repeated failures open a circuit that fails fast instead
// of burning a timeout per call.
type Client struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	retry       RetryPolicy
	breaker     Breaker
	idempotent  map[string]bool
	met         clientMetrics
	tracer      *trace.Tracer

	// Test seams; real clients use the clock.
	now   func() time.Time
	sleep func(time.Duration)
	rng   *rand.Rand

	// mu serializes calls and guards the retry/breaker state.
	mu          sync.Mutex
	nextID      uint64
	retriesLeft int // remaining retry budget; -1 = unlimited
	consecFails int
	openUntil   time.Time
	// reqBuf holds the request of the call in flight — headroom for a
	// frame head, then the body — and is reused by the next one.
	reqBuf []byte

	// connMu guards the connection so Close never has to wait for an
	// in-flight call: closing the conn unblocks any pending I/O.
	connMu sync.Mutex
	w      *wire
	broken bool // w must be re-dialed before reuse
	closed bool
}

// clientMetrics are the client's metric handles; nil handles are no-ops.
type clientMetrics struct {
	calls        *metrics.Counter
	errors       *metrics.Counter
	retries      *metrics.Counter
	redials      *metrics.Counter
	timeouts     *metrics.Counter
	breakerOpens *metrics.Counter
	breakerFast  *metrics.Counter
	bytesOut     *metrics.Counter
	bytesIn      *metrics.Counter
	encodeMs     *metrics.Histogram
	decodeMs     *metrics.Histogram
	rttMs        *metrics.Histogram
}

func newClientMetrics(r *metrics.Registry) clientMetrics {
	return clientMetrics{
		calls:        r.Counter("transport_client_calls_total"),
		errors:       r.Counter("transport_client_errors_total"),
		retries:      r.Counter("transport_client_retries_total"),
		redials:      r.Counter("transport_client_redials_total"),
		timeouts:     r.Counter("transport_client_timeouts_total"),
		breakerOpens: r.Counter("transport_client_breaker_opens_total"),
		breakerFast:  r.Counter("transport_client_breaker_fastfails_total"),
		bytesOut:     r.Counter("transport_client_bytes_out_total"),
		bytesIn:      r.Counter("transport_client_bytes_in_total"),
		encodeMs:     r.Histogram("transport_client_encode_ms", metrics.LatencyBuckets()),
		decodeMs:     r.Histogram("transport_client_decode_ms", metrics.LatencyBuckets()),
		rttMs:        r.Histogram("transport_client_rtt_ms", metrics.LatencyBuckets()),
	}
}

// ClientOption configures a Client.
type ClientOption interface {
	applyClient(*Client)
}

type clientOptionFunc func(*Client)

func (f clientOptionFunc) applyClient(c *Client) { f(c) }

// WithClientMetrics instruments the client: call/error/retry counts,
// body bytes in/out, encode/decode time, and per-call RTT, recorded
// into the given registry.
func WithClientMetrics(reg *metrics.Registry) ClientOption {
	return clientOptionFunc(func(c *Client) { c.met = newClientMetrics(reg) })
}

// WithCallTimeout bounds each call attempt (default DefaultCallTimeout);
// d <= 0 disables deadlines entirely (not recommended outside tests).
func WithCallTimeout(d time.Duration) ClientOption {
	return clientOptionFunc(func(c *Client) { c.callTimeout = d })
}

// WithRetryPolicy installs automatic retries for idempotent methods.
// The policy is validated by Dial.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return clientOptionFunc(func(c *Client) { c.retry = p })
}

// WithBreaker installs a per-target circuit breaker. The configuration
// is validated by Dial.
func WithBreaker(b Breaker) ClientOption {
	return clientOptionFunc(func(c *Client) { c.breaker = b })
}

// WithClientTracer records client-side spans for calls made with a
// traced context (see CallContext): one span per call covering every
// attempt, plus one child span per attempt on the wire. The attempt
// span's context travels in the request frame, so the server's span
// nests under the exact attempt that reached it — retries and redials
// are visible as siblings.
func WithClientTracer(tr *trace.Tracer) ClientOption {
	return clientOptionFunc(func(c *Client) { c.tracer = tr })
}

// WithIdempotent marks methods safe to retry: executing them more than
// once must be indistinguishable from executing them once. Only marked
// methods are ever retried.
func WithIdempotent(methods ...string) ClientOption {
	return clientOptionFunc(func(c *Client) {
		if c.idempotent == nil {
			c.idempotent = make(map[string]bool, len(methods))
		}
		for _, m := range methods {
			c.idempotent[m] = true
		}
	})
}

// Dial connects to a server within the timeout. The address and timeout
// are retained for automatic re-dials of broken connections.
func Dial(addr string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:        addr,
		dialTimeout: timeout,
		callTimeout: DefaultCallTimeout,
		now:         time.Now,
		sleep:       time.Sleep,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		reqBuf:      make([]byte, headroom, 2*headroom),
	}
	for _, o := range opts {
		o.applyClient(c)
	}
	if err := c.retry.Validate(); err != nil {
		return nil, err
	}
	if err := c.breaker.Validate(); err != nil {
		return nil, err
	}
	if c.breaker.Threshold > 0 && c.breaker.Cooldown == 0 {
		c.breaker.Cooldown = time.Second
	}
	c.retriesLeft = c.retry.Budget
	if c.retry.Budget == 0 {
		c.retriesLeft = -1
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c.w = newWire(conn)
	return c, nil
}

// RemoteError is a server-side failure relayed to the caller.
type RemoteError struct {
	Method  string
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Message)
}

// Call invokes a method: req (if non-nil) is encoded by its AppendBody,
// resp (if non-nil) decoded from the reply by its DecodeBody. It returns
// the measured round-trip time, the signal the coordinate system feeds
// on. With a retry policy installed, the RTT is that of the successful
// (or final) attempt. Call is never traced; use CallContext with a
// span-carrying context to propagate a trace.
func (c *Client) Call(method string, req BodyAppender, resp BodyDecoder) (time.Duration, error) {
	return c.CallContext(context.Background(), method, req, resp)
}

// CallContext is Call with trace propagation: when ctx carries a span
// context (trace.NewContext / trace.ContextWithSpan) and the client has
// a tracer, the call records one client span covering all attempts plus
// one child span per wire attempt, and each attempt's span context
// travels in the request frame so the server's span joins the same
// tree. The ctx is not consulted for cancellation — per-attempt
// deadlines already bound every call (see WithCallTimeout).
func (c *Client) CallContext(ctx context.Context, method string, req BodyAppender, resp BodyDecoder) (time.Duration, error) {
	c.met.calls.Inc()
	// The frame's length-byte rule, applied before anything is encoded or
	// sent, so a refused call leaves the connection usable. Method and the
	// caller's trace id are the two strings that come from outside; span
	// ids are the tracer's own.
	parent := trace.FromContext(ctx)
	traced := c.tracer != nil && parent.Valid()
	if len(method) > maxFrameStr || traced && len(parent.TraceID) > maxFrameStr {
		c.met.errors.Inc()
		return 0, fmt.Errorf("transport: call to %s: %w", c.addr, errFrameSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	encStart := time.Now()
	// Encoded in place behind the frame's headroom; the body is on the
	// wire before the next call reuses the buffer.
	body := c.reqBuf[:headroom]
	if req != nil {
		var err error
		if body, err = req.AppendBody(body); err != nil {
			c.met.errors.Inc()
			return 0, fmt.Errorf("transport: encode %s request: %w", method, err)
		}
		if cap(body) <= maxKeptReqBuf {
			c.reqBuf = body
		}
	}
	// The end of the encode is the start of the first attempt's send.
	sendStart := time.Now()
	c.met.encodeMs.Observe(float64(sendStart.Sub(encStart)) / float64(time.Millisecond))

	// Span names are built only for a call that is traced.
	var span, att *trace.ActiveSpan
	if traced {
		span = c.tracer.Start(parent, "rpc."+method, trace.KindClient)
	}
	span.SetAttr("target", c.addr)

	maxAttempts := c.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		if c.breaker.Threshold > 0 && c.now().Before(c.openUntil) {
			c.met.breakerFast.Inc()
			c.met.errors.Inc()
			err := fmt.Errorf("transport: call %s to %s: %w", method, c.addr, ErrCircuitOpen)
			span.SetAttr("breaker", "open")
			span.SetErr(err)
			span.End()
			return 0, err
		}
		if span != nil {
			att = c.tracer.Start(span.Context(), fmt.Sprintf("attempt %d", attempt), trace.KindAttempt)
		}
		rtt, err := c.attempt(method, body, resp, att.Context(), span.Context().SpanID, sendStart)
		sendStart = time.Time{} // a retry reads its own clock
		att.SetErr(err)
		att.End()
		if err == nil {
			c.consecFails = 0
			span.End()
			return rtt, nil
		}
		c.met.errors.Inc()
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The server answered: the target is healthy, the request
			// failed at the application layer. Never retried.
			c.consecFails = 0
			span.SetErr(err)
			span.End()
			return rtt, err
		}
		if !errors.Is(err, ErrClientClosed) {
			c.consecFails++
			if c.breaker.Threshold > 0 && c.consecFails >= c.breaker.Threshold {
				c.openUntil = c.now().Add(c.breaker.Cooldown)
				c.consecFails = 0
				c.met.breakerOpens.Inc()
				span.SetAttr("breaker", "opened")
			}
		}
		if !IsRetryable(err) || !c.idempotent[method] ||
			attempt >= maxAttempts || c.retriesLeft == 0 ||
			(c.breaker.Threshold > 0 && c.now().Before(c.openUntil)) {
			span.SetErr(err)
			span.End()
			return rtt, err
		}
		if c.retriesLeft > 0 {
			c.retriesLeft--
		}
		c.met.retries.Inc()
		c.sleep(c.retry.Backoff(attempt, c.rng))
	}
}

// attempt performs one request/response exchange, re-dialing first if
// the connection is broken. Transport-level failures mark the
// connection broken: a response to a timed-out request must never be
// mistaken for the answer to its retry, so retries always run on a
// fresh connection. buf is the request body behind its headroom; start,
// unless zero or a re-dial came after it, is the clock the caller just
// read.
func (c *Client) attempt(method string, buf []byte, resp BodyDecoder, wire trace.SpanContext, parentID string, start time.Time) (time.Duration, error) {
	w, fresh, err := c.liveConn()
	if err != nil {
		return 0, err
	}
	c.met.bytesOut.Add(int64(len(buf) - headroom))
	c.nextID++
	frame := request{ID: c.nextID, Method: method, Body: buf[headroom:]}
	if wire.Valid() {
		frame.TraceID = wire.TraceID
		frame.SpanID = wire.SpanID
		frame.ParentID = parentID
	}

	if fresh || start.IsZero() {
		start = time.Now()
	}
	if c.callTimeout > 0 {
		// One deadline covers the send and the receive. It is left armed
		// when the call returns: an expired deadline on an idle
		// connection does nothing, and the next attempt re-arms it before
		// any I/O.
		if err := w.conn.SetDeadline(start.Add(c.callTimeout)); err != nil {
			return 0, c.breakConn(fmt.Errorf("transport: deadline %s: %w", method, err))
		}
	}
	if err := w.writeRequest(buf, &frame); err != nil {
		return 0, c.breakConn(fmt.Errorf("transport: send %s: %w", method, err))
	}
	// A fresh frame per message: r.Body is allocated anew, so the
	// decoded response may alias it (see BodyDecoder).
	var r response
	if err := w.readResponse(&r); err != nil {
		return 0, c.breakConn(fmt.Errorf("transport: receive %s: %w", method, err))
	}
	rtt := time.Since(start)
	c.met.rttMs.Observe(float64(rtt) / float64(time.Millisecond))
	c.met.bytesIn.Add(int64(len(r.Body)))
	if r.ID != frame.ID {
		return rtt, c.breakConn(fmt.Errorf("transport: %s: response id %d for request %d: %w",
			method, r.ID, frame.ID, io.ErrUnexpectedEOF))
	}
	if r.Err != "" {
		return rtt, &RemoteError{Method: method, Message: r.Err}
	}
	if resp != nil {
		if err := resp.DecodeBody(r.Body); err != nil {
			return rtt, fmt.Errorf("transport: decode %s response: %w", method, err)
		}
		// The decode began where the round trip ended.
		c.met.decodeMs.Observe(float64(time.Since(start)-rtt) / float64(time.Millisecond))
	}
	return rtt, nil
}

// liveConn returns a usable connection, re-dialing if the previous one
// broke. Only Call (serialized by mu) mutates the connection; Close may
// close it concurrently, which pending I/O surfaces as an error that
// breakConn then maps to ErrClientClosed.
func (c *Client) liveConn() (w *wire, fresh bool, err error) {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil, false, ErrClientClosed
	}
	if !c.broken {
		w = c.w
		c.connMu.Unlock()
		return w, false, nil
	}
	c.connMu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, false, fmt.Errorf("transport: redial %s: %w", c.addr, err)
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return nil, false, ErrClientClosed
	}
	c.w.conn.Close()
	c.w = newWire(conn)
	c.broken = false
	c.connMu.Unlock()
	c.met.redials.Inc()
	return c.w, true, nil
}

// breakConn marks the connection unusable and classifies the error: a
// concurrent Close surfaces as ErrClientClosed, a deadline expiry is
// counted as a timeout, anything else passes through.
func (c *Client) breakConn(err error) error {
	c.connMu.Lock()
	c.broken = true
	closed := c.closed
	c.connMu.Unlock()
	if closed {
		return ErrClientClosed
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		c.met.timeouts.Inc()
	}
	return err
}

// Close closes the connection and fails any in-flight or future calls
// with ErrClientClosed. It is idempotent and never blocks on an
// in-flight call.
func (c *Client) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.w.conn
	c.connMu.Unlock()
	return conn.Close()
}
