package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/georep/georep/internal/metrics"
)

// startServer runs a Server with an echo method and returns it with its
// address.
func startFaultServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	s := NewServer(opts...)
	if err := s.HandleTimed("echo", func(b []byte) ([]byte, error) { return b, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleTimed("fail", func([]byte) ([]byte, error) {
		return nil, errors.New("application says no")
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStalledServerCannotHangClient is the silent-stall case PR 1's
// failure tests missed: the server accepts and reads but never answers.
// The call deadline must fire.
func TestStalledServerCannotHangClient(t *testing.T) {
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
			// Swallow input forever; never respond.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := Dial(ln.Addr().String(), time.Second, WithCallTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call("echo", raw("hello"), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call against a stalled server succeeded")
		}
		var netErr net.Error
		if !errors.As(err, &netErr) || !netErr.Timeout() {
			t.Fatalf("want timeout error, got %v", err)
		}
		if !IsRetryable(err) {
			t.Errorf("timeout should be retryable: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung despite call timeout")
	}
}

// TestDefaultCallTimeoutInstalled guards the satellite fix: a plain Dial
// must come with a deadline, not infinite patience.
func TestDefaultCallTimeoutInstalled(t *testing.T) {
	s := startFaultServer(t)
	c, err := Dial(s.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.callTimeout != DefaultCallTimeout {
		t.Fatalf("default call timeout %v, want %v", c.callTimeout, DefaultCallTimeout)
	}
}

// TestIdleGapLongerThanCallTimeout: the per-attempt deadline is left
// armed when a call returns, so it expires while the connection sits
// idle. That must not fail the next call, which re-arms it before any
// I/O — and must not cost a redial either.
func TestIdleGapLongerThanCallTimeout(t *testing.T) {
	s := startFaultServer(t)
	reg := metrics.NewRegistry()
	const timeout = 50 * time.Millisecond
	c, err := Dial(s.Addr().String(), time.Second, WithCallTimeout(timeout), WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		var out raw
		if _, err := c.Call("echo", raw("ping"), &out); err != nil {
			t.Fatalf("call %d after an idle gap: %v", i, err)
		}
		time.Sleep(3 * timeout)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["transport_client_redials_total"] + snap.Counters["transport_client_timeouts_total"]; n != 0 {
		t.Fatalf("idle gaps caused %d redials/timeouts", n)
	}
}

// TestRetryAfterServerDrops exercises the whole resilient path: the
// server silently drops the first two requests, the client's deadline
// fires, and retries on fresh connections succeed.
func TestRetryAfterServerDrops(t *testing.T) {
	var served atomic.Int64
	s := startFaultServer(t, WithServerFaults(func(method string) FaultAction {
		return FaultAction{Drop: served.Add(1) <= 2}
	}))
	c, err := Dial(s.Addr().String(), time.Second,
		WithCallTimeout(100*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, JitterFrac: 0}),
		WithIdempotent("echo"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var out raw
	if _, err := c.Call("echo", raw("payload"), &out); err != nil {
		t.Fatalf("call should have succeeded via retries: %v", err)
	}
	if string(out) != "payload" {
		t.Fatalf("echo returned %q", out)
	}
}

// TestNoRetryForUnmarkedMethod: without the idempotent mark, one failed
// attempt is final.
func TestNoRetryForUnmarkedMethod(t *testing.T) {
	var served atomic.Int64
	s := startFaultServer(t, WithServerFaults(func(method string) FaultAction {
		return FaultAction{Drop: served.Add(1) <= 1}
	}))
	c, err := Dial(s.Addr().String(), time.Second,
		WithCallTimeout(50*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("echo", raw("x"), nil); err == nil {
		t.Fatal("unmarked method must not be retried")
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1", n)
	}
}

// TestNoRetryOnApplicationError: the server answered; retrying would
// re-execute a failed operation.
func TestNoRetryOnApplicationError(t *testing.T) {
	s := startFaultServer(t)
	c, err := Dial(s.Addr().String(), time.Second,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}),
		WithIdempotent("fail"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	attempts := 0
	c.sleep = func(time.Duration) { attempts++ } // counts retry sleeps
	_, err = c.Call("fail", nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if attempts != 0 {
		t.Fatalf("application error was retried %d times", attempts)
	}
	if IsRetryable(err) {
		t.Error("RemoteError classified retryable")
	}
}

// TestRedialAfterServerRestart: the target dies and comes back on the
// same address; the client's retry loop re-dials and recovers.
func TestRedialAfterServerRestart(t *testing.T) {
	s := startFaultServer(t)
	addr := s.Addr().String()
	c, err := Dial(addr, time.Second,
		WithCallTimeout(200*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond,
			MaxDelay: 20 * time.Millisecond, JitterFrac: 0}),
		WithIdempotent("echo"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("echo", raw("a"), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Restart on the same address in the background while the client is
	// already retrying.
	restarted := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		s2 := NewServer()
		if err := s2.HandleTimed("echo", func(b []byte) ([]byte, error) { return b, nil }, nil); err != nil {
			t.Error(err)
			return
		}
		if err := s2.Listen(addr); err != nil {
			t.Errorf("rebind %s: %v", addr, err)
			return
		}
		go s2.Serve()
		t.Cleanup(func() { s2.Close() })
		close(restarted)
	}()

	var out raw
	if _, err := c.Call("echo", raw("b"), &out); err != nil {
		t.Fatalf("call across restart failed: %v", err)
	}
	<-restarted
	if string(out) != "b" {
		t.Fatalf("echo returned %q", out)
	}
}

// TestCloseDuringInFlightCall: a concurrent Close must unblock the call
// and surface as ErrClientClosed, not a raw net error. Run with -race.
func TestCloseDuringInFlightCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept and stall
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second, WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	callErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := c.Call("echo", raw("x"), nil)
		callErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call block in receive
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-callErr; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("in-flight call after Close returned %v, want ErrClientClosed", err)
	}
	// Subsequent calls fail the same way, and Close stays idempotent.
	if _, err := c.Call("echo", raw("x"), nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close returned %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffSchedule pins the deterministic (jitter-free) schedule —
// no wall-clock sleeps involved.
func TestBackoffSchedule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"first", RetryPolicy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: time.Second}, 1, 10 * time.Millisecond},
		{"second doubles", RetryPolicy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: time.Second}, 2, 20 * time.Millisecond},
		{"fourth", RetryPolicy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: time.Second}, 4, 80 * time.Millisecond},
		{"capped", RetryPolicy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: 50 * time.Millisecond}, 10, 50 * time.Millisecond},
		{"triple growth", RetryPolicy{BaseDelay: time.Millisecond, Multiplier: 3, MaxDelay: time.Second}, 3, 9 * time.Millisecond},
		{"defaults fill in", RetryPolicy{}, 2, 40 * time.Millisecond},
		{"attempt floor", RetryPolicy{BaseDelay: 7 * time.Millisecond, Multiplier: 2, MaxDelay: time.Second}, 0, 7 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Backoff(tc.attempt, nil); got != tc.want {
				t.Errorf("Backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

// TestBackoffJitterBounds: jittered delays stay within ±JitterFrac and
// actually vary.
func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, Multiplier: 2,
		MaxDelay: time.Second, JitterFrac: 0.2}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		d := p.Backoff(1, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside [80ms,120ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct delays", len(seen))
	}
}

// TestRetryBudgetExhaustion: the per-client budget caps total retries
// across calls.
func TestRetryBudgetExhaustion(t *testing.T) {
	s := startFaultServer(t, WithServerFaults(func(string) FaultAction {
		return FaultAction{Drop: true} // never answer
	}))
	c, err := Dial(s.Addr().String(), time.Second,
		WithCallTimeout(30*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, JitterFrac: 0, Budget: 3}),
		WithIdempotent("echo"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	retries := 0
	c.sleep = func(time.Duration) { retries++ }
	_, _ = c.Call("echo", raw("x"), nil) // burns budget: 1 attempt + 3 retries
	if retries != 3 {
		t.Fatalf("first call used %d retries, want 3 (budget)", retries)
	}
	_, _ = c.Call("echo", raw("x"), nil) // budget gone: single attempt
	if retries != 3 {
		t.Fatalf("second call retried despite exhausted budget (%d)", retries)
	}
}

// TestCircuitBreaker: consecutive failures open the circuit, calls fail
// fast during the cooldown, and a successful probe closes it. Time is
// fully stubbed.
func TestCircuitBreaker(t *testing.T) {
	var healthy atomic.Bool
	s := startFaultServer(t, WithServerFaults(func(string) FaultAction {
		return FaultAction{Drop: !healthy.Load()}
	}))
	c, err := Dial(s.Addr().String(), time.Second,
		WithCallTimeout(30*time.Millisecond),
		WithBreaker(Breaker{Threshold: 2, Cooldown: time.Minute}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }

	// Two timeouts open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := c.Call("echo", raw("x"), nil); err == nil {
			t.Fatal("call against dropping server succeeded")
		}
	}
	// Inside the cooldown: fail fast, no network involved.
	start := time.Now()
	_, err = c.Call("echo", raw("x"), nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Error("open-circuit call was not fast")
	}
	if IsRetryable(err) {
		t.Error("ErrCircuitOpen classified retryable")
	}

	// After the cooldown a probe goes through; the healthy server closes
	// the circuit again.
	healthy.Store(true)
	now = now.Add(2 * time.Minute)
	if _, err := c.Call("echo", raw("x"), nil); err != nil {
		t.Fatalf("probe after cooldown failed: %v", err)
	}
	if _, err := c.Call("echo", raw("x"), nil); err != nil {
		t.Fatalf("circuit did not close after probe: %v", err)
	}
}

// TestClientFaultMetrics: the new failure counters move.
func TestClientFaultMetrics(t *testing.T) {
	var served atomic.Int64
	s := startFaultServer(t, WithServerFaults(func(string) FaultAction {
		return FaultAction{Drop: served.Add(1) <= 1}
	}))
	reg := metrics.NewRegistry()
	c, err := Dial(s.Addr().String(), time.Second,
		WithClientMetrics(reg),
		WithCallTimeout(50*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, JitterFrac: 0}),
		WithIdempotent("echo"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("echo", raw("x"), nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"transport_client_retries_total",
		"transport_client_redials_total",
		"transport_client_timeouts_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0, want > 0 (%v)", name, snap.Counters)
		}
	}
}

// TestValidateRejectsBadPolicies: Dial surfaces configuration errors.
func TestValidateRejectsBadPolicies(t *testing.T) {
	s := startFaultServer(t)
	for name, opt := range map[string]ClientOption{
		"negative attempts": WithRetryPolicy(RetryPolicy{MaxAttempts: -1}),
		"bad jitter":        WithRetryPolicy(RetryPolicy{MaxAttempts: 2, JitterFrac: 1.5}),
		"negative budget":   WithRetryPolicy(RetryPolicy{MaxAttempts: 2, Budget: -2}),
		"negative breaker":  WithBreaker(Breaker{Threshold: -1}),
	} {
		if _, err := Dial(s.Addr().String(), time.Second, opt); err == nil {
			t.Errorf("%s: Dial accepted invalid configuration", name)
		}
	}
}
