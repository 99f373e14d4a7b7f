package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// startServer launches a server on a random port and returns it with its
// address; cleanup is registered on t.
func startServer(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	s := NewServer(opts...)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(); err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close() })
	return s, s.Addr().String()
}

// raw is the tests' body: its bytes as they are, both ways.
type raw []byte

func (b raw) AppendBody(dst []byte) ([]byte, error) { return append(dst, b...), nil }
func (b *raw) DecodeBody(p []byte) error            { *b = p; return nil }

// echoReq and echoResp travel as an i64 N and then the text.
type echoReq struct {
	Text string
	N    int
}

type echoResp struct {
	Text string
	N    int
}

func appendEcho(dst []byte, text string, n int) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, uint64(n)), text...)
}

func decodeEcho(b []byte) (string, int, error) {
	if len(b) < 8 {
		return "", 0, fmt.Errorf("echo body of %d bytes", len(b))
	}
	return string(b[8:]), int(int64(binary.LittleEndian.Uint64(b))), nil
}

func (q echoReq) AppendBody(dst []byte) ([]byte, error)  { return appendEcho(dst, q.Text, q.N), nil }
func (p echoResp) AppendBody(dst []byte) ([]byte, error) { return appendEcho(dst, p.Text, p.N), nil }

func (q *echoReq) DecodeBody(b []byte) (err error) {
	q.Text, q.N, err = decodeEcho(b)
	return err
}

func (p *echoResp) DecodeBody(b []byte) (err error) {
	p.Text, p.N, err = decodeEcho(b)
	return err
}

func registerEcho(t *testing.T, s *Server) {
	t.Helper()
	err := s.HandleTimed("echo", func(body []byte) ([]byte, error) {
		var req echoReq
		if err := Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return Marshal(echoResp{Text: req.Text, N: req.N * 2})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	s, addr := startServer(t)
	registerEcho(t, s)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var resp echoResp
	rtt, err := c.Call("echo", echoReq{Text: "hi", N: 21}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hi" || resp.N != 42 {
		t.Errorf("resp = %+v", resp)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call("nope", echoReq{}, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Method != "nope" {
		t.Errorf("remote method = %q", remote.Method)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	s, addr := startServer(t)
	if err := s.HandleTimed("fail", func([]byte) ([]byte, error) {
		return nil, errors.New("kaboom")
	}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call("fail", nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Message != "kaboom" {
		t.Fatalf("err = %v", err)
	}

	// The connection survives a handler error.
	registerEcho(t, s)
	var resp echoResp
	if _, err := c.Call("echo", echoReq{N: 1}, &resp); err != nil || resp.N != 2 {
		t.Errorf("follow-up call: %v %+v", err, resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	registerEcho(t, s)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				var resp echoResp
				if _, err := c.Call("echo", echoReq{N: g*100 + i}, &resp); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if resp.N != (g*100+i)*2 {
					t.Errorf("resp.N = %d", resp.N)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHandleValidation(t *testing.T) {
	s := NewServer()
	if err := s.HandleTimed("", func([]byte) ([]byte, error) { return nil, nil }, nil); err == nil {
		t.Error("empty method should fail")
	}
	if err := s.HandleTimed("x", nil, nil); err == nil {
		t.Error("nil handler should fail")
	}
}

func TestServeBeforeListen(t *testing.T) {
	s := NewServer()
	if err := s.Serve(); err == nil {
		t.Error("Serve before Listen should fail")
	}
}

func TestCloseIdempotentAndUnblocksServe(t *testing.T) {
	s := NewServer()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Error("dialing a dead port should fail")
	}
}

func TestNilRequestAndResponse(t *testing.T) {
	s, addr := startServer(t)
	called := false
	if err := s.HandleTimed("ping", func(body []byte) ([]byte, error) {
		called = true
		if len(body) != 0 {
			return nil, fmt.Errorf("unexpected body %d bytes", len(body))
		}
		return nil, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("handler not invoked")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	b, err := Marshal(echoReq{Text: "x", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	var back echoReq
	if err := Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Text != "x" || back.N != 7 {
		t.Errorf("back = %+v", back)
	}
	if b, err := Marshal(nil); err != nil || b != nil {
		t.Errorf("Marshal(nil) = %v, %v", b, err)
	}
}

func TestManySequentialCallsOneConnection(t *testing.T) {
	s, addr := startServer(t)
	registerEcho(t, s)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 500; i++ {
		var resp echoResp
		if _, err := c.Call("echo", echoReq{N: i}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.N != i*2 {
			t.Fatalf("call %d: resp = %+v", i, resp)
		}
	}
}
