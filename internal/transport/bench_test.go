package transport

import (
	"errors"
	"testing"
	"time"
)

// BenchmarkCall measures the end-to-end cost of one RPC over loopback
// with a 40-byte body the handler echoes: encode, TCP round trip, decode.
// This bounds how often a coordinator can poll daemons (internal/daemon's
// BenchmarkGetLoopback is the same trip with the get codec).
func BenchmarkCall(b *testing.B) {
	s := NewServer()
	if err := s.HandleTimed("echo", func(body []byte) ([]byte, error) {
		return body, nil
	}, nil); err != nil {
		b.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go func() {
		if err := s.Serve(); err != nil && !errors.Is(err, ErrServerClosed) {
			b.Errorf("serve: %v", err)
		}
	}()
	defer s.Close()

	c, err := Dial(s.Addr().String(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	req := raw(make([]byte, 40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp raw
		if _, err := c.Call("echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
