package transport

import (
	"errors"
	"testing"
	"time"
)

// BenchmarkCall measures the end-to-end cost of one RPC over loopback
// with a gob body: gob encode, TCP round trip, gob decode. This bounds
// how often a coordinator can poll daemons for the methods that have no
// binary body codec (internal/daemon's BenchmarkGetLoopback is the same
// trip with one).
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

	type payload struct {
		Coord  []float64
		Object string
	}
	req := payload{Coord: []float64{1.5, -2.5, 40}, Object: "bench/object"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp payload
		if _, err := c.Call("echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshal measures gob body encoding alone; BenchmarkMarshalGet
// in bench_get_test.go is the binary codec on the real get types.
func BenchmarkMarshal(b *testing.B) {
	type payload struct {
		Coord  []float64
		Object string
		Data   []byte
	}
	req := payload{
		Coord:  []float64{1.5, -2.5, 40},
		Object: "bench/object",
		Data:   make([]byte, 1024),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
}
