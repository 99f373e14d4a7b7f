package daemon

import (
	"fmt"
	"testing"
	"time"
)

// One node, one client, real loopback TCP: the whole get and put path a
// georepctl read/put takes, per payload size. bench/ measures the same
// path under a workload; these are the quick local numbers.
var benchPayloads = []int{128, 4096}

func benchNode(b *testing.B, cfg Config) *Client {
	b.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	c, err := DialNode(n.Addr(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkPingLoopback is the wire alone: an empty body each way, no
// store, no summarizer. What a get costs above it is the daemon's.
func BenchmarkPingLoopback(b *testing.B) {
	c := benchNode(b, Config{ID: 1, MicroClusters: 10, Dims: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetLoopback(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			c := benchNode(b, Config{ID: 1, MicroClusters: 10, Dims: 3})
			if err := c.Put("obj", make([]byte, size), 1); err != nil {
				b.Fatal(err)
			}
			coord := []float64{1.5, -2.5, 40}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, _, err := c.Get(i&1023, coord, "obj")
				if err != nil || len(resp.Data) != size {
					b.Fatalf("get: %d bytes, %v", len(resp.Data), err)
				}
			}
		})
	}
}

func BenchmarkPutLoopback(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			// Write log on, as live_mixed runs it: every put appends and,
			// past the retained tail, compacts.
			c := benchNode(b, Config{ID: 1, MicroClusters: 10, Dims: 3, WriteRatio: 0.3})
			data := make([]byte, size)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Put("obj", data, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
