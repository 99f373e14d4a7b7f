package transport_test

import (
	"testing"

	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/transport"
)

// The get request/response pair through Marshal/Unmarshal exactly as the
// client and the node call them (by value in, by pointer out), 128 B
// payload. An external test package, because daemon imports transport.
var (
	benchGetReq  = daemon.GetRequest{Client: 7, ClientCoord: []float64{1.5, -2.5, 40}, Object: "obj-001"}
	benchGetResp = daemon.GetResponse{Data: make([]byte, 128), Version: 3}
	benchBody    []byte
)

func BenchmarkMarshalGet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if benchBody, err = transport.Marshal(benchGetReq); err != nil {
			b.Fatal(err)
		}
		if benchBody, err = transport.Marshal(benchGetResp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalGet(b *testing.B) {
	reqBody, err := transport.Marshal(benchGetReq)
	if err != nil {
		b.Fatal(err)
	}
	respBody, err := transport.Marshal(benchGetResp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			req  daemon.GetRequest
			resp daemon.GetResponse
		)
		if err := transport.Unmarshal(reqBody, &req); err != nil {
			b.Fatal(err)
		}
		if err := transport.Unmarshal(respBody, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
