package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
)

// rawView receives a reply body as it is.
type rawView []byte

func (v *rawView) DecodeBody(b []byte) error { *v = b; return nil }

// TestViewsSameBytesOverRPCAndHTTP: /explain, /slo and /trace serve the
// bytes the explain, slo and trace RPCs reply with.
func TestViewsSameBytesOverRPCAndHTTP(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-node", "3", "-dims", "2",
		"-ledger-dir", copySeededLedger(t),
		"-slo", "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001",
		"-slo-interval", "1h",
	})
	defer stop()

	// One traced get, so the trace view is not empty.
	tr := trace.New(trace.NewFlightRecorder(8, 4), "probe")
	c, err := daemon.DialNode(bound.RPC, time.Second, transport.WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	root := tr.StartRoot("probe", trace.KindEpoch)
	if _, _, err := c.GetCtx(trace.ContextWithSpan(context.Background(), root), 1, []float64{1, 1}, "k"); err != nil {
		t.Fatal(err)
	}
	root.End()

	// Untraced calls on a bare transport client: they add no spans.
	raw, err := transport.Dial(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, v := range []struct {
		method, path string
		req          transport.BodyAppender
	}{
		{daemon.MethodExplain, "/explain?epoch=5", daemon.ExplainRequest{Epoch: 5}},
		{daemon.MethodExplain, "/explain", daemon.ExplainRequest{Epoch: -1}},
		{daemon.MethodSLO, "/slo", nil},
		{daemon.MethodTrace, "/trace", nil},
	} {
		var overRPC rawView
		if _, err := raw.Call(v.method, v.req, &overRPC); err != nil {
			t.Fatalf("%s RPC: %v", v.method, err)
		}
		resp, err := http.Get("http://" + bound.Metrics + v.path)
		if err != nil {
			t.Fatal(err)
		}
		overHTTP, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s, %v", v.path, resp.Status, err)
		}
		if len(overRPC) == 0 || !bytes.Equal(overRPC, overHTTP) {
			t.Errorf("%s: the RPC and HTTP bodies differ\n rpc  %.300s\n http %.300s", v.path, overRPC, overHTTP)
		}
	}
}
