package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
)

// startDaemon runs the daemon in a goroutine and returns its addresses
// and a stopper.
func startDaemon(t *testing.T, args []string) (bound addrs, stop func()) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, sig, ready) }()
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	return bound, func() {
		sig <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop")
		}
	}
}

func TestDaemonServesAndShutsDown(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-node", "4", "-dims", "2",
		"-coord", "1.5,2.5", "-height", "0.5",
	})
	defer stop()
	if bound.Metrics != "" {
		t.Errorf("metrics address %q bound without -metrics-addr", bound.Metrics)
	}

	c, err := daemon.DialNode(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.Get(1, []float64{0, 0}, "k")
	if err != nil || string(resp.Data) != "v" {
		t.Fatalf("get: %v %+v", err, resp)
	}
	cr, err := c.Coord()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Node != 4 || len(cr.Pos) != 2 || cr.Pos[0] != 1.5 || cr.Height != 0.5 {
		t.Errorf("coord = %+v", cr)
	}
}

func TestDaemonWithMatrixDelay(t *testing.T) {
	dir := t.TempDir()
	matrix := filepath.Join(dir, "m.txt")
	// 2 nodes, RTT 50ms; timescale 1 so a read from client 1 sleeps 50ms.
	if err := os.WriteFile(matrix, []byte("2\n0 50\n50 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-node", "0", "-dims", "2", "-matrix", matrix,
	})
	defer stop()

	c, err := daemon.DialNode(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	_, rtt, err := c.Get(1, []float64{0, 0}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 50*time.Millisecond {
		t.Errorf("rtt %v below emulated 50ms", rtt)
	}
}

// TestMetricsEndpoint drives RPCs at a daemon and asserts the JSON
// metrics endpoints serve a snapshot whose counters advance.
func TestMetricsEndpoint(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-node", "2", "-dims", "2", "-coord", "3,4",
	})
	defer stop()
	if bound.Metrics == "" {
		t.Fatal("no metrics address bound")
	}

	c, err := daemon.DialNode(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	const reads = 3
	for i := 0; i < reads; i++ {
		if _, _, err := c.Get(1, []float64{1, 1}, "k"); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(path string) metrics.Snapshot {
		t.Helper()
		resp, err := http.Get("http://" + bound.Metrics + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s", path, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		s, err := metrics.UnmarshalSnapshot(body)
		if err != nil {
			t.Fatalf("bad snapshot JSON: %v\n%s", err, body)
		}
		return s
	}

	s := fetch("/metrics.json")
	if got := s.Counters["daemon_rpc_get_total"]; got != reads {
		t.Errorf("daemon_rpc_get_total = %d, want %d", got, reads)
	}
	if s.Counters["transport_server_requests_total"] < reads+1 {
		t.Errorf("transport_server_requests_total = %d, want >= %d",
			s.Counters["transport_server_requests_total"], reads+1)
	}
	if h := s.Histograms["daemon_rpc_get_ms"]; h.Count != reads {
		t.Errorf("daemon_rpc_get_ms count = %d, want %d", h.Count, reads)
	}

	// Counters advance across further traffic.
	if _, _, err := c.Get(1, []float64{1, 1}, "k"); err != nil {
		t.Fatal(err)
	}
	s2 := fetch("/metrics.json")
	if s2.Counters["daemon_rpc_get_total"] != reads+1 {
		t.Errorf("daemon_rpc_get_total after extra read = %d, want %d",
			s2.Counters["daemon_rpc_get_total"], reads+1)
	}

	// /metrics.json has no second name.
	resp, err := http.Get("http://" + bound.Metrics + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %s, want 404", resp.Status)
	}
}

// TestPrometheusEndpoint asserts /metrics speaks the text exposition
// format: typed families, sane values, and counters matching traffic.
func TestPrometheusEndpoint(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-dims", "2",
	})
	defer stop()

	c, err := daemon.DialNode(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(1, []float64{1, 1}, "k"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + bound.Metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE georep_daemon_rpc_get_total counter",
		"georep_daemon_rpc_get_total 1",
		"# TYPE georep_daemon_rpc_get_ms histogram",
		`georep_daemon_rpc_get_ms_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHealthzEndpoint: the liveness probe answers 200 ok.
func TestHealthzEndpoint(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
	})
	defer stop()
	resp, err := http.Get("http://" + bound.Metrics + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %s %q", resp.Status, body)
	}
}

// TestTraceEndpoint: traced traffic surfaces as JSONL span trees at
// /trace and as trace_event JSON with ?format=chrome; -trace=false
// turns the endpoint into a 404.
func TestTraceEndpoint(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-node", "5", "-dims", "2",
	})
	defer stop()

	rec := trace.NewFlightRecorder(8, 4)
	tr := trace.New(rec, "probe")
	c, err := daemon.DialNode(bound.RPC, time.Second, transport.WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	root := tr.StartRoot("probe", trace.KindEpoch)
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, _, err := c.GetCtx(ctx, 1, []float64{1, 1}, "k"); err != nil {
		t.Fatal(err)
	}
	root.End()

	resp, err := http.Get("http://" + bound.Metrics + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace = %s", resp.Status)
	}
	traces, err := trace.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tt := range traces {
		for _, s := range tt.Spans {
			if s.Name == "serve.get" && s.Node == "node5" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no serve.get span from node5 in %d traces", len(traces))
	}

	chromeResp, err := http.Get("http://" + bound.Metrics + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome format: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace empty")
	}

	// Tracing off: endpoint 404s, daemon still serves RPCs.
	boundOff, stopOff := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-trace=false",
	})
	defer stopOff()
	offResp, err := http.Get("http://" + boundOff.Metrics + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	offResp.Body.Close()
	if offResp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /trace = %s, want 404", offResp.Status)
	}
}

// TestPprofOptIn: /debug/pprof/ is absent by default and served with
// -pprof.
func TestPprofOptIn(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
	})
	resp, err := http.Get("http://" + bound.Metrics + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof = %s, want 404", resp.Status)
	}

	bound, stop = startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-pprof",
	})
	defer stop()
	resp, err = http.Get("http://" + bound.Metrics + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -pprof = %s, want 200", resp.Status)
	}
}

func TestDaemonArgErrors(t *testing.T) {
	sig := make(chan os.Signal)
	cases := [][]string{
		{"-coord", "1,2", "-dims", "3"},            // dim mismatch
		{"-coord", "a,b", "-dims", "2"},            // bad floats
		{"-matrix", "/nonexistent"},                // missing matrix
		{"-m", "0"},                                // invalid budget
		{"-unknown-flag"},                          // flag error
		{"-log", "loud"},                           // unknown log level
		{"-log", "=debug"},                         // empty component
		{"-addr", "256.256.256.256:99999"},         // unbindable address
		{"-metrics-addr", "256.256.256.256:99999"}, // unbindable metrics address
	}
	for _, args := range cases {
		if err := run(args, sig, nil); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestDaemonMatrixNodeRange(t *testing.T) {
	dir := t.TempDir()
	matrix := filepath.Join(dir, "m.txt")
	if err := os.WriteFile(matrix, []byte("2\n0 50\n50 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal)
	err := run([]string{"-matrix", matrix, "-node", "9"}, sig, nil)
	if err == nil {
		t.Error("node outside matrix should fail")
	}
}

// copySeededLedger clones the committed seeded explain ledger (see
// cmd/georepctl/testdata) into a temp dir so the daemon under test
// never touches the committed artifact.
func copySeededLedger(t *testing.T) string {
	t.Helper()
	src := filepath.Join("..", "georepctl", "testdata", "explain_seed")
	segs, err := filepath.Glob(filepath.Join(src, "ledger-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no committed seeded ledger at %s: %v", src, err)
	}
	dir := t.TempDir()
	for _, s := range segs {
		raw, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(s)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestHealthzPagesWith503: once an SLO objective pages, the readiness
// probe flips to 503 with a JSON body naming the burning objective, and
// recovers to 200 is not asserted (the budget stays burned for the
// period) — orchestrators see the degradation the operator is paged
// for.
func TestHealthzPagesWith503(t *testing.T) {
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-dims", "2",
		"-slo", "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001",
		"-slo-interval", "5ms",
	})
	defer stop()

	c, err := daemon.DialNode(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Keep the budget burning: every get of a missing key errors, and
		// the page state needs bad events inside the fast windows.
		if _, _, err := c.Get(1, []float64{0, 0}, "missing-key"); err == nil {
			t.Fatal("get of a missing key should error")
		}
		resp, err := http.Get("http://" + bound.Metrics + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			var v struct {
				Status    string  `json:"status"`
				Objective string  `json:"objective"`
				BurnFast  float64 `json:"burn_fast"`
			}
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("healthz 503 body is not JSON: %v\n%s", err, body)
			}
			if v.Status != "degraded" || v.Objective != "avail" || v.BurnFast <= 1 {
				t.Fatalf("healthz 503 body = %+v", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never turned 503 while paging (last: %s %q)", resp.Status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExplainEndpointAndRPC: with -ledger-dir, the daemon serves
// decision provenance over both /explain and the explain RPC; without
// it, /explain 404s and the RPC fails with a pointer to the flag.
func TestExplainEndpointAndRPC(t *testing.T) {
	dir := copySeededLedger(t)
	bound, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-dims", "2",
		"-ledger-dir", dir,
	})
	defer stop()

	resp, err := http.Get("http://" + bound.Metrics + "/explain?epoch=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain = %s", resp.Status)
	}
	var rep struct {
		Epoch int `json:"epoch"`
		Rows  []struct {
			Prov *struct {
				Reason          string `json:"reason"`
				Counterfactuals []any  `json:"counterfactuals"`
			} `json:"prov"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 5 || len(rep.Rows) == 0 || rep.Rows[0].Prov == nil {
		t.Fatalf("/explain report = %+v", rep)
	}
	if rep.Rows[0].Prov.Reason != "held-budget" || len(rep.Rows[0].Prov.Counterfactuals) < 3 {
		t.Fatalf("epoch 5 provenance = %+v", rep.Rows[0].Prov)
	}

	// Bad epoch parameter is a client error, not a 500.
	badResp, err := http.Get("http://" + bound.Metrics + "/explain?epoch=x")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /explain?epoch=x = %s, want 400", badResp.Status)
	}

	// The RPC serves the same JSON to georepctl.
	c, err := daemon.DialNode(bound.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Explain(5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"reason":"held-budget"`) {
		t.Fatalf("explain RPC JSON missing provenance:\n%s", raw)
	}

	// No ledger: endpoint 404s, RPC errors with the flag hint.
	boundOff, stopOff := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-dims", "2",
	})
	defer stopOff()
	offResp, err := http.Get("http://" + boundOff.Metrics + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	offResp.Body.Close()
	if offResp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /explain = %s, want 404", offResp.Status)
	}
	cOff, err := daemon.DialNode(boundOff.RPC, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cOff.Close()
	if _, err := cOff.Explain(-1, ""); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("explain RPC without a ledger should fail with a hint, got %v", err)
	}
}
