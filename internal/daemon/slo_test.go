package daemon

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
)

// TestSLORPCPagesOnErrorBurn starts a node whose only traffic is
// failing RPCs, with an availability SLO over the daemon error
// counters sampled every few milliseconds. The burn rate saturates,
// the objective pages, and the slo RPC reports it — with the page
// transition pinning the latest retained trace.
func TestSLORPCPagesOnErrorBurn(t *testing.T) {
	rec := trace.NewFlightRecorder(8, 8)
	var transitions []slo.Transition
	n, _ := startNode(t, Config{
		ID: 3, MicroClusters: 4, Dims: 2,
		Trace:           rec,
		SLOSpec:         "availability ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001",
		SLOInterval:     5 * time.Millisecond,
		OnSLOTransition: func(tr slo.Transition) { transitions = append(transitions, tr) },
	})

	// Traced client: the server only retains spans for requests that
	// carry trace context, and the page pin needs something retained.
	cliTr := trace.New(trace.NewFlightRecorder(8, 8), "cli",
		trace.WithRand(rand.New(rand.NewSource(1))))
	c, err := DialNode(n.Addr(), 2*time.Second,
		transport.WithCallTimeout(2*time.Second), transport.WithClientTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	var st slo.Status
	for {
		// Every failing get is a bad event over a total of one.
		root := cliTr.StartRoot("probe", trace.KindEpoch)
		_, _, gerr := c.GetCtx(trace.ContextWithSpan(context.Background(), root), 0, nil, "missing")
		root.End()
		if gerr == nil {
			t.Fatal("get of missing object succeeded")
		}
		var err error
		st, err = c.SLO()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Objectives) == 1 && st.Objectives[0].State == slo.StatePage {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("objective never paged: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	o := st.Objectives[0]
	if o.Name != "availability" {
		t.Fatalf("objective name = %q", o.Name)
	}
	if o.BurnFastShort < st.PageBurn {
		t.Fatalf("paging with fast burn %v below threshold %v", o.BurnFastShort, st.PageBurn)
	}
	if o.BudgetRemaining >= 1 {
		t.Fatalf("budget untouched at %v despite full-error traffic", o.BudgetRemaining)
	}

	n.Close() // stop the sampler before reading the transition slice
	var page *slo.Transition
	for i := range transitions {
		if transitions[i].To == slo.StatePage {
			page = &transitions[i]
		}
	}
	if page == nil {
		t.Fatal("no page transition observed")
	}
	if page.PinnedTrace == "" {
		t.Fatal("page transition did not pin a trace")
	}
	tr, ok := traceByID(rec, page.PinnedTrace)
	if !ok {
		t.Fatalf("pinned trace %s not retained", page.PinnedTrace)
	}
	if !strings.HasPrefix(tr.Anomaly, "slo_page:") {
		t.Fatalf("pinned trace anomaly = %q", tr.Anomaly)
	}
}

// TestSLORPCDisabled verifies the slo RPC fails cleanly when the node
// runs without a spec, and that a bad spec is rejected at construction.
func TestSLORPCDisabled(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if _, err := c.SLO(); err == nil {
		t.Fatal("slo RPC succeeded without -slo")
	}
	if _, err := NewNode(Config{ID: 1, MicroClusters: 4, Dims: 2,
		SLOSpec: "bad p99(("}); err == nil {
		t.Fatal("bad spec accepted")
	}
}
