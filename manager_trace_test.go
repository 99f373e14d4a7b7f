package georep

import (
	"strings"
	"testing"

	"github.com/georep/georep/internal/trace"
)

// TestManagerTracing checks the manager's epoch span trees: a healthy
// epoch yields a complete tree (collect per replica, kmeans, decide), a
// below-quorum epoch is pinned as anomalous with its unreachable
// replicas named on errored collect spans.
func TestManagerTracing(t *testing.T) {
	d := smallDeployment(t)
	candidates, clients := splitNodes(d, 6)
	m, err := d.NewManager(ManagerConfig{K: 3, Candidates: candidates, Quorum: 0.6, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := m.TraceRecorder()
	if rec == nil {
		t.Fatal("Tracing enabled but TraceRecorder is nil")
	}
	record := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := m.RecordAccess(clients[i%len(clients)], 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	record(200)
	if _, err := m.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces after healthy epoch: %d", len(traces))
	}
	healthy := traces[0]
	if healthy.Anomaly != "" {
		t.Fatalf("healthy epoch pinned anomalous: %q", healthy.Anomaly)
	}
	kinds := map[string]int{}
	for _, s := range healthy.Spans {
		kinds[s.Kind]++
	}
	if kinds[trace.KindEpoch] != 1 || kinds[trace.KindCollect] != 3 ||
		kinds[trace.KindKMeans] != 1 || kinds[trace.KindDecide] != 1 {
		t.Fatalf("healthy epoch span kinds: %v", kinds)
	}

	// Two of three replicas down: below quorum, anomalous trace pinned.
	record(200)
	down := m.Replicas()[:2]
	rep, err := m.EndEpochWithOutages(2, down)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.QuorumOK {
		t.Fatalf("expected below-quorum epoch: %+v", rep)
	}
	var anom []trace.Trace
	for _, tr := range rec.Traces() {
		if tr.Anomaly != "" {
			anom = append(anom, tr)
		}
	}
	if len(anom) != 1 {
		t.Fatalf("anomalous traces: %d", len(anom))
	}
	tr := anom[0]
	if tr.Anomaly != "below_quorum" {
		t.Fatalf("anomaly = %q, want below_quorum", tr.Anomaly)
	}
	// The unreachable replicas are named on errored collect spans.
	failed := map[string]bool{}
	for _, s := range tr.Spans {
		if s.Kind == trace.KindCollect && s.Err != "" {
			for _, kv := range s.Attrs {
				if kv.Key == "replica" {
					failed[kv.Value] = true
				}
			}
			if !strings.Contains(s.Err, "unreachable") && !strings.Contains(s.Err, "stale") {
				t.Errorf("collect span err %q names no cause", s.Err)
			}
		}
	}
	if len(failed) != 2 {
		t.Fatalf("errored collect spans name replicas %v, want both of %v", failed, down)
	}

	// The tree renders and exports without losing the anomaly.
	var sb strings.Builder
	if err := trace.WriteJSONL(&sb, []trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Spans) != len(tr.Spans) {
		t.Fatalf("JSONL round trip lost spans: %d -> %d", len(tr.Spans), len(back[0].Spans))
	}
	tree := trace.RenderTree(tr)
	if !strings.Contains(tree, "epoch 2") || !strings.Contains(tree, "below_quorum") ||
		!strings.Contains(tree, "unreachable") {
		t.Fatalf("rendered tree:\n%s", tree)
	}
}

// TestManagerTracingDisabled: without the knob, no recorder is allocated
// and epochs run exactly as before.
func TestManagerTracingDisabled(t *testing.T) {
	d := smallDeployment(t)
	candidates, clients := splitNodes(d, 6)
	m, err := d.NewManager(ManagerConfig{K: 3, Candidates: candidates})
	if err != nil {
		t.Fatal(err)
	}
	if m.TraceRecorder() != nil {
		t.Fatal("recorder allocated without Tracing")
	}
	for i := 0; i < 50; i++ {
		if _, _, err := m.RecordAccess(clients[i%len(clients)], 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
}
