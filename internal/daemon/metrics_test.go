package daemon

import (
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/vec"
)

// TestMetricsAdvanceAcrossEpoch drives one full coordination epoch over
// a two-daemon fleet — reads, summary collection, placement proposal,
// migration via put/delete, decay — and asserts the metric counters on
// every layer advanced: per-method RPC counts, transport bytes, summary
// bytes, and the put/delete traffic of the migration itself.
func TestMetricsAdvanceAcrossEpoch(t *testing.T) {
	// Node 0 holds the object; clients cluster around node 1's position,
	// so the epoch's placement proposal migrates the replica to node 1.
	n0, c0 := startNode(t, Config{ID: 0, MicroClusters: 4, Dims: 2, Coordinate: []float64{0, 0}})
	n1, c1 := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2, Coordinate: []float64{100, 100}})

	if err := c0.Put("obj", []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}

	before0 := n0.Snapshot()
	const reads = 10
	for i := 0; i < reads; i++ {
		if _, _, err := c0.Get(2, []float64{99, 101}, "obj"); err != nil {
			t.Fatal(err)
		}
	}

	// RPC counters and transport bytes advanced with the reads.
	mid0 := n0.Snapshot()
	if got := mid0.Counters["daemon_rpc_get_total"] - before0.Counters["daemon_rpc_get_total"]; got != reads {
		t.Errorf("daemon_rpc_get_total advanced by %d, want %d", got, reads)
	}
	if mid0.Counters["daemon_rpc_total"] <= before0.Counters["daemon_rpc_total"] {
		t.Error("daemon_rpc_total did not advance")
	}
	if mid0.Counters["daemon_summarized_accesses_total"] != reads {
		t.Errorf("daemon_summarized_accesses_total = %d, want %d",
			mid0.Counters["daemon_summarized_accesses_total"], reads)
	}
	if mid0.Counters["transport_server_bytes_in_total"] <= before0.Counters["transport_server_bytes_in_total"] {
		t.Error("transport_server_bytes_in_total did not advance")
	}
	if mid0.Counters["transport_server_bytes_out_total"] <= before0.Counters["transport_server_bytes_out_total"] {
		t.Error("transport_server_bytes_out_total did not advance")
	}
	if h := mid0.Histograms["daemon_rpc_get_ms"]; h.Count != reads {
		t.Errorf("daemon_rpc_get_ms count = %d, want %d", h.Count, reads)
	}

	// Epoch: collect summaries (the O(k·m) bytes the paper ships).
	micros, wire, err := c0.Micros()
	if err != nil {
		t.Fatal(err)
	}
	if len(micros) == 0 || wire <= 0 {
		t.Fatalf("micros = %d clusters, %d bytes", len(micros), wire)
	}
	post0 := n0.Snapshot()
	if got := post0.Counters["daemon_summary_bytes_total"]; got != int64(wire) {
		t.Errorf("daemon_summary_bytes_total = %d, want %d", got, wire)
	}

	// Propose a placement from the summaries and migrate.
	coords := []coord.Coordinate{{Pos: vec.Vec{0, 0}}, {Pos: vec.Vec{100, 100}}}
	proposed, err := replica.ProposePlacement(rand.New(rand.NewSource(1)), micros, 1, []int{0, 1}, coords)
	if err != nil {
		t.Fatal(err)
	}
	if len(proposed) != 1 || proposed[0] != 1 {
		t.Fatalf("proposed = %v, want [1] (clients sit at node 1)", proposed)
	}
	ops, err := store.PlanMigration("obj", []int{0}, proposed)
	if err != nil {
		t.Fatal(err)
	}
	clients := map[int]*Client{0: c0, 1: c1}
	for _, op := range ops {
		if op.Copy {
			resp, _, err := clients[op.Source].Get(-1, nil, "obj")
			if err != nil {
				t.Fatal(err)
			}
			if err := clients[op.Target].Put("obj", resp.Data, resp.Version+1); err != nil {
				t.Fatal(err)
			}
		} else if err := clients[op.Target].Delete("obj"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c0.Decay(0.5); err != nil {
		t.Fatal(err)
	}

	// The migration is visible as put/delete RPC counters on each side.
	if got := n1.Snapshot().Counters["daemon_rpc_put_total"]; got != 1 {
		t.Errorf("target daemon_rpc_put_total = %d, want 1 (migration copy)", got)
	}
	end0 := n0.Snapshot()
	if got := end0.Counters["daemon_rpc_delete_total"]; got != 1 {
		t.Errorf("source daemon_rpc_delete_total = %d, want 1 (migration drop)", got)
	}
	if end0.Counters["daemon_rpc_decay_total"] != 1 {
		t.Errorf("daemon_rpc_decay_total = %d, want 1", end0.Counters["daemon_rpc_decay_total"])
	}
	if _, err := n1.store.Get("obj"); err != nil {
		t.Fatalf("object did not arrive at migration target: %v", err)
	}
}

// TestMetricsRPC asserts the metrics snapshot survives the wire
// round-trip through the metrics method.
func TestMetricsRPC(t *testing.T) {
	_, c := startNode(t, Config{ID: 3, MicroClusters: 4, Dims: 2})
	if err := c.Put("o", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(1, []float64{1, 1}, "o"); err != nil {
		t.Fatal(err)
	}
	s, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["daemon_rpc_get_total"] != 1 {
		t.Errorf("remote daemon_rpc_get_total = %d, want 1", s.Counters["daemon_rpc_get_total"])
	}
	if s.Counters["daemon_rpc_put_total"] != 1 {
		t.Errorf("remote daemon_rpc_put_total = %d, want 1", s.Counters["daemon_rpc_put_total"])
	}
	h, ok := s.Histograms["daemon_rpc_get_ms"]
	if !ok || h.Count != 1 {
		t.Errorf("remote get latency histogram = %+v ok=%v", h, ok)
	}
	// The metrics call itself is instrumented and visible on the next
	// snapshot.
	s2, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Counters["daemon_rpc_metrics_total"] < 1 {
		t.Errorf("daemon_rpc_metrics_total = %d, want >= 1", s2.Counters["daemon_rpc_metrics_total"])
	}
}
