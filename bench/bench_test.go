package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/georep/georep/bench/e2e"
	"github.com/georep/georep/bench/report"
)

// named lists, per workload, the metrics the benchmark promises by
// name: the end-to-end ones of an untraced run and the per-layer ones
// of a traced run. BENCHMARK.json must declare every name here, and
// every per-layer name it declares must appear here for some workload.
var named = map[string]struct{ endToEnd, perLayer []string }{
	e2e.LiveRead: {
		endToEnd: []string{"ops_per_s", "get_p50_us", "error_rate"},
		perLayer: append(transportLayer(),
			"daemon.get_handle_us", "daemon.handler_self_us", "daemon.unmarshal_get_ns", "daemon.marshal_get_ns",
			"store.get_ns", "cluster.observe_ns", "get_p50_us"),
	},
	e2e.LiveMixed: {
		endToEnd: []string{"ops_per_s", "get_p50_us", "put_p50_us", "error_rate"},
		perLayer: append(transportLayer(),
			"daemon.get_handle_us", "daemon.handler_self_us", "store.get_ns", "cluster.observe_ns",
			"daemon.put_handle_us", "store.put_ns", "replog.append_ns", "replog.frame_ns", "replog.appends", "replog.compactions",
			"daemon.micros_us", "daemon.decay_us", "daemon.replicate_us", "daemon.summary_bytes",
			"replog.encode_batch_ns_per_entry", "replog.decode_batch_ns_per_entry",
			"cluster.encode_micros_ns", "cluster.decode_micros_ns", "get_p50_us", "put_p50_us"),
	},
	e2e.Ingest1M: {
		endToEnd: []string{"accesses_per_s", "tick_ms_p50", "error_rate"},
		perLayer: append(epochLayer(),
			"cluster.observe_sharded_ns", "replica.record_batch_ns_per_access", "cluster.summary_us",
			"replica.allocs_per_tick", "replica.alloc_bytes_per_tick", "trace.delta_us", "workload.advance_us"),
	},
	e2e.Fleet10K: {
		endToEnd: []string{"accesses_per_s", "tick_ms_p50", "error_rate"},
		perLayer: append(epochLayer(), serviceLayer()...),
	},
	e2e.DecideK4: {
		endToEnd: []string{"accesses_per_s", "tick_ms_p50", "error_rate"},
		perLayer: append(append(epochLayer(), serviceLayer()...),
			"placement.refine_delta_us", "metrics.delta_us", "ledger.delta_us", "slo.delta_us",
			"provenance.delta_us", "trace.delta_us", "epoch.stack_gap_us"),
	},
}

func transportLayer() []string {
	return []string{
		"transport.encode_us", "transport.decode_us", "transport.rtt_us", "transport.wire_us",
		"transport.server_handle_us", "transport.ping_us", "transport.marshal_get_ns", "transport.unmarshal_get_ns",
		"transport.allocs_per_call", "transport.alloc_bytes_per_call", "transport.req_body_bytes",
		"transport.resp_body_bytes", "transport.calls", "transport.errors", "transport.retries", "transport.redials",
		"workload.next_ns_per_access", "workload.generator_share",
		"rpc.attributed_us", "rpc.unattributed_us", "rpc.budget_coverage", "trace.harness_overhead_pct",
	}
}

func epochLayer() []string {
	return []string{
		"workload.next_ns_per_access", "workload.generator_share",
		"replica.begin_epoch_us", "replica.complete_epoch_us", "replica.estimate_delay_us", "replica.migrations",
		"cluster.kmeans_us", "placement.search_us", "audit.replay_us_per_epoch",
		"epoch.base_us", "epoch.all_on_us", "ledger.append_us", "ledger.bytes_per_record",
		"metrics.history_sample_us", "slo.evaluate_us",
		"tick.attributed_us", "tick.unattributed_us", "tick.budget_coverage", "trace.harness_overhead_pct",
		"tick_ms_p50",
	}
}

func serviceLayer() []string {
	return []string{
		"placement.feed_ns_per_access", "placement.tick_us_per_object", "placement.groups", "placement.solves",
		"placement.drift_skips", "placement.allocs_per_tick",
	}
}

// maySign lists metrics that are differences or counts and may read
// zero or below; every other named metric must be positive.
var maySign = map[string]bool{
	"error_rate": true, "transport.errors": true, "transport.retries": true, "transport.redials": true,
	"replog.compactions": true, "replica.migrations": true, "placement.drift_skips": true,
	"daemon.handler_self_us": true, "rpc.unattributed_us": true, "tick.unattributed_us": true,
	"trace.harness_overhead_pct": true, "placement.refine_delta_us": true, "metrics.delta_us": true,
	"ledger.delta_us": true, "slo.delta_us": true, "provenance.delta_us": true, "trace.delta_us": true,
	"epoch.stack_gap_us": true, "workload.advance_us": true,
}

func quick(t *testing.T, workload string, seed int64, trace bool) *report.Result {
	t.Helper()
	out := t.TempDir()
	res, err := runWorkload(options{
		workload: workload, seed: seed, seconds: 0.3, trace: trace, quick: true, outDir: out,
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	for _, c := range res.Checks {
		if c.Failed > 0 {
			t.Errorf("%s seed %d: check %s failed x%d: %s", workload, seed, c.Name, c.Failed, c.Detail)
		}
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s seed %d: attempted %d, failed %d", workload, seed, res.Attempted, res.Failed)
	}
	// Scratch ledgers are gone; only span files may remain.
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".spans.jsonl") {
			t.Errorf("%s left %s behind in the output directory", workload, e.Name())
		}
	}
	if trace && len(entries) != 1 {
		t.Errorf("%s traced run wrote %d files, want its span file", workload, len(entries))
	}
	return res
}

func requireMetrics(t *testing.T, res *report.Result, names []string) {
	t.Helper()
	for _, name := range names {
		m, ok := res.Get(name)
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, name, m.Value)
		case m.Value <= 0 && !maySign[name]:
			t.Errorf("%s: metric %s = %v, want positive", res.Workload, name, m.Value)
		case m.Unit == "":
			t.Errorf("%s: metric %s has no unit", res.Workload, name)
		}
	}
}

// TestQuickPass runs all five workloads at smoke-test size, untraced and
// traced, and checks that every named metric is reported and every
// correctness check passes; a second seed must run clean too.
func TestQuickPass(t *testing.T) {
	spec, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2eNames []string
	for _, m := range spec.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	declared := make(map[string]bool)
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	// Tail percentiles appear only once a run has ten samples beyond
	// them, which a smoke-test window does not guarantee.
	produced := map[string]bool{"get_p99_us": true, "put_p99_us": true, "tick_ms_p90": true}

	var layerNames []string
	for _, m := range spec.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	for _, w := range e2e.Workloads {
		t.Run(w, func(t *testing.T) {
			res := quick(t, w, 1, false)
			requireMetrics(t, res, e2eNames)
			requireMetrics(t, res, named[w].endToEnd)
			checkContractLine(t, res, spec, e2eNames)

			tr := quick(t, w, 1, true)
			requireMetrics(t, tr, named[w].perLayer)
			for _, name := range named[w].perLayer {
				produced[name] = true
				if !declared[name] {
					t.Errorf("%s reports per-layer metric %s, which BENCHMARK.json does not declare", w, name)
				}
			}
			checkContractLine(t, tr, spec, layerNames)

			quick(t, w, 2, false)
		})
	}
	for name := range declared {
		if !produced[name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, which no workload is required to report", name)
		}
	}
}

// checkContractLine verifies the driver-facing result object: exactly
// the four top-level keys, exactly the declared metrics, each a value
// and a unit.
func checkContractLine(t *testing.T, res *report.Result, spec *report.Spec, want []string) {
	t.Helper()
	line, err := contractLine(res, spec)
	if err != nil {
		t.Fatalf("%s: %v", res.Workload, err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatalf("%s: %v", res.Workload, err)
	}
	if len(top) != 4 {
		t.Errorf("%s: result object has keys %v, want correct/attempted/failed/metrics", res.Workload, top)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatalf("%s: %v", res.Workload, err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: result object has %d metrics, want %d", res.Workload, len(metrics), len(want))
	}
	for _, name := range want {
		m, ok := metrics[name]
		if !ok || len(m) != 2 || m["unit"] == "" {
			t.Errorf("%s: result metric %s = %v", res.Workload, name, m)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-compare", "only-one.json"},
		{"-seconds", "-1"},
		{"stray"},
	} {
		if err := run(append(args, "-quick", "-out", t.TempDir()), os.Stdout); err == nil {
			t.Errorf("bench %v: want an error", args)
		}
	}
}
