package experiment

import (
	"strings"
	"testing"

	"github.com/georep/georep/internal/trace"
)

func quickFailureConfig() FailureConfig {
	cfg := DefaultFailureConfig()
	cfg.Setup.Nodes = 60
	cfg.Setup.CoordRounds = 120
	cfg.NumDCs = 8
	cfg.Epochs = 9
	cfg.AccessesPerEpoch = 300
	return cfg
}

func TestFailureValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FailureConfig)
	}{
		{"numDCs zero", func(c *FailureConfig) { c.NumDCs = 0 }},
		{"numDCs too big", func(c *FailureConfig) { c.NumDCs = c.Setup.Nodes }},
		{"k zero", func(c *FailureConfig) { c.K = 0 }},
		{"k > DCs", func(c *FailureConfig) { c.K = c.NumDCs + 1 }},
		{"m zero", func(c *FailureConfig) { c.M = 0 }},
		{"no accesses", func(c *FailureConfig) { c.AccessesPerEpoch = 0 }},
		{"default plan too short", func(c *FailureConfig) { c.Epochs = 4 }},
		{"negative timeout", func(c *FailureConfig) { c.TimeoutMs = -1 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickFailureConfig()
			tt.mut(&cfg)
			if _, err := Failure(1, cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestFailureScenario(t *testing.T) {
	cfg := quickFailureConfig()
	res, err := Failure(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cfg.Epochs {
		t.Fatalf("rows = %d, want %d", len(res.Rows), cfg.Epochs)
	}
	if res.Plan == "" {
		t.Error("result carries no plan string")
	}
	if res.DroppedLegs == 0 {
		t.Error("fault plan dropped no simulated legs")
	}
	if res.DegradedEpochs == 0 {
		t.Error("crash window produced no degraded epochs")
	}
	if res.QuorumBlockedEpochs == 0 {
		t.Error("double-crash epoch never fell below quorum")
	}
	// Failures cost latency: the faulty run must not beat healthy by more
	// than noise, and across the whole run it should be strictly worse
	// (every timeout-then-failover chain adds at least TimeoutMs).
	if res.MeanFaultyMs <= res.MeanHealthyMs {
		t.Errorf("faulty mean %.1f should exceed healthy mean %.1f",
			res.MeanFaultyMs, res.MeanHealthyMs)
	}
	sawFailover := false
	for _, r := range res.Rows {
		if r.HealthyMs <= 0 || r.FaultyMs <= 0 {
			t.Errorf("epoch %d has non-positive delays: %+v", r.Epoch, r)
		}
		if len(r.Replicas) != cfg.K {
			t.Errorf("epoch %d has %d replicas, want %d", r.Epoch, len(r.Replicas), cfg.K)
		}
		if r.FailoverGets > 0 {
			sawFailover = true
		}
		// The acceptance bar: no epoch below quorum commits a migration.
		if !r.QuorumOK && r.Migrated {
			t.Errorf("epoch %d migrated below quorum", r.Epoch)
		}
		// Degradation implies a missing summary, which implies the epoch
		// where it happened is marked — a below-quorum epoch is always
		// degraded.
		if !r.QuorumOK && !r.Degraded {
			t.Errorf("epoch %d below quorum but not degraded", r.Epoch)
		}
	}
	if !sawFailover {
		t.Error("no get ever failed over despite a crashed replica")
	}
}

func TestFailurePlacementFrozenBelowQuorum(t *testing.T) {
	cfg := quickFailureConfig()
	res, err := Failure(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rows {
		if r.QuorumOK || i == 0 {
			continue
		}
		prev := res.Rows[i-1].Replicas
		if len(prev) != len(r.Replicas) {
			t.Fatalf("epoch %d: replica count changed below quorum", r.Epoch)
		}
		for j := range prev {
			if prev[j] != r.Replicas[j] {
				t.Errorf("epoch %d: placement changed below quorum: %v -> %v",
					r.Epoch, prev, r.Replicas)
				break
			}
		}
	}
}

func TestFailurePlanOverride(t *testing.T) {
	cfg := quickFailureConfig()
	cfg.Epochs = 3
	cfg.Plan = "crash 0@1-1"
	res, err := Failure(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "crash 0@1") {
		t.Errorf("plan override lost: %q", res.Plan)
	}
}

func TestRenderFailure(t *testing.T) {
	cfg := quickFailureConfig()
	res, err := Failure(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFailure(res)
	for _, want := range []string{"plan:", "healthy", "faulty", "degraded", "mean:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFailureSyntheticTraces: with a recorder attached the faulty pass
// emits one span tree per epoch, degraded epochs are pinned anomalous,
// and the errored collect spans name the faulted node.
func TestFailureSyntheticTraces(t *testing.T) {
	cfg := quickFailureConfig()
	rec := trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
	cfg.Trace = rec
	res, err := Failure(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != cfg.Epochs {
		t.Fatalf("recorder holds %d traces, want %d", rec.Len(), cfg.Epochs)
	}
	if res.DegradedEpochs == 0 {
		t.Fatal("scenario produced no degraded epochs; the trace assertions below are vacuous")
	}
	var anom []trace.Trace
	for _, tr := range rec.Traces() {
		if tr.Anomaly != "" {
			anom = append(anom, tr)
		}
	}
	if len(anom) == 0 {
		t.Fatal("no anomalous traces pinned")
	}
	var sawNamedFault, multiNode bool
	for _, tr := range anom {
		if tr.Anomaly != "degraded" && tr.Anomaly != "below_quorum" && tr.Anomaly != "migrated" {
			t.Errorf("unexpected anomaly %q", tr.Anomaly)
		}
		nodes := map[string]bool{}
		for _, s := range tr.Spans {
			nodes[s.Node] = true
			if s.Kind == trace.KindCollect && s.Err != "" &&
				(strings.Contains(s.Err, "crashed") || strings.Contains(s.Err, "partitioned") ||
					strings.Contains(s.Err, "dropping")) {
				sawNamedFault = true
			}
		}
		if len(nodes) > 1 {
			multiNode = true
		}
	}
	if !sawNamedFault {
		t.Error("no anomalous trace names the fault that caused it")
	}
	if !multiNode {
		t.Error("no anomalous trace spans more than one node")
	}
	// Span timestamps ride the simulated clock: epoch roots must be
	// strictly ordered and non-overlapping tree roots.
	traces := rec.Traces()
	var prevStart int64 = -1
	for _, tr := range traces {
		start := tr.Spans[0].StartNs
		for _, s := range tr.Spans {
			start = min(start, s.StartNs)
		}
		if start <= prevStart {
			t.Fatalf("epoch roots not ordered by sim time: %d after %d", start, prevStart)
		}
		prevStart = start
	}
	// Identical seeds and configs must produce identical span trees.
	rec2 := trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous)
	cfg2 := quickFailureConfig()
	cfg2.Trace = rec2
	if _, err := Failure(1, cfg2); err != nil {
		t.Fatal(err)
	}
	a, b := rec.Traces(), rec2.Traces()
	if len(a) != len(b) {
		t.Fatalf("trace counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TraceID != b[i].TraceID || len(a[i].Spans) != len(b[i].Spans) {
			t.Fatalf("trace %d differs across identical runs", i)
		}
	}
}
