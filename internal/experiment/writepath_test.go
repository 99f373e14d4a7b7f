package experiment

import (
	"strings"
	"testing"

	"github.com/georep/georep/internal/trace"
)

func testWritePathConfig() WritePathConfig {
	cfg := DefaultWritePathConfig()
	cfg.Setup.Nodes = 60
	cfg.Setup.CoordRounds = 40
	cfg.NumDCs = 8
	cfg.AccessesPerEpoch = 600
	return cfg
}

func TestWritePathHealthyVsFaulted(t *testing.T) {
	res, err := WritePath(3, testWritePathConfig())
	if err != nil {
		t.Fatalf("WritePath: %v", err)
	}
	if len(res.Healthy) != 12 || len(res.Faulted) != 12 {
		t.Fatalf("want 12 rows per pass, got %d/%d", len(res.Healthy), len(res.Faulted))
	}
	// The healthy pass must satisfy every staleness contract: session
	// reads find the leader, bounded reads fit the bound.
	if res.HealthyViolations != 0 {
		t.Fatalf("healthy run counted %d staleness violations", res.HealthyViolations)
	}
	for _, r := range res.Healthy {
		if r.Degraded != 0 || r.Failovers != 0 || r.FailedWrites != 0 {
			t.Fatalf("healthy row not clean: %+v", r)
		}
	}
	// The faulted pass must show the anomalies the plan injects.
	if res.FaultedFailovers == 0 {
		t.Fatalf("fault plan deposed no leader")
	}
	if res.FaultedViolations == 0 {
		t.Fatalf("faulted run counted no staleness violations")
	}
	var snapshots, fenced, catchup int64
	for _, r := range res.Faulted {
		snapshots += r.Snapshots
		fenced += r.Fenced
		catchup += r.CatchupBytes
	}
	if snapshots == 0 {
		t.Fatalf("three-epoch follower outage forced no snapshot catch-up")
	}
	if fenced == 0 {
		t.Fatalf("zombie leader was never fenced")
	}
	if catchup == 0 {
		t.Fatalf("no catch-up traffic recorded")
	}
	// Writes keep flowing: the faulted run still acks most of the load.
	if res.FaultedAcked == 0 || res.HealthyAcked == 0 {
		t.Fatalf("acked totals: healthy %d faulted %d", res.HealthyAcked, res.FaultedAcked)
	}
	out := RenderWritePath(res)
	for _, want := range []string{"plan:", "lag p99", "failovers", "converged", "budget", "slo:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	// The SLO engine rides both passes: healthy traffic never leaves
	// ok, and every healthy row keeps its full budget.
	if len(res.HealthyTransitions) != 0 {
		t.Fatalf("healthy pass made SLO transitions: %+v", res.HealthyTransitions)
	}
	for _, r := range res.Healthy {
		if r.SLOState != "ok" || r.SLOBudget != 1 || r.SLOBurn != 0 {
			t.Fatalf("healthy row burned budget: %+v", r)
		}
	}
	// The faulted pass burns: budget is spent by the end, at least one
	// epoch pages, and the last epoch has left page (burn recovered).
	var paged bool
	for _, r := range res.Faulted {
		if r.SLOState == "page" {
			paged = true
		}
	}
	if !paged {
		t.Fatal("no faulted epoch reached page")
	}
	if last := res.Faulted[len(res.Faulted)-1]; last.SLOState == "page" {
		t.Fatalf("burn did not recover after heal: %+v", last)
	}
	if res.Faulted[0].SLOBudget <= res.Faulted[len(res.Faulted)-1].SLOBudget {
		t.Fatalf("budget did not burn across the pass: first %+v last %+v",
			res.Faulted[0].SLOBudget, res.Faulted[len(res.Faulted)-1].SLOBudget)
	}
	// At least one page transition pinned an epoch trace that is
	// retained in the exported trees, and the lag pages name exemplar
	// traces that are retained too.
	retained := map[string]bool{}
	roots := map[string]trace.Span{}
	for _, tr := range res.Traces {
		retained[tr.TraceID] = true
		for _, s := range tr.Spans {
			if s.Root() {
				roots[tr.TraceID] = s
			}
		}
	}
	var pinOK, exOK bool
	for _, tr := range res.Transitions {
		if tr.To.String() != "page" {
			continue
		}
		if tr.PinnedTrace == "" || !retained[tr.PinnedTrace] {
			t.Fatalf("page transition pin missing from exported traces: %+v", tr)
		}
		// The pin is the paging epoch's own tree, open when the page fired.
		if r := roots[tr.PinnedTrace]; tr.AtNs <= r.StartNs || tr.AtNs > r.StartNs+r.DurNs {
			t.Fatalf("page at %d pinned the epoch spanning %d..%d", tr.AtNs, r.StartNs, r.StartNs+r.DurNs)
		}
		pinOK = true
		for _, id := range tr.Exemplars {
			if !retained[id] {
				t.Fatalf("exemplar trace %s not retained", id)
			}
			exOK = true
		}
	}
	if !pinOK {
		t.Fatal("no page transition carried a pinned trace")
	}
	if !exOK {
		t.Fatal("no page transition carried exemplar trace IDs")
	}
}

func TestWritePathValidates(t *testing.T) {
	cfg := testWritePathConfig()
	cfg.WriteFraction = 0
	if _, err := WritePath(1, cfg); err == nil {
		t.Fatalf("zero write fraction accepted")
	}
	cfg = testWritePathConfig()
	cfg.Epochs = 6
	if _, err := WritePath(1, cfg); err == nil {
		t.Fatalf("short default scenario accepted")
	}
	cfg = testWritePathConfig()
	cfg.K = 1
	if _, err := WritePath(1, cfg); err == nil {
		t.Fatalf("K=1 write path accepted")
	}
}
