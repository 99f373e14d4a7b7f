package slo

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/metrics"
)

func TestParseRoundTrip(t *testing.T) {
	in := "read_p99 p99(daemon_rpc_get_ms) <= 50; " +
		"staleness ratio(replog_ryw_violations_total+replog_monotonic_violations_total / replog_reads_total) <= 0.001; " +
		"lag gauge(replog_lag_entries_node_3) <= 200 budget 0.05"
	spec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Objectives) != 3 {
		t.Fatalf("parsed %d objectives; want 3", len(spec.Objectives))
	}
	o := spec.Objectives[0]
	if o.Kind != KindQuantile || o.Q != 0.99 || o.Metric != "daemon_rpc_get_ms" || o.Bound != 50 {
		t.Fatalf("quantile objective = %+v", o)
	}
	if math.Abs(o.Budget-0.01) > 1e-12 {
		t.Fatalf("default quantile budget = %v; want 1-q", o.Budget)
	}
	o = spec.Objectives[1]
	if o.Kind != KindRatio || len(o.Bad) != 2 || o.Total != "replog_reads_total" || o.Budget != 0.001 {
		t.Fatalf("ratio objective = %+v", o)
	}
	o = spec.Objectives[2]
	if o.Kind != KindGauge || o.Bound != 200 || o.Budget != 0.05 {
		t.Fatalf("gauge objective = %+v", o)
	}

	// Canonical text reparses to the same spec, and re-rendering is a
	// fixed point.
	canon := spec.String()
	spec2, err := Parse(canon)
	if err != nil {
		t.Fatalf("reparse %q: %v", canon, err)
	}
	if spec2.String() != canon {
		t.Fatalf("String not a fixed point:\n%q\n%q", canon, spec2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"nameonly",                       // no source
		"x p99(m) 50",                    // missing <=
		"x p99 m <= 50",                  // not KIND(ARGS)
		"x pxx(m) <= 50",                 // bad quantile digits
		"x p00(m) <= 50",                 // q = 0
		"x ratio(a) <= 0.1",              // no denominator
		"x ratio( / b) <= 0.1",           // empty numerator
		"x weird(m) <= 50",               // unknown kind
		"x p99(m) <=",                    // missing bound
		"x p99(m) <= banana",             // bad bound
		"x p99(m) <= 50 budget",          // dangling budget
		"x p99(m) <= 50 budget nope",     // bad budget
		"x p99(m) <= 50 fudge 0.1",       // unknown trailing
		"x p99(m) <= 50 budget 0",        // budget out of range
		"x p99(m) <= 50 budget 1.5",      // budget out of range
		"x p99(m) <= -1",                 // negative bound
		"x p99(m) <= NaN",                // NaN bound
		"x p99(bad metric) <= 50",        // invalid metric name
		"9x p99(m) <= 50",                // name starts with digit
		"a p99(m) <= 50; a p99(m) <= 60", // duplicate name
		"x ratio(a+b / ) <= 0.1",         // empty denominator
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) accepted", c)
		} else if !strings.HasPrefix(err.Error(), "slo:") {
			t.Errorf("Parse(%q) error not slo-prefixed: %v", c, err)
		}
	}
	if spec, err := Parse("  ;; "); err != nil || len(spec.Objectives) != 0 {
		t.Errorf("empty spec should parse clean: %v %v", spec, err)
	}
}

// testEngine builds a history+engine over second-granularity windows:
// fast 2s/6s, slow 10s/20s, period 60s, sampling every second.
func testEngine(t *testing.T, specText string, onT func(Transition)) (*metrics.Registry, *metrics.History, *Engine) {
	t.Helper()
	reg := metrics.NewRegistry()
	h := metrics.NewHistory(reg, 128)
	spec, err := Parse(specText)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(spec, Config{
		History: h,
		Windows: Windows{
			FastShort: 2 * time.Second,
			FastLong:  6 * time.Second,
			SlowShort: 10 * time.Second,
			SlowLong:  20 * time.Second,
			Period:    60 * time.Second,
		},
		PageBurn:     5,
		WarnBurn:     1.5,
		OnTransition: onT,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, h, e
}

func sec(s int) int64 { return int64(s) * 1e9 }

func TestEngineRatioBurnAndPage(t *testing.T) {
	var hooked []Transition
	reg, h, e := testEngine(t,
		"staleness ratio(bad_total / reads_total) <= 0.01",
		func(tr Transition) { hooked = append(hooked, tr) })
	bad := reg.Counter("bad_total")
	reads := reg.Counter("reads_total")

	var all []Transition
	now := 0
	step := func(badN, readN int64, secs int) {
		for i := 0; i < secs; i++ {
			bad.Add(badN)
			reads.Add(readN)
			now++
			h.Sample(sec(now))
			all = append(all, e.Evaluate(sec(now))...)
		}
	}

	step(0, 100, 10) // healthy
	if e.BudgetExhausted() {
		t.Fatal("healthy service reports exhausted budget")
	}
	st := e.Status()
	if st.Objectives[0].State != StateOK || st.Objectives[0].BurnFastShort != 0 {
		t.Fatalf("healthy status = %+v", st.Objectives[0])
	}

	step(30, 100, 10) // outage: 30% bad vs 1% budget = burn 30
	if len(all) == 0 {
		t.Fatal("no transitions during outage")
	}
	pageSeen := false
	for _, tr := range all {
		if tr.To == StatePage {
			pageSeen = true
		}
	}
	if !pageSeen {
		t.Fatalf("no page transition: %+v", all)
	}
	if len(hooked) != len(all) {
		t.Fatalf("OnTransition saw %d of %d transitions", len(hooked), len(all))
	}
	if g := reg.Gauge("slo_staleness_state").Value(); g != float64(StatePage) {
		t.Fatalf("state gauge = %v; want page", g)
	}
	if reg.Counter("slo_staleness_page_transitions_total").Value() == 0 {
		t.Fatal("page transition counter not incremented")
	}
	if !e.BudgetExhausted() {
		t.Fatal("paging service not reported exhausted")
	}

	// Heal: burn falls, state recovers to ok (fast windows drain in a
	// few samples; slow windows keep warn for a while, then clear).
	n := len(all)
	step(0, 100, 40)
	if st := e.Status(); st.Objectives[0].State != StateOK {
		t.Fatalf("state after heal = %v; want ok", st.Objectives[0].State)
	}
	recovered := false
	for _, tr := range all[n:] {
		if tr.To == StateOK || tr.To == StateWarn {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no recovery transition: %+v", all[n:])
	}
	if len(e.Status().Objectives[0].Spark) == 0 {
		t.Fatal("no sparkline samples")
	}
}

func TestEngineQuantileExemplars(t *testing.T) {
	reg, h, e := testEngine(t, "lat p90(delay_ms) <= 10", nil)
	hist := reg.Histogram("delay_ms", []float64{1, 10, 100, 1000})
	h.Sample(sec(0))
	e.Evaluate(sec(0))
	var trs []Transition
	for s := 1; s <= 6; s++ {
		for i := 0; i < 20; i++ {
			hist.Observe(500)
			hist.AttachExemplar(500, "trace-slow-epoch")
		}
		h.Sample(sec(s))
		trs = append(trs, e.Evaluate(sec(s))...)
	}
	var page *Transition
	for i := range trs {
		if trs[i].To == StatePage {
			page = &trs[i]
		}
	}
	if page == nil {
		t.Fatalf("all-slow quantile objective never paged: %+v", trs)
	}
	found := false
	for _, id := range page.Exemplars {
		if id == "trace-slow-epoch" {
			found = true
		}
	}
	if !found {
		t.Fatalf("page transition missing tail exemplar: %+v", page)
	}
	// Status surfaces the exemplars too.
	st := e.Status()
	if len(st.Objectives[0].Exemplars) == 0 {
		t.Fatal("status missing exemplars")
	}
}

func TestEngineGaugeObjective(t *testing.T) {
	reg, h, e := testEngine(t, "lagg gauge(lag_entries) <= 100 budget 0.5", nil)
	g := reg.Gauge("lag_entries")
	for s := 1; s <= 8; s++ {
		g.Set(1000) // always over: fraction 1, burn 2 vs budget 0.5
		h.Sample(sec(s))
		e.Evaluate(sec(s))
	}
	st := e.Status().Objectives[0]
	if st.BurnFastShort != 2 {
		t.Fatalf("gauge burn = %v; want 2", st.BurnFastShort)
	}
}

func TestTransitionJSONRoundTrip(t *testing.T) {
	in := Transition{Objective: "x", From: StateOK, To: StatePage, AtNs: 5,
		Exemplars: []string{"t1"}, PinnedTrace: "t2"}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"to":"page"`) {
		t.Fatalf("state not stringly encoded: %s", b)
	}
	var out Transition
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.To != StatePage || out.From != StateOK || out.PinnedTrace != "t2" {
		t.Fatalf("round trip = %+v", out)
	}
	var bad State
	if err := bad.UnmarshalJSON([]byte(`"alarmed"`)); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestEngineNilAndEmpty(t *testing.T) {
	var e *Engine
	if e.Evaluate(0) != nil || e.BudgetExhausted() {
		t.Fatal("nil engine not inert")
	}
	_ = e.Status()
	reg := metrics.NewRegistry()
	h := metrics.NewHistory(reg, 4)
	empty, err := New(nil, Config{History: h})
	if err != nil {
		t.Fatal(err)
	}
	if trs := empty.Evaluate(sec(1)); trs != nil {
		t.Fatalf("empty spec produced transitions: %+v", trs)
	}
	if _, err := New(&Spec{}, Config{}); err == nil {
		t.Fatal("engine without history accepted")
	}
}
