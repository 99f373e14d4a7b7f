package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramEmptyQuantiles(t *testing.T) {
	h, err := NewHistogram([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty mean = %v; want 0", s.Mean())
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	h, err := NewHistogram([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d; want 10", s.Count)
	}
	// All mass in one bucket with identical values: quantiles clamp to
	// the observed min/max.
	for _, q := range []float64{s.P50, s.P95, s.P99} {
		if q != 50 {
			t.Fatalf("single-bucket quantile = %v; want 50 (snapshot %+v)", q, s)
		}
	}
}

func TestHistogramAllOverflow(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(1000)
	h.Observe(3000)
	s := h.Snapshot()
	if s.Count != 2 || s.Buckets[2].Count != 2 {
		t.Fatalf("overflow not counted: %+v", s)
	}
	// Quantiles interpolate inside [max(bounds), Max], clamped.
	if s.P99 < 1000 || s.P99 > 3000 {
		t.Fatalf("overflow p99 = %v; want within [1000,3000]", s.P99)
	}
	if s.P50 < 1000 || s.P50 > 3000 {
		t.Fatalf("overflow p50 = %v; want within [1000,3000]", s.P50)
	}
}

func TestHistogramNaNBoundRejected(t *testing.T) {
	if _, err := NewHistogram([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("NaN bound accepted")
	} else if !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := NewHistogram([]float64{math.NaN()}); err == nil {
		t.Fatal("lone NaN bound accepted")
	}
	// Registry.Histogram swallows the error into a safe nil.
	reg := NewRegistry()
	if h := reg.Histogram("bad", []float64{math.NaN()}); h != nil {
		t.Fatal("registry handed out a NaN-bounded histogram")
	}
}

func TestHistogramNaNObservationIgnored(t *testing.T) {
	h, _ := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("NaN observation counted: %+v", s)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h, err := NewHistogram([]float64{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(5)
	h.AttachExemplar(5, "trace-fast")
	h.Observe(500)
	h.AttachExemplar(500, "trace-slow")
	h.Observe(600) // untraced: must not clobber the exemplar

	tail := h.TailExemplars(100)
	if len(tail) != 1 || tail[0].TraceID != "trace-slow" || tail[0].Value != 500 {
		t.Fatalf("tail exemplars = %+v; want one trace-slow@500", tail)
	}
	all := h.TailExemplars(0)
	if len(all) != 2 {
		t.Fatalf("all exemplars = %+v; want 2", all)
	}

	// AttachExemplar links without counting.
	before := h.Snapshot().Count
	h.AttachExemplar(50, "trace-mid")
	if got := h.Snapshot().Count; got != before {
		t.Fatalf("AttachExemplar changed count %d -> %d", before, got)
	}
	// Snapshot carries exemplars through JSON.
	s := h.Snapshot()
	var found bool
	for _, b := range s.Buckets {
		if b.Exemplar != nil && b.Exemplar.TraceID == "trace-mid" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot lost the attached exemplar: %+v", s.Buckets)
	}
	reg := NewRegistry()
	reg.mu.Lock()
	reg.hists["h"] = h
	reg.mu.Unlock()
	b, err := MarshalSnapshot(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "trace-slow") {
		t.Fatal("marshaled snapshot dropped exemplars")
	}
	back, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	var roundTripped bool
	for _, bk := range back.Histograms["h"].Buckets {
		if bk.Exemplar != nil && bk.Exemplar.TraceID == "trace-slow" {
			roundTripped = true
		}
	}
	if !roundTripped {
		t.Fatal("exemplar lost in snapshot round trip")
	}
	// Nil histogram stays a no-op.
	var nilH *Histogram
	nilH.Observe(1)
	nilH.AttachExemplar(1, "x")
	if nilH.TailExemplars(0) != nil {
		t.Fatal("nil histogram returned exemplars")
	}
}

func TestWritePrometheusPrefixed(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("replog_appends_total").Add(3)
	reg.Counter("georep_already").Add(1)
	reg.Gauge("slo_x_state").Set(2)
	reg.Histogram("daemon_rpc_get_ms", []float64{1, 10}).Observe(5)
	var b strings.Builder
	if err := WritePrometheusPrefixed(&b, reg.Snapshot(), "georep_"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"georep_replog_appends_total 3",
		"georep_slo_x_state 2",
		"georep_daemon_rpc_get_ms_count 1",
		"# TYPE georep_already counter", // not doubled
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prefixed output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "georep_georep_") {
		t.Fatalf("prefix doubled:\n%s", out)
	}
}
