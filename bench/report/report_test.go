package report

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46},
	} {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{40, 0.9, false}, // 4 beyond: fleet_10k's ticks report the median only
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := HasTail(c.n, c.p); got != c.want {
			t.Errorf("HasTail(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the cut points to the values Python's
// statistics.quantiles(values, n=4) returns, since the benchmark driver
// computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3, err := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3, err = Quartiles([]float64{3, 1})
	if err != nil || q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of [3 1] = %v %v %v (%v), want 0.5 2 3.5", q1, q2, q3, err)
	}
	// statistics.quantiles([5, 1, 9, 2, 7], n=4) == [1.5, 5.0, 8.0]
	q1, q2, q3, err = Quartiles([]float64{5, 1, 9, 2, 7})
	if err != nil || q1 != 1.5 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles of [5 1 9 2 7] = %v %v %v (%v), want 1.5 5 8", q1, q2, q3, err)
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("one value must be an error")
	}
	sp, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || sp != 1 {
		t.Errorf("spread of 1..10 = %v (%v), want 1", sp, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},     // overlaps a: 30..40 counted once
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},  // grandchild: not root's child
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130}, // clipped to the parent's end
	}
	self := SelfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 40}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	agg := Aggregate(spans, 0, 0)
	if st := agg["root"]; st.Count != 1 || st.SelfNs != 40 {
		t.Errorf("aggregate of root = %+v", st)
	}
	// Clock-cost correction: a span with two children pays two Begin/End
	// pairs inside its interval and one clock read inside its own.
	agg = Aggregate(spans[:3], 2, 5)
	if st := agg["root"]; st.SelfNs != 50-2-2*(5-2) {
		t.Errorf("corrected aggregate of root = %+v", st)
	}
}

func TestRecorder(t *testing.T) {
	var none *Recorder
	none.End(none.Begin("x", 0, 1)) // a nil recorder records nothing and does not panic
	if none.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	r := NewRecorder(8)
	root := r.Begin("root", 0, 7)
	r.End(r.Begin("child", root, 7))
	r.End(root)
	sp := r.Spans()
	if len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[0].Op != 7 || sp[0].End < sp[1].End {
		t.Fatalf("recorded %+v", sp)
	}
	path := filepath.Join(t.TempDir(), "s.jsonl")
	if err := WriteSpans(path, sp); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], `{"id":2,"parent":1,"op":7,"name":"child","start_ns":`) {
		t.Errorf("span file:\n%s", b)
	}
}

func testSpec() *Spec {
	return &Spec{
		Workloads: []WorkloadSpec{{Name: "w"}},
		EndToEnd: []MetricSpec{
			{Name: "lat", Unit: "us", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
}

// runs builds a run set of workload "w" with one result per value pair.
func runs(lat, rate []float64) []Result {
	var rs []Result
	for i := range lat {
		r := Result{Workload: "w"}
		r.Add("lat", "us", lat[i], 1)
		r.Add("rate", "1/s", rate[i], 1)
		rs = append(rs, r)
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	a := runs(steady, steady)
	find := func(rows []Row, metric string) Row {
		for _, r := range rows {
			if r.Metric == metric {
				return r
			}
		}
		t.Fatalf("no row for %s", metric)
		return Row{}
	}

	// Same numbers: ok both ways.
	rows := Compare(a, a, testSpec())
	if len(rows) != 2 || find(rows, "lat").Verdict != VerdictOK || find(rows, "rate").Verdict != VerdictOK {
		t.Errorf("identical sets: %+v", rows)
	}

	// 20% slower and 20% less throughput, steady: regressed in each
	// metric's own direction.
	worse := runs([]float64{120, 121, 119, 120, 122}, []float64{80, 81, 79, 80, 82})
	rows = Compare(a, worse, testSpec())
	if r := find(rows, "lat"); r.Verdict != VerdictRegressed || math.Abs(r.Worse-0.2) > 0.01 {
		t.Errorf("lat: %+v", r)
	}
	if r := find(rows, "rate"); r.Verdict != VerdictRegressed || math.Abs(r.Worse-0.2) > 0.01 {
		t.Errorf("rate: %+v", r)
	}

	// 5% worse, inside the bound: ok. Better: ok with negative Worse.
	rows = Compare(a, runs([]float64{105, 106, 104, 105, 107}, []float64{120, 121, 119, 120, 122}), testSpec())
	if find(rows, "lat").Verdict != VerdictOK {
		t.Errorf("lat within bound: %+v", find(rows, "lat"))
	}
	if r := find(rows, "rate"); r.Verdict != VerdictOK || r.Worse >= 0 {
		t.Errorf("rate improved: %+v", r)
	}

	// A spread wider than the bound cannot resolve a small difference...
	noisy := []float64{80, 100, 120, 90, 110}
	rows = Compare(a, runs(noisy, steady), testSpec())
	if find(rows, "lat").Verdict != VerdictUnresolved {
		t.Errorf("noisy lat: %+v", find(rows, "lat"))
	}
	// ...unless every run of B beats every run of A.
	rows = Compare(a, runs([]float64{40, 60, 80, 50, 70}, steady), testSpec())
	if find(rows, "lat").Verdict != VerdictOK {
		t.Errorf("noisy but strictly better lat: %+v", find(rows, "lat"))
	}

	// A metric only one side reports is not compared.
	only := []Result{{Workload: "w", Metrics: []Metric{{Name: "lat", Value: 1}}}}
	if rows := Compare(a, only, testSpec()); len(rows) != 1 {
		t.Errorf("want one comparable row, got %+v", rows)
	}

	var sb strings.Builder
	reg, unres := WriteRows(&sb, Compare(a, worse, testSpec()))
	if reg != 2 || unres != 0 || !strings.Contains(sb.String(), "regressed") {
		t.Errorf("WriteRows: %d regressed, %d unresolved\n%s", reg, unres, sb.String())
	}
}

func TestResultCorrect(t *testing.T) {
	r := &Result{Attempted: 10}
	r.Check("a", 0, "ignored when passing")
	if !r.Correct() || r.Checks[0].Detail != "" {
		t.Errorf("passing result: %+v", r)
	}
	r.CheckOK("ok", true, "ignored when passing")
	if !r.Correct() {
		t.Errorf("CheckOK(true) failed the result: %+v", r)
	}
	r.CheckOK("b", false, "wrong")
	if r.Correct() || r.Checks[2].Failed != 1 || r.Checks[2].Detail != "wrong" {
		t.Error("a failed check must make the result incorrect")
	}
	r = &Result{Attempted: 10, Failed: 1}
	if r.Correct() {
		t.Error("a failed operation must make the result incorrect")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must read 0")
	}
	// Every value lands in a bucket that holds it and is at most 1/128
	// of it wide.
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 43_700, 1 << 20, 1<<40 + 12345} {
		b := histBucket(v)
		lo, hi := histLower(b), histLower(b+1)
		if float64(v) < lo || float64(v) >= hi || (v >= 128 && (hi-lo)/lo > 1.0/128+1e-12) {
			t.Errorf("value %d in bucket %d = [%v, %v)", v, b, lo, hi)
		}
	}
	var exact []float64
	for i := 0; i < 100_000; i++ {
		v := int64(40_000 + (i*7919)%20_000) // 40-60 us, scrambled
		if i%100 == 0 {
			v *= 6 // a tail
		}
		h.Record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	// (Not p99 itself: the tail starts there, and across that gap the
	// exact interpolation between ranks is arbitrary.)
	for _, p := range []float64{0.5, 0.9, 0.98, 0.995} {
		got, want := h.Quantile(p), Percentile(exact, p)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %v, exact %v", 100*p, got, want)
		}
	}
	var sum float64
	for _, v := range exact {
		sum += v
	}
	if h.Count() != len(exact) || math.Abs(h.Mean()-sum/float64(len(exact))) > 1e-6 {
		t.Errorf("count %d mean %v", h.Count(), h.Mean())
	}
}

// TestQuiet: the quiet quarter holds the slices with the highest rate,
// so a window that was disturbed for up to three quarters of its length
// reads as an undisturbed one does.
func TestQuiet(t *testing.T) {
	window := func(slow int) []Slice {
		var s []Slice
		for i := 0; i < 40; i++ {
			ns, lat := 100e6, 43e3+float64(i%3) // an undisturbed 100 ms slice
			if i%40 < slow {
				ns, lat = 160e6, 70e3 // the same work on the shared core
			}
			s = append(s, Slice{Work: 2000, Ns: ns, Latency: lat})
		}
		return s
	}
	for _, slow := range []int{0, 12, 30} {
		q := Quiet(window(slow))
		if len(q) != 10 {
			t.Fatalf("%d slow slices: quiet quarter has %d slices, want 10", slow, len(q))
		}
		if r := Rate(q); math.Abs(r-20000) > 1e-6 {
			t.Errorf("%d slow slices: rate %v, want 20000", slow, r)
		}
		if l := MedianLatency(q); l < 43e3 || l > 43e3+2 {
			t.Errorf("%d slow slices: latency %v, want the undisturbed 43 us", slow, l)
		}
	}
	if r := Rate(Quiet(window(31))); r >= 20000 {
		t.Errorf("with under a quarter undisturbed the rate must drop, got %v", r)
	}
	// Fewer than four slices still yield one; none yields none.
	if q := Quiet([]Slice{{Work: 1, Ns: 2}, {Work: 1, Ns: 1}}); len(q) != 1 || q[0].Ns != 1 {
		t.Errorf("quiet of two slices = %v, want the faster one", q)
	}
	if q := Quiet(nil); len(q) != 0 || Rate(q) != 0 || MedianLatency(q) != 0 {
		t.Errorf("quiet of nothing = %v", q)
	}
	// A slice without a latency (no get completed in it) is skipped.
	if l := MedianLatency([]Slice{{Work: 1, Ns: 1}, {Work: 1, Ns: 1, Latency: 5}}); l != 5 {
		t.Errorf("median latency = %v, want 5", l)
	}
}
