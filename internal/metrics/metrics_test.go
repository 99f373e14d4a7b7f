package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", LatencyBuckets()).Observe(1)
	var ring *TraceRing
	ring.Add(EpochTrace{})
	if ring.Snapshot() != nil {
		t.Fatal("nil ring is not a no-op")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("no error for empty bounds")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("no error for non-increasing bounds")
	}
	r := NewRegistry()
	h := r.Histogram("bad", nil)
	if h != nil {
		t.Fatal("registry returned a histogram for invalid bounds")
	}
	h.Observe(1) // must not panic
}

// TestHistogramQuantilesDeterministic drives a histogram with a known
// synthetic load and checks p50/p95/p99 against the exact empirical
// quantiles, within one bucket width of interpolation error.
func TestHistogramQuantilesDeterministic(t *testing.T) {
	// Bounds every 50 ms; load is 1..1000 ms, one observation each, so
	// the exact quantile q is ~1000q and interpolation stays within the
	// 50 ms bucket width.
	var bounds []float64
	for b := 50.0; b <= 1000; b += 50 {
		bounds = append(bounds, b)
	}
	h, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %v/%v, want 1/1000", s.Min, s.Max)
	}
	if want := 500500.0; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	for _, tc := range []struct {
		name  string
		got   float64
		exact float64
	}{
		{"p50", s.P50, 500},
		{"p95", s.P95, 950},
		{"p99", s.P99, 990},
	} {
		if math.Abs(tc.got-tc.exact) > 50 {
			t.Errorf("%s = %v, want %v ± 50 (one bucket width)", tc.name, tc.got, tc.exact)
		}
	}
	if s.Mean() != 500.5 {
		t.Errorf("mean = %v, want 500.5", s.Mean())
	}
}

func TestHistogramQuantilesSingleValue(t *testing.T) {
	h, err := NewHistogram([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Observe(15)
	}
	s := h.Snapshot()
	// All mass in one bucket whose range is clamped to [15,15]: every
	// quantile must be exactly the value.
	for _, q := range []float64{s.P50, s.P95, s.P99} {
		if q != 15 {
			t.Fatalf("quantile = %v, want 15 (snapshot %+v)", q, s)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h, err := NewHistogram([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(5)
	h.Observe(100)
	h.Observe(200)
	s := h.Snapshot()
	if s.Buckets[0].Count != 1 || s.Buckets[1].Count != 2 {
		t.Fatalf("bucket counts = %+v", s.Buckets)
	}
	if !math.IsInf(s.Buckets[1].Upper, 1) {
		t.Fatalf("overflow bound = %v, want +Inf", s.Buckets[1].Upper)
	}
	// Overflow quantiles are clamped to the observed max.
	if s.P99 > 200 {
		t.Fatalf("p99 = %v, want <= 200", s.P99)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h, err := NewHistogram(LatencyBuckets())
	if err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(7)
	r.Gauge("k").Set(3)
	h := r.Histogram("latency_ms", []float64{10, 100})
	h.Observe(5)
	h.Observe(500) // overflow bucket: exercises the +Inf encoding

	b, err := MarshalSnapshot(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{`"requests_total": 7`, `"latency_ms"`, `"+Inf"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}

	s, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["requests_total"] != 7 {
		t.Errorf("round-trip counter = %d, want 7", s.Counters["requests_total"])
	}
	hs := s.Histograms["latency_ms"]
	if hs.Count != 2 {
		t.Errorf("round-trip histogram count = %d, want 2", hs.Count)
	}
	if len(hs.Buckets) != 3 || !math.IsInf(hs.Buckets[2].Upper, 1) {
		t.Errorf("round-trip buckets = %+v", hs.Buckets)
	}
}

func TestTraceRingWraps(t *testing.T) {
	ring := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		ring.Add(EpochTrace{Epoch: i})
	}
	got := ring.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	want := []int{3, 4, 5}
	for i, e := range got {
		if e.Epoch != want[i] {
			t.Fatalf("snapshot epochs = %v, want %v", got, want)
		}
	}
}

func TestTraceRingDefaultCapacity(t *testing.T) {
	ring := NewTraceRing(0)
	for i := 0; i < 100; i++ {
		ring.Add(EpochTrace{Epoch: i})
	}
	if n := len(ring.Snapshot()); n != 64 {
		t.Fatalf("default-capacity ring holds %d, want 64", n)
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run
// under -race this proves the layer is data-race free, and the final
// counts prove no updates were lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	ring := NewTraceRing(8)
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("ops").Inc()
				r.Gauge("last").Set(float64(i))
				r.Histogram("lat", LatencyBuckets()).Observe(float64(i % 100))
				if i%100 == 0 {
					ring.Add(EpochTrace{Epoch: i})
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != goroutines*perG {
		t.Fatalf("ops = %d, want %d", got, goroutines*perG)
	}
	s := r.Histogram("lat", nil).Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	if n := len(ring.Snapshot()); n != 8 {
		t.Fatalf("ring holds %d, want a full window of 8", n)
	}
}
