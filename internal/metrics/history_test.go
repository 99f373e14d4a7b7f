package metrics

import (
	"encoding/json"
	"math"
	"testing"
)

func ns(sec int) int64 { return int64(sec) * 1e9 }

// The single-window queries below are the reference the batched
// CounterDeltas / HistDeltas / GaugeOverFractions are checked against:
// one window per call, scanned sample by sample.

// window returns the logical range [lo, n) of samples with time >=
// sinceNs, extended one sample earlier when possible so deltas cover
// the full window. Caller holds mu.
func (h *History) window(sinceNs int64) (lo int) {
	lo = h.n
	for k := h.n - 1; k >= 0; k-- {
		if h.times[h.idx(k)] < sinceNs {
			break
		}
		lo = k
	}
	if lo > 0 {
		lo-- // baseline sample just before the window
	}
	return lo
}

// CounterDelta returns the total increase of the named counter across
// samples taken at or after sinceNs (using the sample just before as
// the baseline). A decrease between adjacent samples is treated as a
// counter reset: the later value counts in full. ok is false when the
// series is unknown or fewer than two samples cover the range.
func (h *History) CounterDelta(name string, sinceNs int64) (delta int64, ok bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.counters[name]
	if s == nil || h.n < 2 {
		return 0, false
	}
	lo := h.window(sinceNs)
	if lo >= h.n-1 {
		return 0, false
	}
	prev := s.vals[h.idx(lo)]
	for k := lo + 1; k < h.n; k++ {
		cur := s.vals[h.idx(k)]
		if cur >= prev {
			delta += cur - prev
		} else {
			delta += cur // reset: everything since restart counts
		}
		prev = cur
	}
	return delta, true
}

// GaugeOverFraction returns what fraction of samples at or after
// sinceNs had the named gauge strictly above bound. NaN samples
// (before the gauge existed) are excluded from the denominator. ok is
// false when no samples cover the range.
func (h *History) GaugeOverFraction(name string, sinceNs int64, bound float64) (frac float64, ok bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.gauges[name]
	if s == nil || h.n == 0 {
		return 0, false
	}
	var total, over int
	for k := 0; k < h.n; k++ {
		i := h.idx(k)
		if h.times[i] < sinceNs {
			continue
		}
		v := s.vals[i]
		if math.IsNaN(v) {
			continue
		}
		total++
		if v > bound {
			over++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(over) / float64(total), true
}

// HistDelta returns the named histogram's increments across samples at
// or after sinceNs (reset-aware, like CounterDelta). ok is false when
// the series is unknown or fewer than two samples cover the range.
// The returned Buckets slice is freshly allocated.
func (h *History) HistDelta(name string, sinceNs int64) (w HistWindow, ok bool) {
	if h == nil {
		return HistWindow{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.hists[name]
	if s == nil || h.n < 2 {
		return HistWindow{}, false
	}
	lo := h.window(sinceNs)
	if lo >= h.n-1 {
		return HistWindow{}, false
	}
	nb := len(s.bounds) + 1
	w = HistWindow{Bounds: s.bounds, Buckets: make([]int64, nb)}
	pi := h.idx(lo)
	for k := lo + 1; k < h.n; k++ {
		ci := h.idx(k)
		reset := s.count[ci] < s.count[pi]
		for b := 0; b < nb; b++ {
			cur, prev := s.counts[ci*nb+b], s.counts[pi*nb+b]
			if reset || cur < prev {
				w.Buckets[b] += cur
			} else {
				w.Buckets[b] += cur - prev
			}
		}
		if reset {
			w.Count += s.count[ci]
			w.Sum += s.sum[ci]
		} else {
			w.Count += s.count[ci] - s.count[pi]
			w.Sum += s.sum[ci] - s.sum[pi]
		}
		pi = ci
	}
	return w, true
}

func TestHistoryCounterDelta(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 8)
	c := reg.Counter("reqs")
	for s := 0; s < 5; s++ {
		c.Add(10)
		h.Sample(ns(s))
	}
	// Whole range: baseline is the first sample (value 10), so the
	// visible increase is 40.
	if d, ok := h.CounterDelta("reqs", 0); !ok || d != 40 {
		t.Fatalf("full delta = %d, %v; want 40, true", d, ok)
	}
	// Window covering the last two samples plus one baseline: 20.
	if d, ok := h.CounterDelta("reqs", ns(3)); !ok || d != 20 {
		t.Fatalf("windowed delta = %d, %v; want 20, true", d, ok)
	}
	if _, ok := h.CounterDelta("missing", 0); ok {
		t.Fatal("unknown series reported ok")
	}
}

// TestHistoryCounterReset models a daemon restart: the cumulative
// counter drops and the post-restart value must count in full, not as
// a negative increment.
func TestHistoryCounterReset(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 8)
	c := reg.Counter("reqs")
	c.Add(100)
	h.Sample(ns(0))
	c.Add(50)
	h.Sample(ns(1)) // 150

	// "Restart": swap in a fresh counter under the same name. The
	// registry API never replaces a metric in place, so the flat
	// snapshot view only refreshes when the registry grows — which a
	// restarted process does immediately, re-registering everything it
	// measures (modeled here by one new counter).
	reg.mu.Lock()
	reg.counters["reqs"] = &Counter{}
	reg.mu.Unlock()
	reg.Counter("reborn").Inc()
	reg.Counter("reqs").Add(30)
	h.Sample(ns(2)) // 30 < 150: reset

	d, ok := h.CounterDelta("reqs", 0)
	if !ok {
		t.Fatal("no delta after reset")
	}
	// 100->150 (+50) then reset to 30 (+30).
	if d != 80 {
		t.Fatalf("reset-aware delta = %d; want 80", d)
	}
}

func TestHistoryRingWraparound(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 4)
	c := reg.Counter("reqs")
	g := reg.Gauge("lag")
	for s := 0; s < 10; s++ {
		c.Add(1)
		g.Set(float64(s))
		h.Sample(ns(s))
	}
	if h.Len() != 4 || len(h.times) != 4 {
		t.Fatalf("len/cap = %d/%d; want 4/4", h.Len(), len(h.times))
	}
	// Only samples 6..9 remain: deltas visible = 3.
	if d, ok := h.CounterDelta("reqs", 0); !ok || d != 3 {
		t.Fatalf("wrapped delta = %d, %v; want 3, true", d, ok)
	}
	d := h.Dump(0)
	if len(d.Times) != 4 || d.Times[0] != ns(6) || d.Times[3] != ns(9) {
		t.Fatalf("dump times = %v; want 6..9s", d.Times)
	}
	if got := d.Gauges["lag"]; len(got) != 4 || got[0] != 6 || got[3] != 9 {
		t.Fatalf("dump gauge = %v; want [6 7 8 9]", got)
	}
}

func TestHistoryHistDeltaQuantile(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 8)
	hist := reg.Histogram("delay_ms", []float64{10, 20, 40, 80})
	hist.Observe(5)
	h.Sample(ns(0))
	// Window 1: all fast.
	for i := 0; i < 100; i++ {
		hist.Observe(5)
	}
	h.Sample(ns(1))
	// Window 2: all slow.
	for i := 0; i < 100; i++ {
		hist.Observe(70)
	}
	h.Sample(ns(2))

	// Whole range: 200 obs, half over 40.
	w, ok := h.HistDelta("delay_ms", 0)
	if !ok || w.Count != 200 {
		t.Fatalf("count = %d, %v; want 200, true", w.Count, ok)
	}
	if over := w.OverBound(40); math.Abs(over-100) > 1e-9 {
		t.Fatalf("over 40 = %v; want 100", over)
	}
	// Last window only: p50 sits in the (40,80] bucket.
	w, ok = h.HistDelta("delay_ms", ns(2))
	if !ok || w.Count != 100 {
		t.Fatalf("windowed count = %d, %v; want 100, true", w.Count, ok)
	}
	if q := BucketQuantile(w.Bounds, w.Buckets, 0.5); q <= 40 || q > 80 {
		t.Fatalf("windowed p50 = %v; want in (40,80]", q)
	}
}

func TestHistoryGaugeOverFraction(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 8)
	g := reg.Gauge("lag")
	for s := 0; s < 4; s++ {
		g.Set(float64(s * 100)) // 0, 100, 200, 300
		h.Sample(ns(s))
	}
	f, ok := h.GaugeOverFraction("lag", 0, 150)
	if !ok || math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("over fraction = %v, %v; want 0.5, true", f, ok)
	}
}

// TestHistorySampleSteadyStateAllocs pins the tentpole promise: once
// every series exists, Sample allocates nothing.
func TestHistorySampleSteadyStateAllocs(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	reg.Gauge("b").Set(1)
	reg.Histogram("c", LatencyBuckets()).Observe(1)
	h := NewHistory(reg, 64)
	h.Sample(ns(0)) // allocate all series
	var s int
	allocs := testing.AllocsPerRun(100, func() {
		s++
		h.Sample(ns(s))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocates %v/op; want 0", allocs)
	}
}

func TestHistoryLateBornSeries(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 8)
	h.Sample(ns(0))
	h.Sample(ns(1))
	c := reg.Counter("late")
	c.Add(500)
	h.Sample(ns(2)) // first sight: backfilled at 500
	c.Add(7)
	h.Sample(ns(3))
	// Pre-birth slots carry the birth value, so only the +7 shows.
	if d, ok := h.CounterDelta("late", 0); !ok || d != 7 {
		t.Fatalf("late-born delta = %d, %v; want 7, true", d, ok)
	}
}

func TestHistoryDumpJSONAndP99(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 8)
	hist := reg.Histogram("delay_ms", []float64{10, 20, 40, 80})
	h.Sample(ns(0))
	for i := 0; i < 50; i++ {
		hist.Observe(30)
	}
	h.Sample(ns(1))
	d := h.Dump(0)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("dump marshal: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty dump")
	}
	hh := d.Hists["delay_ms"]
	if len(hh.P99) != 2 || hh.P99[1] <= 20 || hh.P99[1] > 40 {
		t.Fatalf("dump p99 = %v; want last in (20,40]", hh.P99)
	}
}

// TestHistoryBatchedQueriesMatchSingle pins the batched multi-window
// queries (the SLO engine's hot path) to the single-window originals
// over a randomized ring that wraps, resets, and includes windows that
// are empty, partial, and whole-ring.
func TestHistoryBatchedQueriesMatchSingle(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, 16)
	c := reg.Counter("reqs")
	g := reg.Gauge("lag")
	hist := reg.Histogram("delay_ms", []float64{10, 40})
	rng := func(s int) int64 { return int64(s*s%7 + 1) } // deterministic "random"
	for s := 0; s < 25; s++ {
		c.Add(rng(s))
		g.Set(float64(s % 5 * 100))
		hist.Observe(float64(s % 9 * 10))
		if s == 12 { // mid-run reset of the counter series
			reg.mu.Lock()
			reg.counters["reqs"] = &Counter{}
			reg.mu.Unlock()
			reg.Counter("reset_marker").Inc()
		}
		h.Sample(ns(s))
	}
	sinces := []int64{0, ns(10), ns(15), ns(22), ns(24), ns(40)}

	cd := make([]int64, len(sinces))
	if !h.CounterDeltas("reqs", sinces, cd) {
		t.Fatal("CounterDeltas not ok")
	}
	for i, since := range sinces {
		want, ok := h.CounterDelta("reqs", since)
		if !ok {
			want = 0 // batched reports empty windows as zero delta
		}
		if cd[i] != want {
			t.Errorf("CounterDeltas[%d] (since %d) = %d; want %d", i, since, cd[i], want)
		}
	}

	hw := make([]HistWindow, len(sinces))
	if !h.HistDeltas("delay_ms", sinces, hw) {
		t.Fatal("HistDeltas not ok")
	}
	for i, since := range sinces {
		want, ok := h.HistDelta("delay_ms", since)
		if !ok {
			want = HistWindow{}
		}
		if hw[i].Count != want.Count || math.Abs(hw[i].Sum-want.Sum) > 1e-9 {
			t.Errorf("HistDeltas[%d] count/sum = %d/%v; want %d/%v",
				i, hw[i].Count, hw[i].Sum, want.Count, want.Sum)
		}
		for b := range want.Buckets {
			if hw[i].Buckets[b] != want.Buckets[b] {
				t.Errorf("HistDeltas[%d] bucket %d = %d; want %d",
					i, b, hw[i].Buckets[b], want.Buckets[b])
			}
		}
	}

	gf := make([]float64, len(sinces))
	if !h.GaugeOverFractions("lag", sinces, 150, gf) {
		t.Fatal("GaugeOverFractions not ok")
	}
	for i, since := range sinces {
		want, ok := h.GaugeOverFraction("lag", since, 150)
		if !ok {
			want = 0
		}
		if math.Abs(gf[i]-want) > 1e-9 {
			t.Errorf("GaugeOverFractions[%d] = %v; want %v", i, gf[i], want)
		}
	}

	// Unknown series and mismatched lengths refuse.
	if h.CounterDeltas("missing", sinces, cd) {
		t.Error("CounterDeltas ok for unknown series")
	}
	if h.CounterDeltas("reqs", sinces, cd[:1]) {
		t.Error("CounterDeltas ok with mismatched out length")
	}
}

func TestBucketQuantileEdges(t *testing.T) {
	bounds := []float64{10, 20}
	if q := BucketQuantile(bounds, []int64{0, 0, 0}, 0.99); q != 0 {
		t.Fatalf("empty quantile = %v; want 0", q)
	}
	// All overflow: clamps to the last bound.
	if q := BucketQuantile(bounds, []int64{0, 0, 5}, 0.5); q != 20 {
		t.Fatalf("overflow quantile = %v; want 20", q)
	}
	// Out-of-range q clamps.
	if q := BucketQuantile(bounds, []int64{4, 0, 0}, 1.5); q != 10 {
		t.Fatalf("clamped quantile = %v; want 10", q)
	}
}
