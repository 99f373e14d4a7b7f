package metrics

import (
	"math"
	"sync"
	"time"
)

// History is an in-process time-series store over one Registry: a
// fixed-size ring of periodic snapshots, taken by calling Sample on a
// cadence the caller owns (the daemon uses a ticker; experiments use
// the simulated clock). Per-series storage is preallocated the first
// time a metric is seen, so steady-state sampling does not allocate —
// cheap enough to run every few seconds forever.
//
// Counters are stored as raw cumulative values and differenced at
// query time with Prometheus rate() semantics: a decrease between
// adjacent samples is read as a process restart, and the post-reset
// value counts as the whole increment. Histograms store cumulative
// per-bucket counts; windowed quantiles come from bucket deltas
// between the window's edge samples.
type History struct {
	mu  sync.Mutex
	reg *Registry

	times []int64 // sample times, unix ns; ring of cap len
	n     int     // valid samples (<= cap)
	head  int     // ring index the next Sample writes
	ord   int64   // samples ever taken; sample k's ordinal is ord-n+k

	counters map[string]*counterSeries
	gauges   map[string]*gaugeSeries
	hists    map[string]*histSeries

	// Flat (metric, series) pairs mirroring the maps above. Registries
	// only grow, so a size match means the cached view is current and
	// the per-tick snapshot loop walks these slices without touching a
	// map; a new metric triggers one rebuild.
	flatC []flatCounter
	flatG []flatGauge
	flatH []flatHist
}

type flatCounter struct {
	c *Counter
	s *counterSeries
}

type flatGauge struct {
	g *Gauge
	s *gaugeSeries
}

type flatHist struct {
	hg *Histogram
	s  *histSeries
}

// Each series tracks the ordinal of the last sample whose value
// differed from its predecessor (-1: never changed). A series whose
// last change predates a query window contributes nothing to it, so
// the windowed queries answer quiet series — idle error counters,
// parked gauges — without scanning the ring.
type counterSeries struct {
	vals    []int64
	changed int64
}

type gaugeSeries struct {
	vals    []float64
	changed int64
}

type histSeries struct {
	bounds  []float64
	counts  []int64 // cap × (len(bounds)+1), cumulative, flat
	count   []int64
	sum     []float64
	changed int64
}

// NewHistory builds a history of capacity samples over reg. Capacity
// below 2 is raised to 2 (deltas need two points).
func NewHistory(reg *Registry, capacity int) *History {
	if capacity < 2 {
		capacity = 2
	}
	return &History{
		reg:      reg,
		times:    make([]int64, capacity),
		counters: make(map[string]*counterSeries),
		gauges:   make(map[string]*gaugeSeries),
		hists:    make(map[string]*histSeries),
	}
}

// Registry returns the registry this history samples.
func (h *History) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Sample records one snapshot of every metric in the registry at
// nowNs. Series for metrics seen before are updated without
// allocating; a metric's first appearance allocates its ring and
// backfills past slots with the current value (counters/histograms —
// so pre-birth deltas are zero) or NaN (gauges — unknown).
func (h *History) Sample(nowNs int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.head
	h.times[i] = nowNs

	prevI := (i - 1 + len(h.times)) % len(h.times)
	h.reg.mu.RLock()
	h.syncFlatLocked()
	for _, f := range h.flatC {
		v := f.c.Value()
		if h.n > 0 && v != f.s.vals[prevI] {
			f.s.changed = h.ord
		}
		f.s.vals[i] = v
	}
	for _, f := range h.flatG {
		v := f.g.Value()
		if h.n > 0 && math.Float64bits(v) != math.Float64bits(f.s.vals[prevI]) {
			f.s.changed = h.ord
		}
		f.s.vals[i] = v
	}
	for _, f := range h.flatH {
		s, hg := f.s, f.hg
		nb := len(s.bounds) + 1
		row := s.counts[i*nb : (i+1)*nb]
		for b := 0; b < nb; b++ {
			row[b] = hg.counts[b].Load()
		}
		cnt := hg.count.Load()
		// Every observation bumps count, so count alone detects change.
		if h.n > 0 && cnt != s.count[prevI] {
			s.changed = h.ord
		}
		s.count[i] = cnt
		s.sum[i] = math.Float64frombits(hg.sumBits.Load())
	}
	h.reg.mu.RUnlock()

	h.ord++
	h.head = (h.head + 1) % len(h.times)
	if h.n < len(h.times) {
		h.n++
	}
}

// syncFlatLocked refreshes the flat snapshot view when the registry
// has grown since the last sample, creating (and backfilling) series
// for first-seen metrics. Caller holds h.mu and h.reg.mu (read).
func (h *History) syncFlatLocked() {
	if len(h.flatC) == len(h.reg.counters) &&
		len(h.flatG) == len(h.reg.gauges) &&
		len(h.flatH) == len(h.reg.hists) {
		return
	}
	h.flatC = h.flatC[:0]
	for name, c := range h.reg.counters {
		s := h.counters[name]
		if s == nil {
			s = &counterSeries{vals: make([]int64, len(h.times)), changed: -1}
			v := c.Value()
			for j := range s.vals {
				s.vals[j] = v
			}
			h.counters[name] = s
		}
		h.flatC = append(h.flatC, flatCounter{c, s})
	}
	h.flatG = h.flatG[:0]
	for name, g := range h.reg.gauges {
		s := h.gauges[name]
		if s == nil {
			s = &gaugeSeries{vals: make([]float64, len(h.times)), changed: -1}
			for j := range s.vals {
				s.vals[j] = math.NaN()
			}
			h.gauges[name] = s
		}
		h.flatG = append(h.flatG, flatGauge{g, s})
	}
	h.flatH = h.flatH[:0]
	for name, hg := range h.reg.hists {
		s := h.hists[name]
		nb := len(hg.counts)
		if s != nil && len(s.bounds)+1 != nb {
			s = nil // same name, different shape: start the series over
		}
		if s == nil {
			s = &histSeries{
				bounds:  hg.bounds,
				counts:  make([]int64, len(h.times)*nb),
				count:   make([]int64, len(h.times)),
				sum:     make([]float64, len(h.times)),
				changed: -1,
			}
			for b := 0; b < nb; b++ {
				v := hg.counts[b].Load()
				for j := 0; j < len(h.times); j++ {
					s.counts[j*nb+b] = v
				}
			}
			cnt := hg.count.Load()
			sum := math.Float64frombits(hg.sumBits.Load())
			for j := range s.count {
				s.count[j] = cnt
				s.sum[j] = sum
			}
			h.hists[name] = s
		}
		h.flatH = append(h.flatH, flatHist{hg, s})
	}
}

// Len returns how many samples are held (<= Cap).
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// idx maps logical sample k (0 = oldest, n-1 = newest) to a ring
// index. Caller holds mu.
func (h *History) idx(k int) int {
	return (h.head - h.n + k + 2*len(h.times)) % len(h.times)
}

// windowsOf finds, for every since time at once, the logical range
// [los[w], n) of samples with time >= since, extended one sample earlier
// when possible so deltas cover the full window, and returns the
// smallest lo. Sample times are ascending in logical order, so each
// window start is a binary search rather than a ring scan. Caller holds
// mu.
func (h *History) windowsOf(sinces []int64, los []int) (minLo int) {
	minLo = h.n
	for w, since := range sinces {
		// First logical sample with time >= since.
		lo, hi := 0, h.n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if h.times[h.idx(mid)] < since {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			lo-- // baseline sample just before the window
		}
		los[w] = lo
		if lo < minLo {
			minLo = lo
		}
	}
	return minLo
}

// CounterDeltas returns the total increase of the named counter in each
// window: for every since time, across samples taken at or after it,
// using the sample just before as the baseline. A decrease between
// adjacent samples is treated as a counter reset: the later value counts
// in full. One locked scan over the widest window yields every delta at
// once (a pair's contribution does not depend on which windows contain
// it, and a window's delta is the sum of its pairs). The SLO engine asks
// for the same series over four burn windows plus the budget period
// every tick, so this is its hot-path shape: zero allocations for up to
// eight windows. Windows with too few samples report a zero delta (an
// empty window burns nothing).
func (h *History) CounterDeltas(name string, sinces []int64, out []int64) bool {
	if h == nil || len(sinces) == 0 || len(sinces) != len(out) {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.counters[name]
	if s == nil || h.n < 2 {
		return false
	}
	var losBuf [8]int
	los := losBuf[:0]
	if len(sinces) > len(losBuf) {
		los = make([]int, 0, len(sinces))
	}
	los = los[:len(sinces)]
	minLo := h.windowsOf(sinces, los)
	if s.changed <= h.ord-int64(h.n)+int64(minLo) {
		// Quiet since before the widest window: every delta is zero.
		for w := range out {
			out[w] = 0
		}
		return true
	}

	// start[w] snapshots the running delta at sample los[w]; the
	// window's delta is the final running total minus its snapshot.
	var startBuf [8]int64
	start := startBuf[:len(sinces)]
	if len(sinces) > len(startBuf) {
		start = make([]int64, len(sinces))
	}
	var cum int64
	ri := h.idx(minLo)
	prev := s.vals[ri]
	for k := minLo + 1; k < h.n; k++ {
		if ri++; ri == len(h.times) {
			ri = 0
		}
		cur := s.vals[ri]
		if cur >= prev {
			cum += cur - prev
		} else {
			cum += cur // reset: everything since restart counts
		}
		prev = cur
		for w, lo := range los {
			if lo == k {
				start[w] = cum
			}
		}
	}
	for w, lo := range los {
		if lo >= h.n-1 {
			out[w] = 0
		} else {
			out[w] = cum - start[w]
		}
	}
	return true
}

// HistDeltas fills a window view per since time with the named
// histogram's increments across samples at or after it (reset-aware,
// like CounterDeltas), in one locked scan. Bucket slices in out are
// reused when their capacity allows, so a caller holding its scratch
// across ticks evaluates every window without allocating.
func (h *History) HistDeltas(name string, sinces []int64, out []HistWindow) bool {
	if h == nil || len(sinces) == 0 || len(sinces) != len(out) {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.hists[name]
	if s == nil || h.n < 2 {
		return false
	}
	nb := len(s.bounds) + 1
	for w := range out {
		if cap(out[w].Buckets) < nb {
			out[w].Buckets = make([]int64, nb)
		} else {
			out[w].Buckets = out[w].Buckets[:nb]
			clear(out[w].Buckets)
		}
		out[w].Bounds = s.bounds
		out[w].Count, out[w].Sum = 0, 0
	}
	var losBuf [8]int
	los := losBuf[:0]
	if len(sinces) > len(losBuf) {
		los = make([]int, 0, len(sinces))
	}
	los = los[:len(sinces)]
	minLo := h.windowsOf(sinces, los)
	if s.changed <= h.ord-int64(h.n)+int64(minLo) {
		return true // quiet since before the widest window: zero views
	}

	// Running per-bucket delta; out[w].Buckets doubles as the snapshot
	// at sample los[w] until the final subtraction below.
	var cumBuf [24]int64
	cum := cumBuf[:0]
	if nb > len(cumBuf) {
		cum = make([]int64, 0, nb)
	}
	cum = cum[:nb]
	var cumCount int64
	var cumSum float64
	pi := h.idx(minLo)
	ci := pi
	for k := minLo + 1; k < h.n; k++ {
		if ci++; ci == len(h.times) {
			ci = 0
		}
		reset := s.count[ci] < s.count[pi]
		for b := 0; b < nb; b++ {
			cur, prev := s.counts[ci*nb+b], s.counts[pi*nb+b]
			if reset || cur < prev {
				cum[b] += cur
			} else {
				cum[b] += cur - prev
			}
		}
		if reset {
			cumCount += s.count[ci]
			cumSum += s.sum[ci]
		} else {
			cumCount += s.count[ci] - s.count[pi]
			cumSum += s.sum[ci] - s.sum[pi]
		}
		pi = ci
		for w, lo := range los {
			if lo == k {
				copy(out[w].Buckets, cum)
				out[w].Count, out[w].Sum = cumCount, cumSum
			}
		}
	}
	for w, lo := range los {
		if lo >= h.n-1 {
			clear(out[w].Buckets)
			out[w].Count, out[w].Sum = 0, 0
			continue
		}
		for b := 0; b < nb; b++ {
			out[w].Buckets[b] = cum[b] - out[w].Buckets[b]
		}
		out[w].Count = cumCount - out[w].Count
		out[w].Sum = cumSum - out[w].Sum
	}
	return true
}

// GaugeOverFractions reports, per since time, what fraction of samples
// at or after it had the named gauge strictly above bound, in one locked
// scan. NaN samples (before the gauge existed) are excluded from the
// denominator; windows with no samples report 0.
func (h *History) GaugeOverFractions(name string, sinces []int64, bound float64, out []float64) bool {
	if h == nil || len(sinces) == 0 || len(sinces) != len(out) {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.gauges[name]
	if s == nil || h.n == 0 {
		return false
	}
	if s.changed <= h.ord-int64(h.n) {
		// Constant across the whole retained ring: every non-empty
		// window sees only the current value.
		v := s.vals[h.idx(h.n-1)]
		newest := h.times[h.idx(h.n-1)]
		for w, since := range sinces {
			if !math.IsNaN(v) && newest >= since && v > bound {
				out[w] = 1
			} else {
				out[w] = 0
			}
		}
		return true
	}
	var totBuf, overBuf [8]int
	tot, over := totBuf[:len(sinces)], overBuf[:len(sinces)]
	if len(sinces) > len(totBuf) {
		tot, over = make([]int, len(sinces)), make([]int, len(sinces))
	}
	ri := h.idx(0)
	for k := 0; k < h.n; k++ {
		if k > 0 {
			if ri++; ri == len(h.times) {
				ri = 0
			}
		}
		v := s.vals[ri]
		if math.IsNaN(v) {
			continue
		}
		t := h.times[ri]
		for w, since := range sinces {
			if t >= since {
				tot[w]++
				if v > bound {
					over[w]++
				}
			}
		}
	}
	for w := range out {
		if tot[w] == 0 {
			out[w] = 0
		} else {
			out[w] = float64(over[w]) / float64(tot[w])
		}
	}
	return true
}

// HistWindow is the delta view of one histogram over a query window:
// per-bucket increments plus total count and sum.
type HistWindow struct {
	Bounds  []float64 // shared with the live histogram; do not mutate
	Buckets []int64   // len(Bounds)+1, overflow last
	Count   int64
	Sum     float64
}

// OverBound estimates how many windowed observations exceeded bound,
// interpolating within the bucket that straddles it.
func (w HistWindow) OverBound(bound float64) float64 {
	var over float64
	for i, c := range w.Buckets {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = w.Bounds[i-1]
		}
		hi := math.Inf(1)
		if i < len(w.Bounds) {
			hi = w.Bounds[i]
		}
		switch {
		case lo >= bound:
			over += float64(c)
		case hi <= bound:
			// entirely below
		case math.IsInf(hi, 1):
			over += float64(c) // overflow straddles: count it all
		default:
			over += float64(c) * (hi - bound) / (hi - lo)
		}
	}
	return over
}

// BucketQuantile estimates the q-quantile from bucket increment counts
// (len(bounds)+1 buckets, overflow last). The first bucket's lower
// edge is 0 — right for latencies, lags, and sizes, which is all this
// repo measures. The overflow bucket clamps to its lower bound.
func BucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i == len(bounds) {
			return lo // overflow: no upper edge to interpolate toward
		}
		hi := bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	// Unreached: cum == total >= rank by the end of the loop.
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// Dump is the JSON shape of a history range, for /metrics/history:
// oldest-first sample times plus raw per-sample series. Counters and
// histogram count/sum are cumulative (consumers difference them);
// P99 is the sample-over-sample windowed tail, ready for sparklines.
type Dump struct {
	Times    []int64                `json:"times_ns"`
	Counters map[string][]int64     `json:"counters,omitempty"`
	Gauges   map[string][]float64   `json:"gauges,omitempty"`
	Hists    map[string]HistoryHist `json:"histograms,omitempty"`
}

// HistoryHist is one histogram's per-sample history.
type HistoryHist struct {
	Count []int64   `json:"count"`
	Sum   []float64 `json:"sum"`
	P99   []float64 `json:"p99"`
}

// Dump copies the samples taken at or after sinceNs (all samples when
// sinceNs <= 0). Gauge NaNs are emitted as 0 to stay JSON-safe. Not a
// hot path; it allocates freely.
func (h *History) Dump(sinceNs int64) Dump {
	d := Dump{
		Counters: map[string][]int64{},
		Gauges:   map[string][]float64{},
		Hists:    map[string]HistoryHist{},
	}
	if h == nil {
		return d
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var ks []int
	for k := 0; k < h.n; k++ {
		if h.times[h.idx(k)] >= sinceNs {
			ks = append(ks, k)
		}
	}
	d.Times = make([]int64, len(ks))
	for j, k := range ks {
		d.Times[j] = h.times[h.idx(k)]
	}
	for _, name := range SortedNames(h.counters) {
		s := h.counters[name]
		vals := make([]int64, len(ks))
		for j, k := range ks {
			vals[j] = s.vals[h.idx(k)]
		}
		d.Counters[name] = vals
	}
	for _, name := range SortedNames(h.gauges) {
		s := h.gauges[name]
		vals := make([]float64, len(ks))
		for j, k := range ks {
			v := s.vals[h.idx(k)]
			if math.IsNaN(v) {
				v = 0
			}
			vals[j] = v
		}
		d.Gauges[name] = vals
	}
	for _, name := range SortedNames(h.hists) {
		s := h.hists[name]
		nb := len(s.bounds) + 1
		hh := HistoryHist{
			Count: make([]int64, len(ks)),
			Sum:   make([]float64, len(ks)),
			P99:   make([]float64, len(ks)),
		}
		deltas := make([]int64, nb)
		for j, k := range ks {
			i := h.idx(k)
			hh.Count[j] = s.count[i]
			hh.Sum[j] = s.sum[i]
			if k == 0 {
				continue // no earlier sample to difference against
			}
			pi := h.idx(k - 1)
			reset := s.count[i] < s.count[pi]
			for b := 0; b < nb; b++ {
				cur, prev := s.counts[i*nb+b], s.counts[pi*nb+b]
				if reset || cur < prev {
					deltas[b] = cur
				} else {
					deltas[b] = cur - prev
				}
			}
			hh.P99[j] = BucketQuantile(s.bounds, deltas, 0.99)
		}
		d.Hists[name] = hh
	}
	return d
}

// SinceNs converts a lookback duration ending at nowNs into the
// sinceNs argument the query methods take.
func SinceNs(nowNs int64, lookback time.Duration) int64 {
	return nowNs - lookback.Nanoseconds()
}
