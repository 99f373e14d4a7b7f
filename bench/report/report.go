// Package report holds what the benchmark's drivers and probes share and
// what -compare needs: named metrics, percentile and quartile helpers,
// the per-run result document, and the span recorder of traced runs. It
// imports nothing from the program under test, so the numbers' format
// survives any change inside a layer.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
)

// Metric is one named measurement. Samples is how many timings (or
// counted events) the value summarizes; 0 means a derived value.
type Metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// Check is one correctness check of a run. Failed counts the individual
// violations (0 = passed); Detail names the first one.
type Check struct {
	Name   string `json:"name"`
	Failed int    `json:"failed"`
	Detail string `json:"detail,omitempty"`
}

// Result is everything one run of one workload produced.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Attempted counts every operation the run issued (gets, puts,
	// coordinator calls, ingested records, ticks); Failed those that
	// errored, were refused, or returned a wrong answer.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Checks    []Check  `json:"checks"`
	Metrics   []Metric `json:"metrics"`
	// Info carries printed-not-gated facts: stream and placement digests.
	Info map[string]string `json:"info,omitempty"`
}

// Correct reports whether every check passed and no operation failed.
func (r *Result) Correct() bool {
	if r.Failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if c.Failed > 0 {
			return false
		}
	}
	return true
}

// Add appends a metric.
func (r *Result) Add(name, unit string, value float64, samples int) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

// Get returns the named metric.
func (r *Result) Get(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Check records a correctness check; failed is the violation count.
func (r *Result) Check(name string, failed int, detail string) {
	if failed == 0 {
		detail = ""
	}
	r.Checks = append(r.Checks, Check{Name: name, Failed: failed, Detail: detail})
}

// CheckOK records a check with a single verdict: one violation, detail,
// unless ok.
func (r *Result) CheckOK(name string, ok bool, detail string) {
	failed := 1
	if ok {
		failed = 0
	}
	r.Check(name, failed, detail)
}

// Percentile returns the p-quantile (0 <= p <= 1) of ascending-sorted
// values by linear interpolation between closest ranks; 0 when empty.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// HasTail reports whether n samples support reporting percentile p
// under the ten-samples-beyond rule. The small slack absorbs 1-p not
// being exact in binary (100 samples do leave ten beyond p90).
func HasTail(n int, p float64) bool { return float64(n)*(1-p) >= 10-1e-9 }

// Median returns the median of values (unsorted input; not modified).
func Median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}

// Slice is one short stretch of a measured window: the work completed
// in it, the time it took on the clock, and one latency representative
// of it (a live slice's median get, an epoch's tick), in nanoseconds.
type Slice struct {
	Work    float64
	Ns      float64
	Latency float64
}

// Quiet returns the quarter of a window's slices with the highest rate
// of work (at least one slice), fastest first. The gated timings are
// taken over it and not over the whole window because the machine the
// benchmark was sized on runs at two speeds: a fixed spin loop takes
// 0.88 ms or about 1.4 ms depending on what a neighbour does to the
// shared core, switching within milliseconds, and the slow share of a
// 15 s window drifts between a tenth and a half over minutes. A median
// over the whole window flips between the two speeds (ten runs of
// live_mixed spread 36 % on their median get); the quiet quarter reads
// the program at the machine's own speed as long as a quarter of the
// window was undisturbed. See bench/README.md for where that stops.
func Quiet(slices []Slice) []Slice {
	q := append([]Slice(nil), slices...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].Work*q[j].Ns > q[j].Work*q[i].Ns })
	n := len(q) / 4
	if n == 0 && len(q) > 0 {
		n = 1
	}
	return q[:n]
}

// Rate is the slices' work per second of their on-clock time.
func Rate(slices []Slice) float64 {
	var work, ns float64
	for _, s := range slices {
		work += s.Work
		ns += s.Ns
	}
	if ns == 0 {
		return 0
	}
	return work / (ns / 1e9)
}

// MedianLatency is the median of the slices' latencies that are set.
func MedianLatency(slices []Slice) float64 {
	var lat []float64
	for _, s := range slices {
		if s.Latency > 0 {
			lat = append(lat, s.Latency)
		}
	}
	return Median(lat)
}

// Quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// computes them; it needs at least two values.
func Quartiles(values []float64) (q1, q2, q3 float64, err error) {
	ld := len(values)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("report: quartiles need at least two values, got %d", ld)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// Spread is the interquartile distance of values as a share of their
// median — the steadiness figure the benchmark's bounds are set from.
func Spread(values []float64) (float64, error) {
	q1, q2, q3, err := Quartiles(values)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("report: spread of a zero median")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// WriteJSON writes v as indented JSON to path.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResults reads a run-set file: a JSON array of results, as -json
// writes it.
func ReadResults(path string) ([]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return rs, nil
}

// Histogram counts durations in log-linear buckets — histSub equal
// steps per power of two, so a bucket is at most 1/histSub (0.8 %) of
// its value wide — in a fixed few kilobytes. The live drivers use it
// where a sample slice would not do: the storage nodes share the
// harness's heap, and a slice that grows with the run changes how often
// their garbage collector runs.
type Histogram struct {
	counts [64 * histSub]int64
	n      int64
	sum    float64
}

const histSub = 128

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns) // exact below histSub
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns)) // 2^exp <= ns
	shift := exp - 7                            // log2(histSub) = 7
	return (shift+1)*histSub + int(ns>>shift) - histSub
}

// histLower is the smallest value bucket b holds.
func histLower(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	shift := b/histSub - 1
	return float64(int64(histSub+b%histSub) << shift)
}

// Record adds one duration in nanoseconds.
func (h *Histogram) Record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += float64(ns)
}

// Count is the number of recorded durations.
func (h *Histogram) Count() int { return int(h.n) }

// Mean is the exact mean in nanoseconds (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the p-quantile in nanoseconds, interpolated inside
// its bucket (0 when empty).
func (h *Histogram) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n-1)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := histLower(b), histLower(b+1)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return histLower(len(h.counts) - 1)
}
