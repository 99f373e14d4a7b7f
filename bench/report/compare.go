package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// MetricSpec is one metric's entry in BENCHMARK.json: its unit, which
// direction is better, and (end-to-end metrics only) the share of the
// baseline's median by which it may worsen.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is what the benchmark reads of BENCHMARK.json.
type Spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// ReadSpec reads BENCHMARK.json from path.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one workload × metric comparison.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// Row is one workload × end-to-end metric comparison of two run sets.
type Row struct {
	Workload string
	Metric   string
	Unit     string
	// MedianA/MedianB are the medians over each side's runs; SpreadA/B
	// their interquartile distance as a share of the median (0 with
	// fewer than two runs).
	MedianA, MedianB float64
	SpreadA, SpreadB float64
	RunsA, RunsB     int
	// Worse is how much worse B's median is than A's as a share of A's
	// (negative = better), in the metric's own direction.
	Worse   float64
	Bound   float64
	Verdict string
}

// Compare sets B (the change) against A (the baseline) for every
// workload × end-to-end metric present in both. B is ok when its median
// is no worse than A's by more than the metric's bound, regressed when
// it is; where either side's run-to-run spread is wider than the bound
// the pairing is unresolved — unless every run of B reads better than
// every run of A, which no spread can explain away.
func Compare(a, b []Result, spec *Spec) []Row {
	va, vb := valuesOf(a), valuesOf(b)
	var rows []Row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			key := w.Name + "\x00" + m.Name
			xa, xb := va[key], vb[key]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := Row{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				MedianA: Median(xa), MedianB: Median(xb),
				RunsA: len(xa), RunsB: len(xb),
			}
			row.SpreadA, _ = Spread(xa)
			row.SpreadB, _ = Spread(xb)
			lower := m.Better == "lower"
			if row.MedianA != 0 {
				row.Worse = (row.MedianB - row.MedianA) / row.MedianA
				if !lower {
					row.Worse = -row.Worse
				}
			}
			switch {
			case row.SpreadA > m.Bound || row.SpreadB > m.Bound:
				row.Verdict = VerdictUnresolved
				if allBetter(xa, xb, lower) {
					row.Verdict = VerdictOK
				}
			case row.Worse > m.Bound:
				row.Verdict = VerdictRegressed
			default:
				row.Verdict = VerdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// valuesOf groups a run set's metric values by workload and metric.
func valuesOf(rs []Result) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range rs {
		for _, m := range r.Metrics {
			key := r.Workload + "\x00" + m.Name
			out[key] = append(out[key], m.Value)
		}
	}
	return out
}

// allBetter reports whether every value of b is strictly better than
// every value of a.
func allBetter(a, b []float64, lower bool) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// WriteRows prints the comparison as an aligned table and returns how
// many rows are regressed and unresolved.
func WriteRows(w io.Writer, rows []Row) (regressed, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tworse\tbound\tspread A\tspread B\truns\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.2f%%\t%.2f%%\t%d/%d\t%s\n",
			r.Workload, r.Metric, r.Unit, r.MedianA, r.MedianB, 100*r.Worse, 100*r.Bound,
			100*r.SpreadA, 100*r.SpreadB, r.RunsA, r.RunsB, r.Verdict)
		switch r.Verdict {
		case VerdictRegressed:
			regressed++
		case VerdictUnresolved:
			unresolved++
		}
	}
	_ = tw.Flush() // a failed write to the report stream has no recovery here
	return regressed, unresolved
}
