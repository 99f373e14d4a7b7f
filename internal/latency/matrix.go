// Package latency models the all-pairs round-trip-time matrix the paper's
// simulator is driven by. The paper replays real measurements from 226
// PlanetLab nodes; that dataset is not redistributable, so this package
// additionally provides a synthetic generator that reproduces the same
// geometry: geographically clustered nodes, propagation-dominated wide-area
// delays, last-mile access penalties, jitter, and a configurable rate of
// triangle-inequality violations. Real matrices can be loaded from disk in
// a simple text format and used interchangeably.
package latency

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/georep/georep/internal/stats"
)

// Matrix holds symmetric pairwise RTTs in milliseconds. The diagonal is
// zero. Matrices are immutable after construction by convention; the
// experiment harness shares one matrix across many goroutine-free runs.
type Matrix struct {
	n   int
	rtt []float64 // row-major n×n
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("latency: matrix size must be positive, got %d", n)
	}
	return &Matrix{n: n, rtt: make([]float64, n*n)}, nil
}

// N returns the number of nodes.
func (m *Matrix) N() int { return m.n }

// RTT returns the round-trip time between nodes i and j in milliseconds.
func (m *Matrix) RTT(i, j int) float64 {
	return m.rtt[i*m.n+j]
}

// SetRTT sets the RTT for the pair (i, j) symmetrically. Setting a
// diagonal entry is ignored: self-latency is always zero.
func (m *Matrix) SetRTT(i, j int, ms float64) {
	if i == j {
		return
	}
	m.rtt[i*m.n+j] = ms
	m.rtt[j*m.n+i] = ms
}

// Validate checks a zero diagonal and finite, symmetric, non-negative
// entries.
func (m *Matrix) Validate() error {
	for i := 0; i < m.n; i++ {
		if d := m.RTT(i, i); d != 0 {
			return fmt.Errorf("latency: diagonal entry (%d,%d) = %v, want 0", i, i, d)
		}
		for j := i + 1; j < m.n; j++ {
			a, b := m.RTT(i, j), m.RTT(j, i)
			if !finite(a) || !finite(b) {
				return fmt.Errorf("latency: non-finite RTT at (%d,%d): %v vs %v", i, j, a, b)
			}
			if a != b {
				return fmt.Errorf("latency: asymmetric pair (%d,%d): %v vs %v", i, j, a, b)
			}
			if a < 0 {
				return fmt.Errorf("latency: negative RTT at (%d,%d): %v", i, j, a)
			}
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// OffDiagonal returns all upper-triangle RTT values, useful for summary
// statistics and CDFs.
func (m *Matrix) OffDiagonal() []float64 {
	out := make([]float64, 0, m.n*(m.n-1)/2)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			out = append(out, m.RTT(i, j))
		}
	}
	return out
}

// Summary describes the distribution of pairwise RTTs.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P90    float64
	Min    float64
	Max    float64
	// TriangleViolationFrac is the fraction of sampled (i,j,k) triples
	// where RTT(i,k) > RTT(i,j)+RTT(j,k), a known property of Internet
	// paths that stresses metric-embedding coordinate systems.
	TriangleViolationFrac float64
}

// Summarize computes summary statistics. Triangle violations are measured
// exhaustively for n <= 64 and on a deterministic stride sample above.
func (m *Matrix) Summarize() Summary {
	vals := m.OffDiagonal()
	s := Summary{N: m.n, Mean: stats.Mean(vals)}
	s.Median, _ = stats.Median(vals)
	s.P90, _ = stats.Percentile(vals, 90)
	s.Min, _ = stats.Min(vals)
	s.Max, _ = stats.Max(vals)

	var checked, violated int
	stride := 1
	if m.n > 64 {
		stride = m.n / 64
	}
	for i := 0; i < m.n; i += stride {
		for j := 0; j < m.n; j += stride {
			if j == i {
				continue
			}
			for k := 0; k < m.n; k += stride {
				if k == i || k == j {
					continue
				}
				checked++
				if m.RTT(i, k) > m.RTT(i, j)+m.RTT(j, k)+1e-9 {
					violated++
				}
			}
		}
	}
	if checked > 0 {
		s.TriangleViolationFrac = float64(violated) / float64(checked)
	}
	return s
}

// WriteTo serializes the matrix in a whitespace text format: the first
// line is n, followed by n rows of n space-separated millisecond values.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "%d\n", m.n)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			sep := " "
			if j == 0 {
				sep = ""
			}
			n, err = fmt.Fprintf(bw, "%s%g", sep, m.RTT(i, j))
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		n, err = fmt.Fprintln(bw)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// Read parses a matrix in the format produced by WriteTo. Asymmetric
// inputs (common in raw measurement dumps) are symmetrized by averaging;
// a NaN or infinite entry is refused by position, and the result passes
// Validate.
func Read(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("latency: empty input")
	}
	header := strings.TrimSpace(sc.Text())
	n, err := strconv.Atoi(header)
	if err != nil {
		return nil, fmt.Errorf("latency: bad header %q: %w", header, err)
	}
	m, err := NewMatrix(n)
	if err != nil {
		return nil, err
	}
	raw := make([]float64, 0, n*n)
	for sc.Scan() {
		for _, f := range strings.Fields(sc.Text()) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("latency: bad value %q: %w", f, err)
			}
			if !finite(v) {
				return nil, fmt.Errorf("latency: non-finite value %q at (%d,%d)", f, len(raw)/n, len(raw)%n)
			}
			raw = append(raw, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("latency: read: %w", err)
	}
	if len(raw) != n*n {
		return nil, fmt.Errorf("latency: got %d values, want %d", len(raw), n*n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := (raw[i*n+j] + raw[j*n+i]) / 2
			if avg < 0 {
				return nil, fmt.Errorf("latency: negative RTT at (%d,%d)", i, j)
			}
			m.SetRTT(i, j, avg)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
