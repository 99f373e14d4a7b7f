package latency

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/georep/georep/internal/stats"
)

// ReadKing parses RTT matrices in the "king" / p2psim format used by
// several public wide-area datasets (including the MIT King dataset the
// Vivaldi paper evaluates on): whitespace-separated integer RTTs in
// MICROSECONDS, one matrix row per line, with negative entries marking
// failed measurements. The node count is inferred from the first row.
//
// Missing entries are repaired so downstream code sees a complete
// matrix: a missing (i,j) takes the value of (j,i) when present, else
// the median of the row's valid entries, else the global median.
// Asymmetric pairs are symmetrized by averaging. A NaN or infinite entry
// is refused by position, and the result passes Validate.
func ReadKing(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	var rows [][]float64
	width := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if width == -1 {
			width = len(fields)
			if width < 2 {
				return nil, fmt.Errorf("latency: king row has %d entries, need >= 2", width)
			}
		} else if len(fields) != width {
			return nil, fmt.Errorf("latency: king row %d has %d entries, want %d",
				len(rows), len(fields), width)
		}
		row := make([]float64, width)
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("latency: king value %q: %w", f, err)
			}
			if !finite(v) {
				return nil, fmt.Errorf("latency: non-finite king value %q at (%d,%d)", f, len(rows), i)
			}
			if v < 0 {
				row[i] = -1 // missing
			} else {
				row[i] = v / 1000 // µs → ms
			}
			if i == len(rows) {
				row[i] = 0 // the diagonal is definitionally zero
			}
		}
		rows = append(rows, row)
		if len(rows) > width {
			return nil, fmt.Errorf("latency: king matrix has more than %d rows", width)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("latency: king read: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("latency: empty king input")
	}
	if len(rows) != width {
		return nil, fmt.Errorf("latency: king matrix is %d rows × %d cols", len(rows), width)
	}
	n := width

	// Global median of valid off-diagonal entries, the repair of last
	// resort.
	var valid []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rows[i][j] >= 0 {
				valid = append(valid, rows[i][j])
			}
		}
	}
	if len(valid) == 0 {
		return nil, fmt.Errorf("latency: king matrix has no valid measurements")
	}
	globalMedian, err := stats.Median(valid)
	if err != nil {
		return nil, err
	}
	rowMedian := make([]float64, n)
	for i := 0; i < n; i++ {
		var rv []float64
		for j := 0; j < n; j++ {
			if i != j && rows[i][j] >= 0 {
				rv = append(rv, rows[i][j])
			}
		}
		if len(rv) > 0 {
			rowMedian[i], _ = stats.Median(rv)
		} else {
			rowMedian[i] = globalMedian
		}
	}

	m, err := NewMatrix(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := rows[i][j], rows[j][i]
			var v float64
			switch {
			case a >= 0 && b >= 0:
				v = (a + b) / 2
			case a >= 0:
				v = a
			case b >= 0:
				v = b
			default:
				v = (rowMedian[i] + rowMedian[j]) / 2
			}
			if v <= 0 {
				v = 0.1 // distinct hosts are never truly at zero RTT
			}
			m.SetRTT(i, j, v)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
