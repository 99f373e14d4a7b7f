package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPaperClaims asserts the paper's claims on the committed figure
// goldens, which TestGolden holds equal to what the program prints, so
// a change that regenerates the goldens on purpose is still checked
// against the paper. Claims that do not hold at this fixture are left
// out on purpose, see EXPERIMENTS.md ("What the goldens assert"):
// Fig. 1 is not monotone in the DC count, because each count samples a
// fresh candidate set, and Fig. 3's m=4 is not within noise of the best
// m.
func TestPaperClaims(t *testing.T) {
	// Fig. 2: with the same 20 candidates, the optimal delay cannot
	// rise with k.
	for _, name := range []string{"fig-2", "fig-2-vivaldi", "fig-strategies"} {
		optimal, _ := column(t, name, "optimal")
		for k := 1; k < len(optimal); k++ {
			if optimal[k] > optimal[k-1] {
				t.Errorf("%s: optimal delay rises from k=%d to k=%d: %v", name, k, k+1, optimal)
			}
		}
	}

	// Tail ablation: each optimal objective wins its own metric.
	for _, c := range []struct{ col, winner string }{{"mean (ms)", "optimal-mean"}, {"p95 (ms)", "optimal-p95"}} {
		vals, labels := column(t, "fig-tail", c.col)
		best := vals[index(t, labels, c.winner)]
		for i, v := range vals {
			if v < best {
				t.Errorf("fig-tail: %s %s %.1f beats %s %.1f", labels[i], c.col, v, c.winner, best)
			}
		}
	}

	// Table II: online summaries cost the same at every n; offline
	// ships every coordinate (a 4 B dimension count + 3 × 8 B each, plus a 6 B
	// header).
	n, _ := column(t, "table-2", "accesses")
	online, _ := column(t, "table-2", "online bytes")
	offline, _ := column(t, "table-2", "offline bytes")
	for i := range n {
		if online[i] != online[0] {
			t.Errorf("table-2: online bytes %v vary with n %v", online, n)
		}
		if offline[i] != 28*n[i]+6 {
			t.Errorf("table-2: %v offline bytes at n=%v, want 28n+6", offline[i], n[i])
		}
	}

	// §III-A: RNP is at least as accurate and as stable as Vivaldi.
	for _, col := range []string{"median |err| ms", "drift ms/rnd"} {
		vals, algos := column(t, "fig-rnp", col)
		if rnp, viv := vals[index(t, algos, "rnp")], vals[index(t, algos, "vivaldi")]; rnp > viv {
			t.Errorf("fig-rnp: rnp %s %.2f worse than vivaldi %.2f", col, rnp, viv)
		}
	}

	// Drift: following demand beats standing still.
	m := regexp.MustCompile(`mean: adaptive ([0-9.]+) ms vs static ([0-9.]+) ms`).FindStringSubmatch(golden(t, "fig-drift"))
	if m == nil {
		t.Fatal("fig-drift: no mean line")
	}
	if adaptive, static := parse(t, m[1]), parse(t, m[2]); adaptive >= static {
		t.Errorf("fig-drift: adaptive mean %.1f ms not below static %.1f ms", adaptive, static)
	}
}

func golden(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// cells splits an aligned line into its cells: runs of text separated
// by two or more spaces, so column names may contain single spaces.
var cells = regexp.MustCompile(`\S+( \S+)*`)

// column returns the values of a right-aligned numeric column, and each
// of its rows' labels (first field). The header is the first line with
// a cell named col; the rows run from it to the next blank line.
func column(t *testing.T, name, col string) (vals []float64, labels []string) {
	t.Helper()
	lines := strings.Split(golden(t, name), "\n")
	for h, header := range lines {
		for _, loc := range cells.FindAllStringIndex(header, -1) {
			if header[loc[0]:loc[1]] != col {
				continue
			}
			for _, row := range lines[h+1:] {
				if row == "" {
					break
				}
				fields := strings.Fields(row[:loc[1]])
				vals = append(vals, parse(t, fields[len(fields)-1]))
				labels = append(labels, fields[0])
			}
			return vals, labels
		}
	}
	t.Fatalf("%s: no column %q", name, col)
	return nil, nil
}

func index(t *testing.T, labels []string, label string) int {
	t.Helper()
	for i, l := range labels {
		if l == label {
			return i
		}
	}
	t.Fatalf("no row %q in %v", label, labels)
	return -1
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
