package latency

import (
	"strings"
	"testing"
)

func TestReadKingBasic(t *testing.T) {
	// 3 nodes, µs values, one missing pair (1,2)/(2,1).
	in := `
# comment line
0 10000 20000
10000 0 -1
20000 -1 0
`
	m, err := ReadKing(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	if got := m.RTT(0, 1); got != 10 { // 10000µs → 10ms
		t.Errorf("RTT(0,1) = %v, want 10", got)
	}
	if got := m.RTT(0, 2); got != 20 {
		t.Errorf("RTT(0,2) = %v, want 20", got)
	}
	// Missing pair repaired from row medians: row1 median = 10, row2
	// median = 20 → 15.
	if got := m.RTT(1, 2); got != 15 {
		t.Errorf("repaired RTT(1,2) = %v, want 15", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadKingAsymmetricAveraged(t *testing.T) {
	in := "0 10000\n30000 0\n"
	m, err := ReadKing(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RTT(0, 1); got != 20 {
		t.Errorf("RTT = %v, want averaged 20", got)
	}
}

func TestReadKingOneSidedMeasurement(t *testing.T) {
	in := "0 -1\n30000 0\n"
	m, err := ReadKing(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RTT(0, 1); got != 30 {
		t.Errorf("RTT = %v, want one-sided 30", got)
	}
}

func TestReadKingDiagonalForcedZero(t *testing.T) {
	// Nonzero diagonal entries are overridden.
	in := "5000 10000\n10000 7000\n"
	m, err := ReadKing(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.RTT(0, 0) != 0 || m.RTT(1, 1) != 0 {
		t.Error("diagonal should be zero")
	}
}

func TestReadKingErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"only comment": "# nothing\n",
		"ragged":       "0 1 2\n1 0\n",
		"not numeric":  "0 x\nx 0\n",
		"too few cols": "0\n",
		"extra rows":   "0 1\n1 0\n1 1\n",
		"short rows":   "0 1 1\n1 0 1\n",
		"all missing":  "0 -1\n-1 0\n",
		"NaN":          "0 NaN\nNaN 0\n",
		"Inf":          "0 Inf\nInf 0\n",
		"-Inf":         "0 -Inf\n10 0\n",
		"infinity":     "0 10\ninfinity 0\n",
		"NaN diagonal": "NaN 10\n10 0\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadKing(strings.NewReader(in)); err == nil {
				t.Errorf("input %q should fail", in)
			}
		})
	}
}

func TestReadKingZeroMeasurementClamped(t *testing.T) {
	in := "0 0\n0 0\n"
	m, err := ReadKing(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RTT(0, 1); got != 0.1 {
		t.Errorf("zero off-diagonal should clamp to 0.1, got %v", got)
	}
}
