package latency

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/geo"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewMatrix(-3); err == nil {
		t.Error("negative n should fail")
	}
}

func TestSetRTTSymmetric(t *testing.T) {
	m, err := NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRTT(0, 2, 42)
	if m.RTT(2, 0) != 42 || m.RTT(0, 2) != 42 {
		t.Errorf("not symmetric: %v vs %v", m.RTT(0, 2), m.RTT(2, 0))
	}
	m.SetRTT(1, 1, 99) // ignored
	if m.RTT(1, 1) != 0 {
		t.Errorf("diagonal should stay 0, got %v", m.RTT(1, 1))
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	m, _ := NewMatrix(2)
	m.rtt[0*2+1] = 5 // bypass SetRTT
	if err := m.Validate(); err == nil {
		t.Error("asymmetric matrix should fail validation")
	}
}

func TestValidateRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m, _ := NewMatrix(3)
		m.SetRTT(1, 2, v)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), "non-finite RTT at (1,2)") {
			t.Errorf("RTT %v: err = %v, want a non-finite refusal naming (1,2)", v, err)
		}
	}
}

func TestOffDiagonalCount(t *testing.T) {
	m, _ := NewMatrix(5)
	if got := len(m.OffDiagonal()); got != 10 {
		t.Errorf("off-diagonal count = %d, want 10", got)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m, _, err := Generate(r, GenerateConfig{
		Nodes: 12, StretchMin: 1.3, StretchMax: 2, AccessMinMs: 1,
		AccessMaxMs: 5, JitterFrac: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != m.N() {
		t.Fatalf("N mismatch %d vs %d", back.N(), m.N())
	}
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if got, want := back.RTT(i, j), m.RTT(i, j); got != want {
				t.Fatalf("RTT(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestReadSymmetrizes(t *testing.T) {
	in := "2\n0 10\n20 0\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.RTT(0, 1) != 15 {
		t.Errorf("symmetrized RTT = %v, want 15", m.RTT(0, 1))
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "x\n",
		"bad value":     "2\n0 a\n1 0\n",
		"short payload": "3\n0 1 2\n",
		"negative":      "2\n0 -5\n-5 0\n",
		"NaN":           "2\n0 NaN\nNaN 0\n",
		"Inf":           "2\n0 Inf\nInf 0\n",
		"-Inf":          "2\n0 10\n-Inf 0\n",
		"infinity":      "2\n0 infinity\n10 0\n",
		"NaN diagonal":  "2\nNaN 10\n10 0\n",
		"overflow":      "2\n0 1e308\n1.7e308 0\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(in)); err == nil {
				t.Errorf("input %q should fail", in)
			}
		})
	}
	// A non-finite token is refused by its position.
	if _, err := Read(strings.NewReader("2\n0 10\n-Inf 0\n")); err == nil || !strings.Contains(err.Error(), "(1,0)") {
		t.Errorf("err = %v, want the entry (1,0) named", err)
	}
}

func TestGenerateDefaultConfig(t *testing.T) {
	cfg := DefaultGenerateConfig()
	r := rand.New(rand.NewSource(2))
	m, places, err := Generate(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 226 || len(places) != 226 {
		t.Fatalf("got %d nodes, %d placements", m.N(), len(places))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := m.Summarize()
	// Wide-area sanity: the mean pairwise RTT should be tens of ms at
	// least (intercontinental pairs exist) and below a second.
	if sum.Mean < 20 || sum.Mean > 500 {
		t.Errorf("mean RTT %v ms implausible for a global testbed", sum.Mean)
	}
	if sum.Min <= 0 {
		t.Errorf("min RTT %v must be positive", sum.Min)
	}
	if sum.TriangleViolationFrac == 0 {
		t.Error("expected some triangle violations with TIVProb > 0")
	}
	if sum.TriangleViolationFrac > 0.4 {
		t.Errorf("TIV fraction %v too high", sum.TriangleViolationFrac)
	}
}

func TestGenerateClusteredStructure(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m, places, err := Generate(r, DefaultGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Same-region pairs must be much faster than cross-region pairs on
	// average — this clustered structure is what placement exploits.
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			if places[i].Region == places[j].Region {
				sameSum += m.RTT(i, j)
				sameN++
			} else {
				crossSum += m.RTT(i, j)
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Fatal("degenerate placement")
	}
	same, cross := sameSum/float64(sameN), crossSum/float64(crossN)
	if same*2 > cross {
		t.Errorf("intra-region mean %v ms not well below inter-region %v ms", same, cross)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenerateConfig()
	cfg.Nodes = 40
	a, _, err := Generate(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.RTT(i, j) != b.RTT(i, j) {
				t.Fatalf("nondeterministic at (%d,%d)", i, j)
			}
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	base := DefaultGenerateConfig()
	mutations := []struct {
		name string
		mut  func(*GenerateConfig)
	}{
		{"one node", func(c *GenerateConfig) { c.Nodes = 1 }},
		{"stretch below 1", func(c *GenerateConfig) { c.StretchMin = 0.5 }},
		{"stretch inverted", func(c *GenerateConfig) { c.StretchMax = c.StretchMin - 0.1 }},
		{"negative access", func(c *GenerateConfig) { c.AccessMinMs = -1 }},
		{"access inverted", func(c *GenerateConfig) { c.AccessMaxMs = c.AccessMinMs - 1 }},
		{"jitter too big", func(c *GenerateConfig) { c.JitterFrac = 0.9 }},
		{"bad TIV prob", func(c *GenerateConfig) { c.TIVProb = 1.5 }},
		{"bad TIV factor", func(c *GenerateConfig) { c.TIVProb = 0.1; c.TIVFactor = 0.5 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, _, err := Generate(rand.New(rand.NewSource(1)), cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestGenerateCustomRegions(t *testing.T) {
	regions := []geo.Region{
		{Name: "a", Center: geo.Point{LatDeg: 0, LonDeg: 0}, SpreadKm: 100, Weight: 1},
		{Name: "b", Center: geo.Point{LatDeg: 0, LonDeg: 90}, SpreadKm: 100, Weight: 1},
	}
	cfg := DefaultGenerateConfig()
	cfg.Nodes = 20
	cfg.Regions = regions
	m, places, err := Generate(rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range places {
		if p.Region < 0 || p.Region > 1 {
			t.Fatalf("unknown region %d", p.Region)
		}
	}
	if m.N() != 20 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestSampler(t *testing.T) {
	m, _ := NewMatrix(2)
	m.SetRTT(0, 1, 100)

	exact := NewSampler(m, 0, rand.New(rand.NewSource(1)))
	if got := exact.Sample(0, 1); got != 100 {
		t.Errorf("noiseless sample = %v, want 100", got)
	}

	noisy := NewSampler(m, 0.1, rand.New(rand.NewSource(2)))
	var acc []float64
	for i := 0; i < 2000; i++ {
		v := noisy.Sample(0, 1)
		if v <= 0 {
			t.Fatalf("sample %v not positive", v)
		}
		acc = append(acc, v)
	}
	var sum float64
	for _, v := range acc {
		sum += v
	}
	mean := sum / float64(len(acc))
	if mean < 95 || mean > 105 {
		t.Errorf("noisy mean %v strays from base 100", mean)
	}
	if got := noisy.Sample(1, 1); got != 0 {
		t.Errorf("self sample = %v, want 0", got)
	}
}

// Property: generated matrices always validate and have strictly positive
// off-diagonal entries across seeds and sizes.
func TestQuickGeneratedMatrixValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultGenerateConfig()
		cfg.Nodes = 5 + r.Intn(30)
		m, _, err := Generate(r, cfg)
		if err != nil {
			return false
		}
		if m.Validate() != nil {
			return false
		}
		for _, v := range m.OffDiagonal() {
			if v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
