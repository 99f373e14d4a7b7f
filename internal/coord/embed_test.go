package coord

import (
	"math/rand"
	"testing"

	"github.com/georep/georep/internal/latency"
)

// defaultEmbedConfig is a configuration that converges on the 226-node
// matrices used throughout the experiments.
func defaultEmbedConfig() EmbedConfig {
	return EmbedConfig{
		Algorithm: AlgorithmRNP,
		Dims:      3,
		Rounds:    300,
		NoiseFrac: 0.1,
	}
}

func testMatrix(t *testing.T, n int, seed int64) *latency.Matrix {
	t.Helper()
	cfg := latency.DefaultGenerateConfig()
	cfg.Nodes = n
	m, _, err := latency.Generate(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEmbedConfigValidation(t *testing.T) {
	m := testMatrix(t, 10, 1)
	base := defaultEmbedConfig()
	mutations := []struct {
		name string
		mut  func(*EmbedConfig)
	}{
		{"zero dims", func(c *EmbedConfig) { c.Dims = 0 }},
		{"zero rounds", func(c *EmbedConfig) { c.Rounds = 0 }},
		{"negative noise", func(c *EmbedConfig) { c.NoiseFrac = -0.1 }},
		{"huge noise", func(c *EmbedConfig) { c.NoiseFrac = 0.9 }},
		{"negative neighbors", func(c *EmbedConfig) { c.NeighborSet = -1 }},
		{"neighbor set too large", func(c *EmbedConfig) { c.NeighborSet = 10 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, err := Embed(rand.New(rand.NewSource(1)), m, cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestEmbedProducesUsefulCoordinates(t *testing.T) {
	m := testMatrix(t, 60, 2)
	for _, algo := range []Algorithm{AlgorithmVivaldi, AlgorithmRNP} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := defaultEmbedConfig()
			cfg.Algorithm = algo
			emb, err := Embed(rand.New(rand.NewSource(3)), m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if emb.N() != m.N() {
				t.Fatalf("embedding has %d nodes, want %d", emb.N(), m.N())
			}
			for i, c := range emb.Coords {
				if !c.IsValid() {
					t.Fatalf("node %d coordinate invalid: %+v", i, c)
				}
			}
			s, err := EvalError(emb, m)
			if err != nil {
				t.Fatal(err)
			}
			// A working embedding predicts the median pair within 30%
			// relative error; a broken one is off by 100%+.
			if s.MedianRel > 0.35 {
				t.Errorf("median relative error %v too high — embedding failed", s.MedianRel)
			}
			if emb.Predict(0, 0) != 0 {
				t.Error("self-prediction should be 0")
			}
		})
	}
}

func TestEmbedDeterministic(t *testing.T) {
	m := testMatrix(t, 30, 4)
	cfg := defaultEmbedConfig()
	cfg.Rounds = 50
	a, err := Embed(rand.New(rand.NewSource(5)), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Embed(rand.New(rand.NewSource(5)), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Coords {
		if !a.Coords[i].Pos.Equal(b.Coords[i].Pos) {
			t.Fatalf("node %d coordinates differ across identical runs", i)
		}
	}
}

func TestEmbedWithNeighborSet(t *testing.T) {
	m := testMatrix(t, 40, 6)
	cfg := defaultEmbedConfig()
	cfg.NeighborSet = 8
	emb, err := Embed(rand.New(rand.NewSource(7)), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := EvalError(emb, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.MedianRel > 0.5 {
		t.Errorf("neighbor-set embedding median rel error %v too high", s.MedianRel)
	}
}

// The paper's §III-A claim: RNP should predict a majority of pairs with
// low error even under measurement noise, and should not be worse than
// Vivaldi. We verify the ordering on a noisy matrix.
func TestRNPBeatsOrMatchesVivaldiUnderNoise(t *testing.T) {
	m := testMatrix(t, 80, 8)
	run := func(algo Algorithm) ErrorSummary {
		cfg := defaultEmbedConfig()
		cfg.Algorithm = algo
		cfg.NoiseFrac = 0.25 // unstable platform, RNP's target regime
		cfg.Rounds = 400
		emb, err := Embed(rand.New(rand.NewSource(9)), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := EvalError(emb, m)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rnp := run(AlgorithmRNP)
	viv := run(AlgorithmVivaldi)
	t.Logf("rnp median rel %.3f vs vivaldi %.3f", rnp.MedianRel, viv.MedianRel)
	if rnp.MedianRel > viv.MedianRel*1.15 {
		t.Errorf("RNP (%v) should not be clearly worse than Vivaldi (%v) under noise",
			rnp.MedianRel, viv.MedianRel)
	}
}

func TestEvalErrorMismatch(t *testing.T) {
	m := testMatrix(t, 10, 10)
	emb := &Embedding{Coords: make([]Coordinate, 5)}
	if _, err := EvalError(emb, m); err == nil {
		t.Error("node count mismatch should fail")
	}
}
