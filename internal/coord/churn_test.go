package coord

import (
	"math/rand"
	"testing"
)

func TestEmbedLateJoinValidation(t *testing.T) {
	m := testMatrix(t, 20, 50)
	cfg := defaultEmbedConfig()
	cfg.LateJoinFrac = -0.1
	if _, err := Embed(rand.New(rand.NewSource(1)), m, cfg); err == nil {
		t.Error("negative fraction should fail")
	}
	cfg.LateJoinFrac = 1
	if _, err := Embed(rand.New(rand.NewSource(1)), m, cfg); err == nil {
		t.Error("fraction 1 should fail")
	}
}

func TestEmbedLateJoinersStillConverge(t *testing.T) {
	m := testMatrix(t, 70, 51)
	cfg := defaultEmbedConfig()
	cfg.Rounds = 400
	cfg.LateJoinFrac = 0.3
	emb, err := Embed(rand.New(rand.NewSource(2)), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every node — including late joiners — must end with a valid,
	// non-origin coordinate.
	origin := 0
	for i, c := range emb.Coords {
		if !c.IsValid() {
			t.Fatalf("node %d coordinate invalid", i)
		}
		if c.Pos.IsZero() {
			origin++
		}
	}
	if origin > 0 {
		t.Errorf("%d nodes never moved from the origin", origin)
	}
	s, err := EvalError(emb, m)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy degrades a little under churn but must stay useful.
	if s.MedianRel > 0.5 {
		t.Errorf("median relative error %v too high under churn", s.MedianRel)
	}
}

func TestEmbedChurnVsStable(t *testing.T) {
	m := testMatrix(t, 60, 52)
	run := func(frac float64) ErrorSummary {
		cfg := defaultEmbedConfig()
		cfg.Rounds = 300
		cfg.LateJoinFrac = frac
		emb, err := Embed(rand.New(rand.NewSource(3)), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := EvalError(emb, m)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stable := run(0)
	churn := run(0.4)
	t.Logf("stable rel %.3f vs churn rel %.3f", stable.MedianRel, churn.MedianRel)
	// Churn cannot make things dramatically better; it may be slightly
	// better by chance, but a large win would indicate the stable path
	// is broken.
	if churn.MedianRel < stable.MedianRel*0.5 {
		t.Errorf("churn run (%v) implausibly beat stable run (%v)", churn.MedianRel, stable.MedianRel)
	}
}
