package experiment

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/placement"
)

// smallSetup keeps tests fast: a 60-node world with a short embedding.
func smallSetup() SetupConfig {
	cfg := DefaultSetup()
	cfg.Nodes = 60
	cfg.CoordRounds = 120
	return cfg
}

func smallWorlds(t *testing.T, runs int) []*World {
	t.Helper()
	ws, err := BuildWorlds(runs, smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestBuildWorldValidation(t *testing.T) {
	cfg := smallSetup()
	cfg.Nodes = 2
	if _, err := BuildWorld(1, cfg); err == nil {
		t.Error("too-small world should fail")
	}
	if _, err := BuildWorlds(0, smallSetup()); err == nil {
		t.Error("zero runs should fail")
	}
}

func TestWorldInstance(t *testing.T) {
	w := smallWorlds(t, 1)[0]
	in, err := w.Instance(rand.New(rand.NewSource(1)), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Candidates) != 10 {
		t.Errorf("candidates = %d", len(in.Candidates))
	}
	if len(in.Clients) != 50 {
		t.Errorf("clients = %d", len(in.Clients))
	}
	// Disjointness.
	cand := make(map[int]bool)
	for _, c := range in.Candidates {
		cand[c] = true
	}
	for _, c := range in.Clients {
		if cand[c] {
			t.Fatalf("node %d is both candidate and client", c)
		}
	}
	if _, err := w.Instance(rand.New(rand.NewSource(1)), 0, 3); err == nil {
		t.Error("numDCs=0 should fail")
	}
	if _, err := w.Instance(rand.New(rand.NewSource(1)), 60, 3); err == nil {
		t.Error("numDCs=n should fail")
	}
}

func TestRunCellOrderingMatchesPaper(t *testing.T) {
	worlds := smallWorlds(t, 5)
	cells, err := RunCell(worlds, 12, 3, PaperStrategies(10))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Cell, len(cells))
	for _, c := range cells {
		if c.Runs != 5 {
			t.Errorf("%s ran %d times, want 5", c.Strategy, c.Runs)
		}
		if c.MeanMs <= 0 {
			t.Errorf("%s mean delay %v not positive", c.Strategy, c.MeanMs)
		}
		byName[c.Strategy] = c
	}
	opt := byName["optimal"].MeanMs
	rnd := byName["random"].MeanMs
	online := byName["online"].MeanMs
	offline := byName["offline-kmeans"].MeanMs

	if opt > online+1e-9 || opt > offline+1e-9 || opt > rnd+1e-9 {
		t.Errorf("optimal (%v) must lower-bound all strategies (online %v, offline %v, random %v)",
			opt, online, offline, rnd)
	}
	// The paper's headline: online well below random (≥35% in the paper;
	// require a solid margin here on the small testbed).
	if online > rnd*0.8 {
		t.Errorf("online (%v) should clearly beat random (%v)", online, rnd)
	}
	// Online is near optimal (the paper: "close to the lowest average
	// access delay").
	if online > opt*1.6 {
		t.Errorf("online (%v) should be near optimal (%v)", online, opt)
	}
}

func TestAllStrategiesComplete(t *testing.T) {
	ss := AllStrategies(8)
	if len(ss) != 7 {
		t.Fatalf("got %d strategies", len(ss))
	}
	names := make(map[string]bool, len(ss))
	for _, s := range ss {
		names[s.Name()] = true
	}
	for _, want := range []string{
		"random", "hotzone", "offline-kmeans", "online",
		"greedy", "local-search", "optimal",
	} {
		if !names[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
	// The full roster runs end to end on one cell.
	worlds := smallWorlds(t, 1)
	cells, err := RunCell(worlds, 10, 2, ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 7 {
		t.Fatalf("cells = %d", len(cells))
	}
}

func TestRunCellValidation(t *testing.T) {
	worlds := smallWorlds(t, 1)
	if _, err := RunCell(nil, 10, 3, PaperStrategies(4)); err == nil {
		t.Error("no worlds should fail")
	}
	if _, err := RunCell(worlds, 10, 3, nil); err == nil {
		t.Error("no strategies should fail")
	}
}

func TestFigure1ShapeDelayFallsWithMoreDCs(t *testing.T) {
	worlds := smallWorlds(t, 4)
	strategies := []placement.Strategy{placement.Online{M: 8, Rounds: 2}, placement.Optimal{}}
	fig, err := Figure1(worlds, []int{5, 15, 25}, 3, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.X) != 3 {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		// Informed strategies improve (or at worst hold) as candidates
		// multiply; allow small noise.
		if s.Y[2] > s.Y[0]*1.1 {
			t.Errorf("series %s: delay rose with more DCs: %v", s.Name, s.Y)
		}
	}
	out := fig.Render()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "optimal") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFigure2ShapeDelayFallsWithMoreReplicas(t *testing.T) {
	worlds := smallWorlds(t, 4)
	strategies := []placement.Strategy{placement.Random{}, placement.Online{M: 8, Rounds: 2}}
	fig, err := Figure2(worlds, 15, []int{1, 3, 5}, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Y[2] > s.Y[0]+1e-9 {
			t.Errorf("series %s: delay rose with more replicas: %v", s.Name, s.Y)
		}
	}
}

func TestFigure3MicroClusterSweep(t *testing.T) {
	worlds := smallWorlds(t, 3)
	fig, err := Figure3(worlds, 15, []int{2, 4}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %s has non-positive delay %v", s.Name, y)
			}
		}
	}
}

func TestFigureInputValidation(t *testing.T) {
	worlds := smallWorlds(t, 1)
	if _, err := Figure1(worlds, nil, 3, PaperStrategies(4)); err == nil {
		t.Error("figure1 without DC counts should fail")
	}
	if _, err := Figure2(worlds, 10, nil, PaperStrategies(4)); err == nil {
		t.Error("figure2 without ks should fail")
	}
	if _, err := Figure3(worlds, 10, []int{1}, nil); err == nil {
		t.Error("figure3 without ms should fail")
	}
}

func TestTable2CostSeparation(t *testing.T) {
	cfg := CostConfig{K: 3, M: 20, Dims: 3, Ns: []int{500, 5000}}
	rows, err := Table2(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.OnlineBytes <= 0 || row.OfflineBytes <= 0 {
			t.Errorf("row %+v has non-positive sizes", row)
		}
	}
	// Offline bytes grow ~10x with n; online bytes stay bounded.
	if rows[1].OfflineBytes < rows[0].OfflineBytes*5 {
		t.Errorf("offline bytes should grow with n: %d -> %d", rows[0].OfflineBytes, rows[1].OfflineBytes)
	}
	if rows[1].OnlineBytes > rows[0].OnlineBytes*3 {
		t.Errorf("online bytes should stay bounded: %d -> %d", rows[0].OnlineBytes, rows[1].OnlineBytes)
	}
	// At the larger n the online summary is far smaller than raw data.
	if rows[1].OnlineBytes*10 > rows[1].OfflineBytes {
		t.Errorf("online %dB not ≪ offline %dB", rows[1].OnlineBytes, rows[1].OfflineBytes)
	}
	out := RenderCostTable(rows)
	if !strings.Contains(out, "Table II") {
		t.Errorf("render missing title:\n%s", out)
	}
}

func TestTable2Validation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if _, err := Table2(r, CostConfig{K: 0, M: 1, Dims: 1, Ns: []int{10}}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Table2(r, CostConfig{K: 1, M: 1, Dims: 1}); err == nil {
		t.Error("no Ns should fail")
	}
	if _, err := Table2(r, CostConfig{K: 1, M: 1, Dims: 1, Ns: []int{0}}); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestCoordAccuracy(t *testing.T) {
	worlds := smallWorlds(t, 2)
	rows, err := CoordAccuracy(worlds, smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want vivaldi+rnp rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.MedianAbsMs <= 0 || r.FracUnder10ms < 0 || r.FracUnder10ms > 1 {
			t.Errorf("implausible accuracy row %+v", r)
		}
	}
	out := RenderAccuracy(rows)
	if !strings.Contains(out, "vivaldi") || !strings.Contains(out, "rnp") {
		t.Errorf("render missing algorithms:\n%s", out)
	}
	if _, err := CoordAccuracy(nil, smallSetup()); err == nil {
		t.Error("no worlds should fail")
	}
}

// TestRunCellObservedRecordsDistributions checks that instrumented cell
// runs populate per-strategy delay histograms, one observation per
// world, matching the averaged cells.
func TestRunCellObservedRecordsDistributions(t *testing.T) {
	worlds, err := BuildWorlds(3, SetupConfig{
		Nodes: 24, CoordAlgorithm: coord.AlgorithmRNP,
		CoordDims: 2, CoordRounds: 30, NoiseFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []placement.Strategy{placement.Random{}, placement.Greedy{}}
	reg := metrics.NewRegistry()
	cells, err := RunCellObserved(worlds, 6, 2, strategies, reg)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["experiment_runs_total"]; got != int64(len(worlds)*len(strategies)) {
		t.Errorf("experiment_runs_total = %d, want %d", got, len(worlds)*len(strategies))
	}
	for _, c := range cells {
		h, ok := s.Histograms["experiment_delay_ms_"+c.Strategy]
		if !ok {
			t.Fatalf("no histogram for strategy %s", c.Strategy)
		}
		if h.Count != int64(len(worlds)) {
			t.Errorf("%s histogram count = %d, want %d", c.Strategy, h.Count, len(worlds))
		}
		if got := h.Sum / float64(h.Count); mathAbs(got-c.MeanMs) > 1e-9 {
			t.Errorf("%s histogram mean %v != cell mean %v", c.Strategy, got, c.MeanMs)
		}
	}
	// Uninstrumented RunCell returns identical cells.
	plain, err := RunCell(worlds, 6, 2, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != cells[i] {
			t.Errorf("RunCell diverged from RunCellObserved: %+v vs %+v", plain[i], cells[i])
		}
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
