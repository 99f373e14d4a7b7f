package experiment

import (
	"strings"
	"testing"
)

func quickDriftConfig() DriftConfig {
	cfg := DefaultDriftConfig()
	cfg.Setup.Nodes = 60
	cfg.Setup.CoordRounds = 120
	cfg.NumDCs = 10
	cfg.Epochs = 6
	cfg.AccessesPerEpoch = 400
	return cfg
}

func TestDriftValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DriftConfig)
	}{
		{"numDCs zero", func(c *DriftConfig) { c.NumDCs = 0 }},
		{"numDCs too big", func(c *DriftConfig) { c.NumDCs = c.Setup.Nodes }},
		{"k zero", func(c *DriftConfig) { c.K = 0 }},
		{"k > DCs", func(c *DriftConfig) { c.K = c.NumDCs + 1 }},
		{"m zero", func(c *DriftConfig) { c.M = 0 }},
		{"no epochs", func(c *DriftConfig) { c.Epochs = 0 }},
		{"no accesses", func(c *DriftConfig) { c.AccessesPerEpoch = 0 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickDriftConfig()
			tt.mut(&cfg)
			if _, err := Drift(1, cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestDriftAdaptiveBeatsStatic(t *testing.T) {
	cfg := quickDriftConfig()
	res, err := Drift(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cfg.Epochs {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.AdaptiveMs <= 0 || r.StaticMs <= 0 {
			t.Errorf("epoch %d has non-positive delays: %+v", r.Epoch, r)
		}
		if len(r.Replicas) != cfg.K {
			t.Errorf("epoch %d has %d replicas", r.Epoch, len(r.Replicas))
		}
	}
	// The whole point: under drifting demand the migrating system must
	// end up at least as good as the frozen one, typically much better.
	if res.MeanAdaptiveMs > res.MeanStaticMs*1.02 {
		t.Errorf("adaptive mean %.1f should not exceed static %.1f",
			res.MeanAdaptiveMs, res.MeanStaticMs)
	}
	if res.Migrations == 0 {
		t.Error("drifting demand should trigger at least one migration")
	}
	if res.SummaryBytesPerEpoch <= 0 {
		t.Error("summary bytes not accounted")
	}
}

func TestRenderDrift(t *testing.T) {
	cfg := quickDriftConfig()
	cfg.Epochs = 2
	res, err := Drift(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderDrift(res)
	if !strings.Contains(out, "adaptive") || !strings.Contains(out, "migrations") {
		t.Errorf("render incomplete:\n%s", out)
	}
}
