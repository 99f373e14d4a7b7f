package experiment

import "testing"

func smallScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.Setup.Nodes = 60
	cfg.Setup.CoordRounds = 60
	cfg.NumDCs = 8
	cfg.Clients = 5000
	cfg.Rate = 4000
	cfg.BatchSize = 512
	cfg.Epochs = 4
	return cfg
}

func TestScaleRuns(t *testing.T) {
	res, err := Scale(1, smallScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.TotalAccesses < 4*4000 {
		t.Fatalf("generated only %d accesses", res.TotalAccesses)
	}
	// Batching is the point: the event queue must see orders of
	// magnitude fewer frames than accesses.
	if res.TotalFrames*10 > res.TotalAccesses {
		t.Fatalf("%d frames for %d accesses: batching not effective", res.TotalFrames, res.TotalAccesses)
	}
	if res.MeanMs <= 0 {
		t.Fatalf("mean delay %v", res.MeanMs)
	}
	if len(res.StreamHash) != 64 {
		t.Fatalf("stream hash %q", res.StreamHash)
	}
	if out := RenderScale(res); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestScaleDeterministic: the seed reaches the stream. (That one seed
// replays byte for byte is cmd/replicasim's TestGolden.)
func TestScaleDeterministic(t *testing.T) {
	a, err := Scale(7, smallScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Scale(8, smallScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.StreamHash == c.StreamHash {
		t.Fatal("different seeds produced the same stream")
	}
}

// TestScaleShardedMatchesUnsharded: the shard count must not change
// what the workload looks like, only how it is ingested; measured mean
// delays are identical because routing and the stream are shard-blind.
func TestScaleShardedMatchesUnsharded(t *testing.T) {
	cfg := smallScaleConfig()
	cfg.IngestShards = 0
	a, err := Scale(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IngestShards = 8
	b, err := Scale(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.StreamHash != b.StreamHash {
		t.Fatal("shard count changed the generated stream")
	}
	for i := range a.Rows {
		if a.Rows[i].Accesses != b.Rows[i].Accesses {
			t.Fatalf("epoch %d: sharded run generated %d accesses, unsharded %d",
				i, b.Rows[i].Accesses, a.Rows[i].Accesses)
		}
	}
	// Epoch 0 routes from the identical initial placement, so measured
	// delays match exactly; later epochs may diverge because the two
	// summaries partition micro-clusters differently and can migrate to
	// different (similar-quality) placements.
	if a.Rows[0].MeanMs != b.Rows[0].MeanMs {
		t.Fatalf("epoch 0 delays diverged before any migration: %v vs %v",
			a.Rows[0].MeanMs, b.Rows[0].MeanMs)
	}
}
