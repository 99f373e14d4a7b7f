package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/simnet"
	"github.com/georep/georep/internal/stats"
	"github.com/georep/georep/internal/workload"
)

// The scale experiment drives the planet-scale access engine end to end:
// a streaming generator expands a synthetic population of up to millions
// of clients over the world's PoP nodes, accesses flow to replicas as
// aggregated per-(node, replica) simnet frames — one event per frame,
// never one per access — and each replica ingests through its sharded,
// allocation-free batch path. The epoch cycle on top (collect summaries,
// adapt k, migrate) is unchanged: scale changes how demand reaches the
// coordinator, not what the coordinator decides.

// ScaleConfig parameterizes the scale experiment.
type ScaleConfig struct {
	// Setup builds the world (matrix + coordinates).
	Setup SetupConfig
	// NumDCs candidate data centers are drawn from the world's nodes.
	NumDCs int
	// K replicas are maintained with M micro-clusters each.
	K, M int
	// IngestShards is the per-replica summarizer shard count (power of
	// two; <= 1 runs unsharded).
	IngestShards int
	// Clients is the synthetic client population size.
	Clients int
	// Rate is the number of accesses generated per epoch.
	Rate int
	// BatchSize is the generator's batch buffer size.
	BatchSize int
	// Epochs is the number of placement epochs simulated.
	Epochs int
	// Churn is the per-epoch regional demand drift fraction.
	Churn float64
	// FlashMult, when > 1, spikes the busiest region's demand by this
	// factor for the middle quarter of the run.
	FlashMult float64
	// MinRelativeGain gates migration.
	MinRelativeGain float64
	// Ledger, when non-nil, durably records each epoch's decision.
	Ledger *ledger.Ledger
}

// DefaultScaleConfig returns a 100k-client scenario that runs in a few
// seconds; replicasim -clients/-rate scale it up to millions.
func DefaultScaleConfig() ScaleConfig {
	setup := DefaultSetup()
	setup.Nodes = 120
	return ScaleConfig{
		Setup:           setup,
		NumDCs:          15,
		K:               3,
		M:               8,
		IngestShards:    8,
		Clients:         100_000,
		Rate:            50_000,
		BatchSize:       4096,
		Epochs:          8,
		Churn:           0.02,
		FlashMult:       6,
		MinRelativeGain: 0.05,
	}
}

func (c ScaleConfig) validate() error {
	if err := validateShape("scale", c.Setup, c.NumDCs, c.K, c.M); err != nil {
		return err
	}
	if c.Clients <= 0 || c.Rate <= 0 || c.BatchSize <= 0 || c.Epochs <= 0 {
		return fmt.Errorf("experiment: scale needs positive clients/rate/batch/epochs")
	}
	return nil
}

// ScaleRow is one epoch's outcome.
type ScaleRow struct {
	Epoch int
	// MeanMs is the demand-weighted mean RTT from client nodes to their
	// serving replica this epoch.
	MeanMs float64
	// Accesses is the number of accesses generated this epoch.
	Accesses int
	// Frames is the number of aggregated simnet frames that carried them.
	Frames int
	// Migrated reports whether the manager moved replicas at epoch end.
	Migrated bool
	// Replicas is the placement after the epoch.
	Replicas []int
}

// ScaleResult aggregates the scale experiment.
type ScaleResult struct {
	Rows       []ScaleRow
	Migrations int
	MeanMs     float64
	// TotalAccesses is the number of generated accesses across epochs.
	TotalAccesses int64
	// TotalFrames is the number of simnet frames that carried them; the
	// ratio is the event-queue compression batching buys.
	TotalFrames int64
	// StreamHash fingerprints the generated workload (SHA-256 of the
	// encoded batch stream) for determinism checks.
	StreamHash string
}

// scaleFrame is the payload of one aggregated access frame: every
// access a client node sent to its serving replica during one epoch.
type scaleFrame struct {
	rep     int
	clients []int
	weights []float64
}

// Scale runs the experiment for one seed.
func Scale(seed int64, cfg ScaleConfig) (*ScaleResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := BuildWorld(seed, cfg.Setup)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed * 37))

	// Candidate DCs and client PoPs, as in drift, but with dense region
	// ids: a region whose every node became a candidate DC would
	// otherwise be an (invalid) empty region in the stream spec.
	cand, clientNodes := w.split(rng, cfg.NumDCs)
	clientRegions, numRegions := w.regions(clientNodes, true)

	clients, err := workload.SynthClients(rng, cfg.Clients, clientNodes, clientRegions)
	if err != nil {
		return nil, err
	}
	spec := workload.StreamSpec{
		Clients:         cfg.Clients,
		Regions:         numRegions,
		Objects:         1, // the paper replicates one (virtual) object
		ZipfExponent:    0,
		MeanObjectBytes: 1,
		BatchSize:       cfg.BatchSize,
		Rate:            cfg.Rate,
		Churn:           cfg.Churn,
		DiurnalPeriod:   float64(cfg.Epochs),
		DiurnalFloor:    0.1,
	}
	if cfg.FlashMult > 1 && cfg.Epochs >= 4 {
		// Spike the region with the most base demand for the middle
		// quarter of the run.
		busiest := 0
		mass := make([]float64, numRegions)
		for _, c := range clients {
			mass[c.Region] += c.Rate
		}
		for r := range mass {
			if mass[r] > mass[busiest] {
				busiest = r
			}
		}
		spec.Flash = []workload.FlashCrowd{{
			Region:   busiest,
			Start:    cfg.Epochs / 2,
			Duration: cfg.Epochs / 4,
			Mult:     cfg.FlashMult,
		}}
	}
	stream, err := workload.NewStream(spec, clients)
	if err != nil {
		return nil, err
	}
	stream.Seed(seed*41 + 1)

	initial, err := randomPlacement(rng, cand, cfg.K)
	if err != nil {
		return nil, err
	}
	mgr, err := replica.NewManager(replica.Config{
		K: cfg.K, M: cfg.M, Dims: cfg.Setup.CoordDims,
		IngestShards: cfg.IngestShards,
		Migration:    replica.MigrationPolicy{MinRelativeGain: cfg.MinRelativeGain},
		Ledger:       cfg.Ledger,
		Provenance:   true,
	}, cand, w.Coords, initial)
	if err != nil {
		return nil, err
	}

	// Batched delivery: replicas ingest whole frames, one simnet event
	// per active (client node, replica) pair per epoch.
	var ingestErr error
	sim, err := w.network(func(s *simnet.Simulator, m simnet.Message) {
		f := m.Payload.(*scaleFrame)
		if err := mgr.RecordBatchAt(f.rep, f.clients, f.weights); err != nil && ingestErr == nil {
			ingestErr = err
		}
	}, nil)
	if err != nil {
		return nil, err
	}

	// Per-node aggregation arenas, reused every epoch so the epoch loop
	// does not re-allocate access buffers (each node's accesses all ride
	// one frame to its serving replica).
	frames := make([]scaleFrame, w.Matrix.N())
	batch := make([]workload.Access, cfg.BatchSize)
	routeTo := make([]int, w.Matrix.N())

	res := &ScaleResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Routing is fixed within an epoch: replicas only move at epoch
		// boundaries, so each node's serving replica is resolved once.
		for _, n := range clientNodes {
			routeTo[n] = mgr.Route(w.Coords[n])
		}
		for i := range frames {
			frames[i].clients = frames[i].clients[:0]
			frames[i].weights = frames[i].weights[:0]
		}

		var delay stats.Accumulator
		for b := 0; b < stream.EpochBatches(); b++ {
			for _, a := range stream.Next(batch) {
				rep := routeTo[a.Client]
				f := &frames[a.Client]
				f.rep = rep
				f.clients = append(f.clients, a.Client)
				f.weights = append(f.weights, a.Bytes)
				delay.Add(w.Matrix.RTT(a.Client, rep))
			}
		}
		framesSent := 0
		for n := range frames {
			f := &frames[n]
			if len(f.clients) == 0 {
				continue
			}
			if err := sim.SendBatch(simnet.NodeID(n), simnet.NodeID(f.rep), len(f.clients), f); err != nil {
				return nil, err
			}
			framesSent++
		}
		if _, err := sim.Run(0); err != nil {
			return nil, err
		}
		if ingestErr != nil {
			return nil, ingestErr
		}

		mgr.RecordObserved(delay.Mean(), int64(delay.N()))
		dec, err := mgr.EndEpoch(rand.New(rand.NewSource(seed*100 + int64(epoch))))
		if err != nil {
			return nil, err
		}
		if err := stream.Advance(); err != nil {
			return nil, err
		}

		row := ScaleRow{
			Epoch:    epoch,
			MeanMs:   delay.Mean(),
			Accesses: delay.N(),
			Frames:   framesSent,
			Migrated: dec.Migrate && dec.MovedReplicas > 0,
			Replicas: append([]int(nil), dec.NewReplicas...),
		}
		res.Rows = append(res.Rows, row)
		res.MeanMs += row.MeanMs
		res.TotalAccesses += int64(row.Accesses)
		res.TotalFrames += int64(row.Frames)
	}
	res.MeanMs /= float64(cfg.Epochs)
	res.Migrations = mgr.Migrations()

	// Fingerprint the workload with an identically seeded shadow stream:
	// the digest must not depend on manager state, only on the spec.
	shadow, err := workload.NewStream(spec, clients)
	if err != nil {
		return nil, err
	}
	shadow.Seed(seed*41 + 1)
	if res.StreamHash, err = workload.StreamDigest(shadow, cfg.Epochs); err != nil {
		return nil, err
	}
	return res, nil
}

// RenderScale formats a scale result as aligned text.
func RenderScale(res *ScaleResult) string {
	var b strings.Builder
	b.WriteString("Scale: planet-scale streaming ingest through batched frames\n")
	fmt.Fprintf(&b, "%-8s%12s%12s%10s%10s  %s\n", "epoch", "mean ms", "accesses", "frames", "migrated", "replicas")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-8d%12.1f%12d%10d%10v  %v\n", r.Epoch, r.MeanMs, r.Accesses, r.Frames, r.Migrated, r.Replicas)
	}
	fmt.Fprintf(&b, "mean %.1f ms over %d accesses in %d frames (%.0fx event compression), %d migrations\n",
		res.MeanMs, res.TotalAccesses, res.TotalFrames,
		float64(res.TotalAccesses)/float64(res.TotalFrames), res.Migrations)
	fmt.Fprintf(&b, "stream sha256: %s\n", res.StreamHash)
	return b.String()
}
