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

// The drift experiment goes beyond the paper's static evaluation and
// measures the behaviour the paper motivates but does not quantify:
// gradual replica migration under a shifting user population. Client
// demand follows the sun (per-region diurnal activity); an adaptive
// manager migrates every epoch while a static placement stays where the
// first epoch put it. Accesses are driven through the discrete-event
// simulator, so reported adaptive delays are measured RTTs of simulated
// requests, not analytic shortcuts.

// DriftConfig parameterizes the drift experiment.
type DriftConfig struct {
	// Setup builds the world (matrix + coordinates).
	Setup SetupConfig
	// NumDCs candidate data centers are drawn from the world's nodes.
	NumDCs int
	// K replicas are maintained with M micro-clusters each.
	K, M int
	// Epochs is the number of demand shifts; each epoch one region peaks.
	Epochs int
	// AccessesPerEpoch is the number of simulated client reads per epoch.
	AccessesPerEpoch int
	// MinRelativeGain gates migration (0 migrates on any improvement).
	MinRelativeGain float64
	// DecayFactor ages summaries between epochs (0 → manager default).
	DecayFactor float64
	// Ledger, when non-nil, durably records each epoch's decision with
	// the measured mean delay, making the run auditable offline (see
	// replicasim -ledger-out).
	Ledger *ledger.Ledger
}

// DefaultDriftConfig returns a moderate-size drift scenario.
func DefaultDriftConfig() DriftConfig {
	setup := DefaultSetup()
	setup.Nodes = 120
	return DriftConfig{
		Setup:            setup,
		NumDCs:           15,
		K:                2,
		M:                8,
		Epochs:           12,
		AccessesPerEpoch: 2000,
		MinRelativeGain:  0.05,
		DecayFactor:      0.3,
	}
}

func (c DriftConfig) validate() error {
	if err := validateShape("drift", c.Setup, c.NumDCs, c.K, c.M); err != nil {
		return err
	}
	if c.Epochs <= 0 || c.AccessesPerEpoch <= 0 {
		return fmt.Errorf("experiment: drift needs positive epochs and accesses")
	}
	return nil
}

// DriftRow is one epoch's outcome.
type DriftRow struct {
	Epoch int
	// AdaptiveMs is the mean measured RTT of this epoch's simulated
	// accesses under the adaptive manager.
	AdaptiveMs float64
	// StaticMs is the mean RTT the same accesses would have seen from
	// the never-moving initial placement.
	StaticMs float64
	// Migrated reports whether the manager moved replicas at epoch end.
	Migrated bool
	// Replicas is the adaptive placement after the epoch.
	Replicas []int
}

// DriftResult aggregates the drift experiment.
type DriftResult struct {
	Rows           []DriftRow
	Migrations     int
	MeanAdaptiveMs float64
	MeanStaticMs   float64
	// SummaryBytesPerEpoch is the mean wire cost of the manager's
	// collections.
	SummaryBytesPerEpoch float64
}

// Drift runs the experiment for one seed.
func Drift(seed int64, cfg DriftConfig) (*DriftResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := BuildWorld(seed, cfg.Setup)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed * 31))

	cand, clientNodes := w.split(rng, cfg.NumDCs)
	clientRegions, numRegions := w.regions(clientNodes, false)

	clientSpecs, err := workload.UniformClients(clientNodes, clientRegions)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(rng, workload.Spec{
		Clients:         clientSpecs,
		Objects:         1, // the paper replicates one (virtual) object
		ZipfExponent:    0,
		MeanObjectBytes: 1,
	})
	if err != nil {
		return nil, err
	}
	phases := make(map[int]float64, numRegions)
	for r := 0; r < numRegions; r++ {
		phases[r] = float64(r) / float64(numRegions)
	}
	diurnal := workload.Diurnal{Period: float64(cfg.Epochs), PhaseByRegion: phases}

	// Adaptive manager starting from a random placement; the static
	// baseline keeps that exact placement forever.
	initial, err := randomPlacement(rng, cand, cfg.K)
	if err != nil {
		return nil, err
	}
	mgr, err := replica.NewManager(replica.Config{
		K: cfg.K, M: cfg.M, Dims: cfg.Setup.CoordDims,
		Migration:   replica.MigrationPolicy{MinRelativeGain: cfg.MinRelativeGain},
		DecayFactor: cfg.DecayFactor,
		Ledger:      cfg.Ledger,
		Provenance:  true,
	}, cand, w.Coords, initial)
	if err != nil {
		return nil, err
	}
	static := append([]int(nil), initial...)

	// Discrete-event simulation: DCs answer reads, clients issue them.
	sim, err := w.network(nil, echo)
	if err != nil {
		return nil, err
	}

	const epochMs = 60_000.0 // one simulated minute per epoch
	res := &DriftResult{}
	var totalBytes int
	// One access buffer reused across epochs: the loop's only per-epoch
	// allocations are the decision records themselves.
	accesses := make([]workload.Access, 0, cfg.AccessesPerEpoch)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		activity, err := diurnal.At(float64(epoch))
		if err != nil {
			return nil, err
		}
		accesses, err = gen.EpochInto(rng, cfg.AccessesPerEpoch, activity, accesses)
		if err != nil {
			return nil, err
		}

		var adaptive, staticAcc stats.Accumulator
		for _, a := range accesses {
			a := a
			// Client-side routing via coordinates, then a simulated RPC
			// whose measured RTT is the adaptive delay.
			rep, err := mgr.Record(w.Coords[a.Client], a.Bytes)
			if err != nil {
				return nil, err
			}
			offset := rng.Float64() * epochMs
			if err := sim.After(offset, func() {
				err := sim.Call(simnet.NodeID(a.Client), simnet.NodeID(rep), nil,
					func(_ any, rtt float64) { adaptive.Add(rtt) })
				if err != nil {
					adaptive.Add(0) // unreachable in this topology
				}
			}); err != nil {
				return nil, err
			}
			// Static baseline: closest static replica by true RTT.
			best := w.Matrix.RTT(a.Client, static[0])
			for _, rep := range static[1:] {
				if d := w.Matrix.RTT(a.Client, rep); d < best {
					best = d
				}
			}
			staticAcc.Add(best)
		}
		if _, err := sim.Run(0); err != nil {
			return nil, err
		}

		mgr.RecordObserved(adaptive.Mean(), int64(adaptive.N()))
		dec, err := mgr.EndEpoch(rand.New(rand.NewSource(seed*100 + int64(epoch))))
		if err != nil {
			return nil, err
		}
		totalBytes += dec.CollectedBytes
		row := DriftRow{
			Epoch:      epoch,
			AdaptiveMs: adaptive.Mean(),
			StaticMs:   staticAcc.Mean(),
			Migrated:   dec.Migrate && dec.MovedReplicas > 0,
			Replicas:   append([]int(nil), dec.NewReplicas...),
		}
		res.Rows = append(res.Rows, row)
		res.MeanAdaptiveMs += row.AdaptiveMs
		res.MeanStaticMs += row.StaticMs
	}
	res.MeanAdaptiveMs /= float64(cfg.Epochs)
	res.MeanStaticMs /= float64(cfg.Epochs)
	res.Migrations = mgr.Migrations()
	res.SummaryBytesPerEpoch = float64(totalBytes) / float64(cfg.Epochs)
	return res, nil
}

func randomPlacement(r *rand.Rand, candidates []int, k int) ([]int, error) {
	if k > len(candidates) {
		return nil, fmt.Errorf("experiment: k=%d exceeds %d candidates", k, len(candidates))
	}
	perm := r.Perm(len(candidates))
	out := make([]int, k)
	for i := range out {
		out[i] = candidates[perm[i]]
	}
	return out, nil
}

// RenderDrift formats a drift result as aligned text.
func RenderDrift(res *DriftResult) string {
	var b strings.Builder
	b.WriteString("Drift: gradual migration under follow-the-sun demand\n")
	fmt.Fprintf(&b, "%-8s%14s%14s%12s  %s\n", "epoch", "adaptive ms", "static ms", "migrated", "replicas")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-8d%14.1f%14.1f%12v  %v\n", r.Epoch, r.AdaptiveMs, r.StaticMs, r.Migrated, r.Replicas)
	}
	fmt.Fprintf(&b, "mean: adaptive %.1f ms vs static %.1f ms (%.0f%% lower), %d migrations, %.0fB summaries/epoch\n",
		res.MeanAdaptiveMs, res.MeanStaticMs,
		100*(1-res.MeanAdaptiveMs/res.MeanStaticMs), res.Migrations, res.SummaryBytesPerEpoch)
	return b.String()
}
