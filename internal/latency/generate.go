package latency

import (
	"fmt"
	"math/rand"

	"github.com/georep/georep/internal/geo"
)

// GenerateConfig controls the synthetic RTT matrix generator.
type GenerateConfig struct {
	// Nodes is the number of hosts. The paper uses 226 PlanetLab nodes.
	Nodes int
	// Regions are the metro areas nodes scatter into. Nil selects
	// geo.DefaultRegions.
	Regions []geo.Region
	// StretchMin/StretchMax bound the per-pair path-stretch factor that
	// models routing inefficiency over the great-circle propagation time.
	// Internet paths typically show 1.2–2.5x stretch.
	StretchMin, StretchMax float64
	// AccessMinMs/AccessMaxMs bound the per-node last-mile delay added to
	// both ends of every path (applied twice per RTT: once per endpoint).
	AccessMinMs, AccessMaxMs float64
	// JitterFrac is the relative standard deviation of multiplicative
	// measurement noise, e.g. 0.05 for ±5%.
	JitterFrac float64
	// TIVProb is the probability that a pair is routed through a detour,
	// inflating its RTT by TIVFactor and producing triangle-inequality
	// violations like those observed on PlanetLab.
	TIVProb   float64
	TIVFactor float64
	// BadNodeFrac is the fraction of nodes with pathologically slow
	// access links (PlanetLab hosts behind congested campus uplinks are
	// common); their access delay is drawn from
	// [BadAccessMinMs, BadAccessMaxMs] instead of the normal range.
	// Placement algorithms must learn to avoid them — random placement
	// cannot, which is a large part of its penalty in the paper.
	BadNodeFrac  float64
	BadAccessMin float64
	BadAccessMax float64
}

// DefaultGenerateConfig mirrors the paper's 226-node PlanetLab setting.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{
		Nodes:        226,
		StretchMin:   1.3,
		StretchMax:   2.1,
		AccessMinMs:  1,
		AccessMaxMs:  12,
		JitterFrac:   0.04,
		TIVProb:      0.04,
		TIVFactor:    1.8,
		BadNodeFrac:  0.08,
		BadAccessMin: 40,
		BadAccessMax: 150,
	}
}

func (c GenerateConfig) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("latency: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.StretchMin < 1 || c.StretchMax < c.StretchMin {
		return fmt.Errorf("latency: invalid stretch range [%v,%v]", c.StretchMin, c.StretchMax)
	}
	if c.AccessMinMs < 0 || c.AccessMaxMs < c.AccessMinMs {
		return fmt.Errorf("latency: invalid access delay range [%v,%v]", c.AccessMinMs, c.AccessMaxMs)
	}
	if c.JitterFrac < 0 || c.JitterFrac > 0.5 {
		return fmt.Errorf("latency: jitter fraction %v out of [0,0.5]", c.JitterFrac)
	}
	if c.TIVProb < 0 || c.TIVProb > 1 {
		return fmt.Errorf("latency: TIV probability %v out of [0,1]", c.TIVProb)
	}
	if c.TIVProb > 0 && c.TIVFactor < 1 {
		return fmt.Errorf("latency: TIV factor %v must be >= 1", c.TIVFactor)
	}
	if c.BadNodeFrac < 0 || c.BadNodeFrac > 1 {
		return fmt.Errorf("latency: bad-node fraction %v out of [0,1]", c.BadNodeFrac)
	}
	if c.BadNodeFrac > 0 && (c.BadAccessMin < 0 || c.BadAccessMax < c.BadAccessMin) {
		return fmt.Errorf("latency: invalid bad access range [%v,%v]", c.BadAccessMin, c.BadAccessMax)
	}
	return nil
}

// fiberKmPerMs is the one-way distance light covers per millisecond in
// fiber (about 2/3 of c). An RTT therefore accrues 1 ms per ~100 km of
// one-way great-circle distance.
const fiberKmPerMs = 200.0

// Generate builds a synthetic PlanetLab-like RTT matrix and returns it
// together with the geographic placement of every node, so callers can
// correlate simulated positions with coordinate-system output.
func Generate(r *rand.Rand, cfg GenerateConfig) (*Matrix, []geo.Placement, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	regions := cfg.Regions
	if regions == nil {
		regions = geo.DefaultRegions()
	}
	placements, err := geo.PlaceNodes(r, regions, cfg.Nodes)
	if err != nil {
		return nil, nil, err
	}

	access := make([]float64, cfg.Nodes)
	for i := range access {
		if cfg.BadNodeFrac > 0 && r.Float64() < cfg.BadNodeFrac {
			access[i] = cfg.BadAccessMin + r.Float64()*(cfg.BadAccessMax-cfg.BadAccessMin)
		} else {
			access[i] = cfg.AccessMinMs + r.Float64()*(cfg.AccessMaxMs-cfg.AccessMinMs)
		}
	}

	m, err := NewMatrix(cfg.Nodes)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			distKm := placements[i].Point.DistanceKm(placements[j].Point)
			stretch := cfg.StretchMin + r.Float64()*(cfg.StretchMax-cfg.StretchMin)
			rtt := 2*distKm/fiberKmPerMs*stretch + access[i] + access[j]
			if cfg.TIVProb > 0 && r.Float64() < cfg.TIVProb {
				rtt *= cfg.TIVFactor
			}
			if cfg.JitterFrac > 0 {
				rtt *= 1 + r.NormFloat64()*cfg.JitterFrac
			}
			if rtt < 0.1 {
				rtt = 0.1
			}
			m.SetRTT(i, j, rtt)
		}
	}
	return m, placements, nil
}

// Sampler adds measurement noise on top of a base matrix, modelling the
// run-to-run RTT variation coordinate systems must tolerate. A zero
// NoiseFrac sampler returns base values unchanged.
type Sampler struct {
	m         *Matrix
	noiseFrac float64
	r         *rand.Rand
}

// NewSampler wraps m with multiplicative Gaussian noise of the given
// relative standard deviation.
func NewSampler(m *Matrix, noiseFrac float64, r *rand.Rand) *Sampler {
	return &Sampler{m: m, noiseFrac: noiseFrac, r: r}
}

// Sample returns one noisy RTT observation for the pair (i, j).
func (s *Sampler) Sample(i, j int) float64 {
	base := s.m.RTT(i, j)
	if s.noiseFrac == 0 || i == j {
		return base
	}
	v := base * (1 + s.r.NormFloat64()*s.noiseFrac)
	if v < 0.05 {
		v = 0.05
	}
	return v
}
