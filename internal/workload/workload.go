// Package workload generates client access patterns: which client reads
// which object, how often, and how the active population shifts over
// time. The paper's evaluation uses a static population (every non-
// candidate node issues reads); the drift model here additionally drives
// the gradual-migration scenarios the paper motivates ("migrates data
// replicas to reduce the overall data access delay" as populations move).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/georep/georep/internal/stats"
)

// Access is one request.
type Access struct {
	// Client is the node index issuing the request.
	Client int
	// Object is the data object being accessed.
	Object int
	// Bytes is the transfer size, used as micro-cluster weight.
	Bytes float64
	// Write marks the access as a write (routed to the leader by the
	// write path); streams only emit writes when the spec sets a write
	// fraction, so read-only workloads are unchanged.
	Write bool
}

// ClientSpec describes one client of the workload.
type ClientSpec struct {
	// Node is the client's node index in the latency matrix.
	Node int
	// Region groups clients for activity modulation (e.g. continent).
	Region int
	// Rate is the client's relative access rate; 1 is average.
	Rate float64
}

// Spec describes a full workload.
type Spec struct {
	// Clients lists the participating clients.
	Clients []ClientSpec
	// Objects is the number of distinct data objects.
	Objects int
	// ZipfExponent skews object popularity; 0 is uniform, ~1 web-like.
	ZipfExponent float64
	// MeanObjectBytes scales transfer sizes; objects get a deterministic
	// size drawn around this mean.
	MeanObjectBytes float64
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if len(s.Clients) == 0 {
		return fmt.Errorf("workload: no clients")
	}
	for i, c := range s.Clients {
		if c.Rate < 0 {
			return fmt.Errorf("workload: client %d has negative rate", i)
		}
	}
	if s.Objects <= 0 {
		return fmt.Errorf("workload: need at least 1 object, got %d", s.Objects)
	}
	if s.ZipfExponent < 0 {
		return fmt.Errorf("workload: negative zipf exponent %v", s.ZipfExponent)
	}
	if s.MeanObjectBytes < 0 {
		return fmt.Errorf("workload: negative object size %v", s.MeanObjectBytes)
	}
	return nil
}

// Generator draws access streams from a Spec with optional per-region
// activity modulation.
type Generator struct {
	spec     Spec
	zipf     *stats.Zipf
	objBytes []float64
	// weights/cdf are per-epoch scratch reused by EpochInto so the
	// epoch loop does not re-allocate them every epoch.
	weights []float64
	cdf     []float64
}

// NewGenerator validates the spec and precomputes object popularity and
// sizes deterministically from the given rand source.
func NewGenerator(r *rand.Rand, spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	z, err := stats.NewZipf(spec.Objects, spec.ZipfExponent)
	if err != nil {
		return nil, err
	}
	g := &Generator{spec: spec, zipf: z, objBytes: make([]float64, spec.Objects)}
	mean := spec.MeanObjectBytes
	if mean == 0 {
		mean = 1
	}
	for i := range g.objBytes {
		// Log-normal-ish sizes clamped to stay positive.
		g.objBytes[i] = mean * math.Exp(r.NormFloat64()*0.5)
	}
	return g, nil
}

// Activity maps a region to a non-negative rate multiplier; nil means
// uniform activity.
type Activity func(region int) float64

// EpochInto draws n accesses into a caller-provided buffer: clients are
// sampled proportionally to rate × regional activity, objects by Zipf
// popularity. out is resized to n (reusing its capacity when possible,
// nil is fine) and returned. The
// client-weight scratch lives on the generator, so a steady-state epoch
// loop passing its previous buffer back in allocates nothing.
func (g *Generator) EpochInto(r *rand.Rand, n int, activity Activity, out []Access) ([]Access, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative access count %d", n)
	}
	if g.weights == nil {
		g.weights = make([]float64, len(g.spec.Clients))
		g.cdf = make([]float64, len(g.spec.Clients))
	}
	weights := g.weights
	var total float64
	for i, c := range g.spec.Clients {
		w := c.Rate
		if activity != nil {
			m := activity(c.Region)
			if m < 0 {
				return nil, fmt.Errorf("workload: negative activity for region %d", c.Region)
			}
			w *= m
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: all client weights are zero this epoch")
	}

	// CDF for O(log n) client draws.
	cdf := g.cdf
	acc := 0.0
	for i, w := range weights {
		acc += w
		cdf[i] = acc / total
	}

	if cap(out) < n {
		out = make([]Access, n)
	}
	out = out[:n]
	for i := range out {
		u := r.Float64()
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		obj := g.zipf.Draw(r)
		out[i] = Access{
			Client: g.spec.Clients[lo].Node,
			Object: obj,
			Bytes:  g.objBytes[obj],
		}
	}
	return out, nil
}

// Diurnal models follow-the-sun activity: each region's rate multiplier
// is a raised cosine with a region-specific phase, so load peaks rotate
// around the planet once per period.
type Diurnal struct {
	// Period is the cycle length in the caller's time unit.
	Period float64
	// PhaseByRegion maps a region to its peak time as a fraction of the
	// period in [0, 1). Missing regions peak at phase 0.
	PhaseByRegion map[int]float64
	// Floor is the minimum multiplier (default 0.1) so no region ever
	// goes fully silent.
	Floor float64
}

// At returns the Activity function for time t.
func (d Diurnal) At(t float64) (Activity, error) {
	if d.Period <= 0 {
		return nil, fmt.Errorf("workload: diurnal period must be positive, got %v", d.Period)
	}
	floor := d.Floor
	if floor <= 0 {
		floor = 0.1
	}
	frac := math.Mod(t/d.Period, 1)
	return func(region int) float64 {
		phase := d.PhaseByRegion[region]
		// Raised cosine peaking when frac == phase.
		m := 0.5 * (1 + math.Cos(2*math.Pi*(frac-phase)))
		if m < floor {
			m = floor
		}
		return m
	}, nil
}

// UniformClients builds a ClientSpec list from node indices with unit
// rates and the given per-node regions (regions may be nil for all-zero).
func UniformClients(nodes []int, regions []int) ([]ClientSpec, error) {
	if regions != nil && len(regions) != len(nodes) {
		return nil, fmt.Errorf("workload: %d nodes but %d regions", len(nodes), len(regions))
	}
	out := make([]ClientSpec, len(nodes))
	for i, n := range nodes {
		region := 0
		if regions != nil {
			region = regions[i]
		}
		out[i] = ClientSpec{Node: n, Region: region, Rate: 1}
	}
	return out, nil
}
