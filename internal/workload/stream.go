package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/georep/georep/internal/stats"
	"github.com/georep/georep/internal/wire"
)

// FlashCrowd multiplies one region's activity for a window of epochs —
// the sudden regional demand spike the paper's migration policy exists
// to chase.
type FlashCrowd struct {
	// Region is the affected region index.
	Region int
	// Start is the first epoch of the spike.
	Start int
	// Duration is the number of epochs the spike lasts.
	Duration int
	// Mult is the activity multiplier while the spike is active.
	Mult float64
}

// StreamSpec configures a streaming workload: a large synthetic client
// population whose aggregate demand shifts each epoch through diurnal
// waves, flash crowds, and slow regional churn.
type StreamSpec struct {
	// Clients is the synthetic client population size.
	Clients int
	// Regions is the number of regions demand is tracked over.
	Regions int
	// Objects is the number of distinct data objects.
	Objects int
	// ZipfExponent skews object popularity; 0 is uniform.
	ZipfExponent float64
	// MeanObjectBytes scales transfer sizes.
	MeanObjectBytes float64
	// BatchSize is the fixed access-batch size the stream emits.
	BatchSize int
	// Rate is the number of accesses generated per epoch.
	Rate int
	// Churn is the fraction of each region's demand mass that drifts to
	// the next region every epoch (a slow follow-the-population ring).
	Churn float64
	// DiurnalPeriod is the diurnal cycle length in epochs; 0 disables
	// the diurnal wave.
	DiurnalPeriod float64
	// DiurnalFloor is the minimum diurnal multiplier (default 0.1).
	DiurnalFloor float64
	// Flash lists flash-crowd spikes.
	Flash []FlashCrowd
	// WriteFraction is the probability in [0,1] that an access is a
	// write. Zero keeps the stream read-only and consumes exactly the
	// pre-write-path randomness, so existing golden digests hold.
	WriteFraction float64
}

// Validate checks the spec, rejecting non-finite rates, negative churn,
// and empty region/client/object populations.
func (s *StreamSpec) Validate() error {
	if s.Clients <= 0 {
		return fmt.Errorf("workload: stream needs clients > 0, got %d", s.Clients)
	}
	if s.Regions <= 0 {
		return fmt.Errorf("workload: stream needs regions > 0, got %d", s.Regions)
	}
	if s.Objects <= 0 {
		return fmt.Errorf("workload: stream needs objects > 0, got %d", s.Objects)
	}
	if math.IsNaN(s.ZipfExponent) || math.IsInf(s.ZipfExponent, 0) || s.ZipfExponent < 0 {
		return fmt.Errorf("workload: zipf exponent %v must be finite and >= 0", s.ZipfExponent)
	}
	if math.IsNaN(s.MeanObjectBytes) || math.IsInf(s.MeanObjectBytes, 0) || s.MeanObjectBytes < 0 {
		return fmt.Errorf("workload: object bytes %v must be finite and >= 0", s.MeanObjectBytes)
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("workload: batch size must be positive, got %d", s.BatchSize)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("workload: rate must be positive, got %d", s.Rate)
	}
	if math.IsNaN(s.Churn) || math.IsInf(s.Churn, 0) || s.Churn < 0 || s.Churn > 1 {
		return fmt.Errorf("workload: churn %v must be in [0,1]", s.Churn)
	}
	if math.IsNaN(s.DiurnalPeriod) || math.IsInf(s.DiurnalPeriod, 0) || s.DiurnalPeriod < 0 {
		return fmt.Errorf("workload: diurnal period %v must be finite and >= 0", s.DiurnalPeriod)
	}
	if math.IsNaN(s.DiurnalFloor) || math.IsInf(s.DiurnalFloor, 0) || s.DiurnalFloor < 0 || s.DiurnalFloor > 1 {
		return fmt.Errorf("workload: diurnal floor %v must be in [0,1]", s.DiurnalFloor)
	}
	if math.IsNaN(s.WriteFraction) || math.IsInf(s.WriteFraction, 0) || s.WriteFraction < 0 || s.WriteFraction > 1 {
		return fmt.Errorf("workload: write fraction %v must be in [0,1]", s.WriteFraction)
	}
	for i, f := range s.Flash {
		if f.Region < 0 || f.Region >= s.Regions {
			return fmt.Errorf("workload: flash %d targets region %d of %d", i, f.Region, s.Regions)
		}
		if f.Start < 0 || f.Duration <= 0 {
			return fmt.Errorf("workload: flash %d has start %d dur %d", i, f.Start, f.Duration)
		}
		if math.IsNaN(f.Mult) || math.IsInf(f.Mult, 0) || f.Mult < 0 {
			return fmt.Errorf("workload: flash %d multiplier %v must be finite and >= 0", i, f.Mult)
		}
	}
	return nil
}

// SynthClients deterministically expands a population of n clients over
// the given home nodes: client c lives at nodes[c mod len(nodes)], in
// that node's region, with a log-normal individual rate. This is how a
// few hundred PoP nodes stand in for millions of end users.
func SynthClients(r *rand.Rand, n int, nodes []int, nodeRegions []int) ([]ClientSpec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need n > 0 clients, got %d", n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("workload: no home nodes")
	}
	if len(nodeRegions) != len(nodes) {
		return nil, fmt.Errorf("workload: %d nodes but %d regions", len(nodes), len(nodeRegions))
	}
	out := make([]ClientSpec, n)
	for c := range out {
		i := c % len(nodes)
		out[c] = ClientSpec{
			Node:   nodes[i],
			Region: nodeRegions[i],
			Rate:   math.Exp(r.NormFloat64() * 0.5),
		}
	}
	return out, nil
}

// Stream generates fixed-size access batches from a large client
// population with O(1) per access and no allocations in steady state.
// Clients are grouped by region; a per-region alias sampler (static —
// individual rates do not change) picks the client, and a region-level
// alias reweighted each epoch applies diurnal waves, flash crowds, and
// churn drift. Demand mass moves between regions, clients do not.
//
// A Stream is not safe for concurrent use; it is a deterministic
// function of (spec, clients, seed).
type Stream struct {
	spec    StreamSpec
	rng     *rand.Rand
	epoch   int
	emitted int // accesses emitted this epoch, for epoch accounting

	// Per-region client lookup: clientIdx[r] lists indices into clients,
	// clientAlias[r] draws among them by individual rate.
	clients     []ClientSpec
	clientIdx   [][]int32
	clientAlias []*stats.Alias

	baseMass []float64 // per-region sum of client rates (conserved by churn)
	curMass  []float64 // after cumulative churn drift
	effMass  []float64 // curMass × diurnal × flash for the current epoch

	regionAlias *stats.Alias
	objAlias    *stats.Alias
	objBytes    []float64
}

// NewStream validates the spec, expands the client population's region
// structure, and positions the stream at epoch 0. Every region in
// [0, spec.Regions) must have at least one client.
func NewStream(spec StreamSpec, clients []ClientSpec) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(clients) != spec.Clients {
		return nil, fmt.Errorf("workload: spec says %d clients, got %d", spec.Clients, len(clients))
	}
	s := &Stream{
		spec:     spec,
		rng:      rand.New(rand.NewSource(1)),
		clients:  clients,
		baseMass: make([]float64, spec.Regions),
		curMass:  make([]float64, spec.Regions),
		effMass:  make([]float64, spec.Regions),
	}
	counts := make([]int, spec.Regions)
	for i, c := range clients {
		if c.Region < 0 || c.Region >= spec.Regions {
			return nil, fmt.Errorf("workload: client %d in region %d of %d", i, c.Region, spec.Regions)
		}
		if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate < 0 {
			return nil, fmt.Errorf("workload: client %d rate %v must be finite and >= 0", i, c.Rate)
		}
		counts[c.Region]++
		s.baseMass[c.Region] += c.Rate
	}
	for r, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("workload: region %d has no clients", r)
		}
		if s.baseMass[r] <= 0 {
			return nil, fmt.Errorf("workload: region %d has zero total rate", r)
		}
	}

	s.clientIdx = make([][]int32, spec.Regions)
	for r := range s.clientIdx {
		s.clientIdx[r] = make([]int32, 0, counts[r])
	}
	for i, c := range clients {
		s.clientIdx[c.Region] = append(s.clientIdx[c.Region], int32(i))
	}
	s.clientAlias = make([]*stats.Alias, spec.Regions)
	for r := range s.clientAlias {
		ws := make([]float64, len(s.clientIdx[r]))
		for j, ci := range s.clientIdx[r] {
			ws[j] = clients[ci].Rate
		}
		a, err := stats.NewAlias(ws)
		if err != nil {
			return nil, fmt.Errorf("workload: region %d: %v", r, err)
		}
		s.clientAlias[r] = a
	}

	copy(s.curMass, s.baseMass)
	var err error
	if s.regionAlias, err = stats.NewAlias(s.baseMass); err != nil {
		return nil, err
	}

	// Zipf object weights through the alias sampler for O(1) draws.
	objW := make([]float64, spec.Objects)
	for i := range objW {
		if spec.ZipfExponent == 0 {
			objW[i] = 1
		} else {
			objW[i] = 1 / math.Pow(float64(i+1), spec.ZipfExponent)
		}
	}
	if s.objAlias, err = stats.NewAlias(objW); err != nil {
		return nil, err
	}
	mean := spec.MeanObjectBytes
	if mean == 0 {
		mean = 1
	}
	s.objBytes = make([]float64, spec.Objects)
	szr := rand.New(rand.NewSource(2))
	for i := range s.objBytes {
		s.objBytes[i] = mean * math.Exp(szr.NormFloat64()*0.5)
	}

	if err := s.reweight(); err != nil {
		return nil, err
	}
	return s, nil
}

// Seed re-seeds the stream's draw source, fixing the full access
// sequence. Call immediately after NewStream for reproducible runs.
func (s *Stream) Seed(seed int64) { s.rng = rand.New(rand.NewSource(seed)) }

// diurnalMult is the raised-cosine follow-the-sun multiplier for region
// r at the current epoch; regions peak in ring order around the period.
func (s *Stream) diurnalMult(r int) float64 {
	if s.spec.DiurnalPeriod <= 0 {
		return 1
	}
	floor := s.spec.DiurnalFloor
	if floor <= 0 {
		floor = 0.1
	}
	frac := math.Mod(float64(s.epoch)/s.spec.DiurnalPeriod, 1)
	phase := float64(r) / float64(s.spec.Regions)
	m := 0.5 * (1 + math.Cos(2*math.Pi*(frac-phase)))
	if m < floor {
		m = floor
	}
	return m
}

// flashMult is the product of active flash-crowd multipliers for region
// r at the current epoch.
func (s *Stream) flashMult(r int) float64 {
	m := 1.0
	for _, f := range s.spec.Flash {
		if f.Region == r && s.epoch >= f.Start && s.epoch < f.Start+f.Duration {
			m *= f.Mult
		}
	}
	return m
}

// reweight recomputes effective region masses for the current epoch and
// rebuilds the region alias in place. Allocation-free.
func (s *Stream) reweight() error {
	var total float64
	for r := range s.effMass {
		s.effMass[r] = s.curMass[r] * s.diurnalMult(r) * s.flashMult(r)
		total += s.effMass[r]
	}
	if total <= 0 {
		// A floor of 0 with every region in a zero flash window could
		// zero everything; fall back to the drifted mass so the stream
		// never stalls.
		copy(s.effMass, s.curMass)
	}
	return s.regionAlias.Reweight(s.effMass)
}

// Next fills dst with the next len(dst) accesses of the current epoch
// and returns dst. It allocates nothing; callers reuse one batch buffer
// for the whole run.
func (s *Stream) Next(dst []Access) []Access {
	for i := range dst {
		r := s.regionAlias.Draw(s.rng)
		j := s.clientAlias[r].Draw(s.rng)
		obj := s.objAlias.Draw(s.rng)
		dst[i] = Access{
			Client: s.clients[s.clientIdx[r][j]].Node,
			Object: obj,
			Bytes:  s.objBytes[obj],
		}
		if wf := s.spec.WriteFraction; wf > 0 {
			// The write coin is an extra draw taken only for mixed
			// workloads: read-only specs consume the exact historical
			// randomness, keeping their golden digests stable.
			dst[i].Write = s.rng.Float64() < wf
		}
	}
	s.emitted += len(dst)
	return dst
}

// Advance moves the stream to the next epoch: churn drifts demand mass
// one step around the region ring, then diurnal and flash multipliers
// are reapplied. Allocation-free.
func (s *Stream) Advance() error {
	s.epoch++
	s.emitted = 0
	if ch := s.spec.Churn; ch > 0 && s.spec.Regions > 1 {
		// Ring drift: region r leaks ch of its mass to r+1. Computed
		// from the pre-drift values via the carry, so total mass is
		// conserved exactly up to rounding.
		carry := s.curMass[s.spec.Regions-1] * ch
		for r := 0; r < s.spec.Regions; r++ {
			leak := s.curMass[r] * ch
			s.curMass[r] += carry - leak
			carry = leak
		}
	}
	return s.reweight()
}

// EpochBatches returns how many Next calls of spec.BatchSize cover one
// epoch at spec.Rate (the final batch may logically be short; the
// driver rounds up so every access is generated).
func (s *Stream) EpochBatches() int {
	return (s.spec.Rate + s.spec.BatchSize - 1) / s.spec.BatchSize
}

// AppendEncoded appends a fixed-width binary encoding of the batch to
// dst and returns it: per access, little-endian int32 client, int32
// object, and the IEEE-754 bits of the byte weight. The encoding is the
// input to the stream golden hash, so it must never change silently.
// The write flag is deliberately excluded: read-only specs must hash
// identically whether or not the write path exists, and mixed specs are
// fingerprinted by the (client, object, bytes) draw sequence alone.
func AppendEncoded(dst []byte, batch []Access) []byte {
	for _, a := range batch {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(a.Client)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(a.Object)))
		dst = wire.AppendF64(dst, a.Bytes)
	}
	return dst
}

// StreamDigest runs the stream for the given number of epochs, hashing
// every emitted batch with SHA-256, and returns the hex digest. This is
// the determinism fingerprint committed in the golden tests: any change
// to the sampler, the churn model, or the encoding shows up here.
func StreamDigest(s *Stream, epochs int) (string, error) {
	h := sha256.New()
	batch := make([]Access, s.spec.BatchSize)
	enc := make([]byte, 0, 16*s.spec.BatchSize)
	for e := 0; e < epochs; e++ {
		for b := 0; b < s.EpochBatches(); b++ {
			s.Next(batch)
			enc = AppendEncoded(enc[:0], batch)
			h.Write(enc)
		}
		if err := s.Advance(); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
