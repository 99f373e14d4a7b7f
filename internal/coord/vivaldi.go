package coord

import (
	"math/rand"

	"github.com/georep/georep/internal/vec"
)

// Vivaldi tuning constants from Dabek et al. (SIGCOMM 2004), §3.
const (
	// vivaldiCE dampens how quickly the local error estimate moves.
	vivaldiCE = 0.25
	// vivaldiCC scales the adaptive timestep.
	vivaldiCC = 0.25
	// minHeight keeps the height component positive as required by the
	// height-vector model.
	minHeight = 0.1
)

// Vivaldi is one node of the decentralized Vivaldi coordinate system with
// the adaptive timestep and height-vector extensions. It is not safe for
// concurrent use; each simulated node owns one instance.
type Vivaldi struct {
	coord    Coordinate
	localErr float64
	rng      *rand.Rand
}

var _ Node = (*Vivaldi)(nil)

// NewVivaldi returns a node at the origin with maximal error estimate.
func NewVivaldi(dims int, r *rand.Rand) *Vivaldi {
	return &Vivaldi{
		coord:    Coordinate{Pos: vec.New(dims), Height: minHeight},
		localErr: 1.0,
		rng:      r,
	}
}

// Update applies one spring-relaxation step toward consistency with the
// observed RTT, following the VIVALDI(rtt, xj, ej) procedure of the paper.
func (v *Vivaldi) Update(remote Coordinate, remoteErr, rttMs float64) {
	if rttMs <= 0 || !remote.IsValid() {
		return // measurement is unusable; keep the current state
	}
	if remoteErr < 0 {
		remoteErr = 0
	}

	predicted := v.coord.DistanceTo(remote)

	// Sample weight balances local and remote confidence.
	w := 0.5
	if v.localErr+remoteErr > 0 {
		w = v.localErr / (v.localErr + remoteErr)
	}

	// Relative error of this sample.
	es := 0.0
	if rttMs > 0 {
		es = absFloat(predicted-rttMs) / rttMs
	}

	// Update the local error estimate with an EWMA weighted by w.
	alpha := vivaldiCE * w
	v.localErr = es*alpha + v.localErr*(1-alpha)
	if v.localErr > 2 {
		v.localErr = 2
	}

	// Adaptive timestep and force application.
	delta := vivaldiCC * w
	force := delta * (rttMs - predicted)

	dir := v.coord.Pos.Sub(remote.Pos)
	if dir.Norm() < 1e-9 {
		// Co-located nodes: pick a random direction to separate.
		dir = randomUnit(v.rng, v.coord.Pos.Dim())
	} else {
		dir = dir.Unit()
	}
	v.coord.Pos.AddScaled(force, dir)

	// Height absorbs the share of the force proportional to how much of
	// the predicted distance the heights account for.
	if predicted > 0 {
		hShare := (v.coord.Height + remote.Height) / predicted
		v.coord.Height += force * hShare * 0.5
		if v.coord.Height < minHeight {
			v.coord.Height = minHeight
		}
	}
}

// Coordinate returns a copy of the node's current coordinate.
func (v *Vivaldi) Coordinate() Coordinate { return v.coord.Clone() }

// ErrorEstimate returns the node's current relative error estimate.
func (v *Vivaldi) ErrorEstimate() float64 { return v.localErr }

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
