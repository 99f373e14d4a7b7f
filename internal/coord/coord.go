// Package coord implements the network coordinate systems the paper
// builds on. A network coordinate system assigns each node a point in a
// low-dimensional space such that the Euclidean distance between two
// nodes' points approximates their round-trip time.
//
// Two systems are provided:
//
//   - Vivaldi (Dabek et al., SIGCOMM 2004): the decentralized spring
//     relaxation the paper cites as the representative baseline, with the
//     adaptive timestep and the height-vector extension.
//   - RNP (Ping et al., GridPeer 2011): the authors' "Retrospective
//     Network Positioning". The original paper gives only the design
//     goals — no landmarks, decentralized, consume measurements according
//     to their reliability, re-fit retrospectively against retained
//     history. This implementation realizes those goals: each node keeps
//     a bounded per-neighbour sample history, weights online updates by a
//     variance-derived reliability score, and periodically re-fits its
//     coordinate against the retained samples.
package coord

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/georep/georep/internal/vec"
)

// Coordinate is a position in the latency space: a Euclidean component
// plus a non-negative height capturing access-link delay, as in the
// Vivaldi height model. With Height zero it degrades to plain Euclidean
// coordinates.
type Coordinate struct {
	Pos    vec.Vec
	Height float64
}

// Clone returns an independent copy of c.
func (c Coordinate) Clone() Coordinate {
	return Coordinate{Pos: c.Pos.Clone(), Height: c.Height}
}

// DistanceTo predicts the RTT in milliseconds between two coordinates:
// the Euclidean distance between positions plus both heights.
func (c Coordinate) DistanceTo(o Coordinate) float64 {
	return c.Pos.Dist(o.Pos) + c.Height + o.Height
}

// IsValid reports whether the coordinate contains only finite values and
// a non-negative height.
func (c Coordinate) IsValid() bool {
	return c.Pos.IsFinite() && !math.IsNaN(c.Height) && !math.IsInf(c.Height, 0) && c.Height >= 0
}

// Node is a participant in a decentralized coordinate system. An Update
// consumes one RTT measurement to a remote node along with the remote
// node's current coordinate and error estimate.
type Node interface {
	// Update folds one measurement into the node's coordinate.
	Update(remote Coordinate, remoteErr, rttMs float64)
	// Coordinate returns a copy of the node's current coordinate.
	Coordinate() Coordinate
	// ErrorEstimate returns the node's local relative error estimate in
	// [0, 1+]; lower means the node trusts its own coordinate more.
	ErrorEstimate() float64
}

// Algorithm selects a coordinate system implementation.
type Algorithm int

// Available coordinate algorithms.
const (
	AlgorithmVivaldi Algorithm = iota + 1
	AlgorithmRNP
)

// String returns the lower-case algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmVivaldi:
		return "vivaldi"
	case AlgorithmRNP:
		return "rnp"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name produced by String back to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "vivaldi":
		return AlgorithmVivaldi, nil
	case "rnp":
		return AlgorithmRNP, nil
	default:
		return 0, fmt.Errorf("coord: unknown algorithm %q", s)
	}
}

// NewNode constructs a node of the chosen algorithm with the given
// dimensionality and per-node RNG.
func NewNode(a Algorithm, dims int, r *rand.Rand) (Node, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("coord: dims must be positive, got %d", dims)
	}
	switch a {
	case AlgorithmVivaldi:
		return NewVivaldi(dims, r), nil
	case AlgorithmRNP:
		return NewRNP(dims, r), nil
	default:
		return nil, fmt.Errorf("coord: unknown algorithm %v", a)
	}
}

// randomUnit returns a uniformly random direction, used to separate
// co-located nodes.
func randomUnit(r *rand.Rand, d int) vec.Vec {
	for {
		v := vec.New(d)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		if n := v.Norm(); n > 1e-9 {
			v.ScaleInPlace(1 / n)
			return v
		}
	}
}
