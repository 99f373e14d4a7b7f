package coord

import (
	"math"
	"math/rand"
	"sort"

	"github.com/georep/georep/internal/stats"
	"github.com/georep/georep/internal/vec"
)

// RNP implementation parameters.
const (
	// rnpHistoryPerPeer bounds the retained RTT samples per neighbour.
	rnpHistoryPerPeer = 8
	// rnpMaxPeers bounds the number of neighbours remembered; the least
	// recently heard-from neighbour is evicted beyond this.
	rnpMaxPeers = 48
	// rnpRefitEvery triggers a retrospective re-fit after this many
	// online updates.
	rnpRefitEvery = 16
	// rnpRefitSteps is the number of gradient steps per re-fit.
	rnpRefitSteps = 4
	// rnpBaseStep is the online learning rate before reliability scaling.
	rnpBaseStep = 0.25
)

// rnpSample is one retained measurement toward a neighbour.
type rnpSample struct {
	rtt float64
}

// rnpPeer aggregates everything remembered about a neighbour: its most
// recent coordinate and a bounded window of RTT samples. The variance of
// the window drives the reliability weighting.
type rnpPeer struct {
	coord   Coordinate
	samples []rnpSample // ring buffer, newest last
	lastUse int         // logical clock of the last measurement
}

// reliability maps the window's coefficient of variation to (0, 1]: a
// stable neighbour (low spread relative to its median) is trusted fully,
// a jittery one is discounted. This is the "consume information
// differently according to its reliability" behaviour RNP claims over
// Vivaldi.
func (p *rnpPeer) reliability() float64 {
	if len(p.samples) < 2 {
		return 0.5 // unknown stability: medium trust
	}
	var acc stats.Accumulator
	for _, s := range p.samples {
		acc.Add(s.rtt)
	}
	m := acc.Mean()
	if m <= 0 {
		return 0.5
	}
	cv := acc.StdDev() / m
	return 1 / (1 + 4*cv)
}

// filteredRTT returns the window median, a robust estimate of the
// neighbour's true RTT that ignores transient congestion spikes.
func (p *rnpPeer) filteredRTT() float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = s.rtt
	}
	med, err := stats.Median(xs)
	if err != nil {
		return 0
	}
	return med
}

// RNP is one node of the Retrospective Network Positioning system. Like
// Vivaldi it is decentralized and landmark-free; unlike Vivaldi it keeps
// a bounded measurement history and periodically re-fits its coordinate
// against the filtered history, which damps oscillation on unstable
// platforms such as PlanetLab.
type RNP struct {
	coord    Coordinate
	localErr float64
	rng      *rand.Rand
	peers    map[peerKey]*rnpPeer
	clock    int
	updates  int
}

// peerKey identifies a neighbour by its coordinate provenance. RNP nodes
// do not learn network identities of their peers in this simulation, so
// peers are distinguished by the pointer-free key the caller supplies via
// SetPeerKey, or an automatic sequence otherwise.
type peerKey int64

var _ Node = (*RNP)(nil)

// NewRNP returns an RNP node at the origin.
func NewRNP(dims int, r *rand.Rand) *RNP {
	return &RNP{
		coord:    Coordinate{Pos: vec.New(dims), Height: minHeight},
		localErr: 1.0,
		rng:      r,
		peers:    make(map[peerKey]*rnpPeer),
	}
}

// UpdateFrom folds in one measurement attributed to the neighbour with
// the given identity, retaining it in the history window.
func (n *RNP) UpdateFrom(peerID int64, remote Coordinate, remoteErr, rttMs float64) {
	if rttMs <= 0 || !remote.IsValid() {
		return
	}
	n.clock++
	key := peerKey(peerID)
	p, ok := n.peers[key]
	if !ok {
		p = &rnpPeer{}
		n.evictIfFull()
		n.peers[key] = p
	}
	p.coord = remote.Clone()
	p.lastUse = n.clock
	p.samples = append(p.samples, rnpSample{rtt: rttMs})
	if len(p.samples) > rnpHistoryPerPeer {
		p.samples = p.samples[len(p.samples)-rnpHistoryPerPeer:]
	}

	n.onlineStep(p, remoteErr)
	n.updates++
	if n.updates%rnpRefitEvery == 0 {
		n.refit()
	}
}

// Update implements Node. Without an explicit peer identity the remote
// coordinate's quantized position is used to recognize repeat neighbours.
func (n *RNP) Update(remote Coordinate, remoteErr, rttMs float64) {
	n.UpdateFrom(hashCoordinate(remote), remote, remoteErr, rttMs)
}

// onlineStep performs a reliability-weighted spring update toward
// consistency with the peer's filtered RTT.
func (n *RNP) onlineStep(p *rnpPeer, remoteErr float64) {
	target := p.filteredRTT()
	if target <= 0 {
		return
	}
	predicted := n.coord.DistanceTo(p.coord)

	w := 0.5
	if remoteErr >= 0 && n.localErr+remoteErr > 0 {
		w = n.localErr / (n.localErr + remoteErr)
	}
	rel := p.reliability()

	es := absFloat(predicted-target) / target
	alpha := vivaldiCE * w * rel
	n.localErr = es*alpha + n.localErr*(1-alpha)
	if n.localErr > 2 {
		n.localErr = 2
	}

	force := rnpBaseStep * w * rel * (target - predicted)
	dir := n.coord.Pos.Sub(p.coord.Pos)
	if dir.Norm() < 1e-9 {
		dir = randomUnit(n.rng, n.coord.Pos.Dim())
	} else {
		dir = dir.Unit()
	}
	n.coord.Pos.AddScaled(force, dir)
	if predicted > 0 {
		hShare := (n.coord.Height + p.coord.Height) / predicted
		n.coord.Height += force * hShare * 0.5
		if n.coord.Height < minHeight {
			n.coord.Height = minHeight
		}
	}
}

// refit is the retrospective pass: a few gradient-descent steps that move
// the coordinate to minimize the reliability-weighted squared error
// against every retained neighbour's filtered RTT. Because it optimizes
// against the whole window at once it converges where pure online updates
// oscillate.
func (n *RNP) refit() {
	if len(n.peers) < 2 {
		return
	}
	dims := n.coord.Pos.Dim()
	// Iterate peers in a fixed order: map order is randomized and the
	// floating-point gradient sum must be reproducible for a given seed.
	keys := make([]peerKey, 0, len(n.peers))
	for k := range n.peers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for step := 0; step < rnpRefitSteps; step++ {
		grad := vec.New(dims)
		var hGrad, totalW float64
		for _, k := range keys {
			p := n.peers[k]
			target := p.filteredRTT()
			if target <= 0 {
				continue
			}
			rel := p.reliability()
			predicted := n.coord.DistanceTo(p.coord)
			diff := predicted - target // >0 means too far in coordinate space
			dir := n.coord.Pos.Sub(p.coord.Pos)
			if dir.Norm() < 1e-9 {
				dir = randomUnit(n.rng, dims)
			} else {
				dir = dir.Unit()
			}
			// d(predicted)/d(pos) = dir; d(predicted)/d(height) = 1.
			grad.AddScaled(rel*diff, dir)
			hGrad += rel * diff
			totalW += rel
		}
		if totalW == 0 {
			return
		}
		lr := 0.3 / totalW
		n.coord.Pos.AddScaled(-lr, grad)
		n.coord.Height -= lr * hGrad * 0.25
		if n.coord.Height < minHeight {
			n.coord.Height = minHeight
		}
	}
}

// evictIfFull drops the least recently heard-from neighbour when the peer
// table is at capacity.
func (n *RNP) evictIfFull() {
	if len(n.peers) < rnpMaxPeers {
		return
	}
	var victim peerKey
	oldest := math.MaxInt
	for k, p := range n.peers {
		// Tie-break on the key so eviction is deterministic despite
		// randomized map iteration order.
		if p.lastUse < oldest || (p.lastUse == oldest && k < victim) {
			oldest = p.lastUse
			victim = k
		}
	}
	delete(n.peers, victim)
}

// Coordinate returns a copy of the node's current coordinate.
func (n *RNP) Coordinate() Coordinate { return n.coord.Clone() }

// ErrorEstimate returns the node's relative error estimate.
func (n *RNP) ErrorEstimate() float64 { return n.localErr }

// hashCoordinate derives a stable identity from a coordinate by
// quantizing its components; good enough to recognize a repeat neighbour
// whose coordinate moved only slightly between contacts is NOT the goal —
// distinct nodes simply need distinct histories most of the time.
func hashCoordinate(c Coordinate) int64 {
	var h int64 = 1469598103934665603
	mix := func(x float64) {
		q := int64(x * 16)
		h ^= q
		h *= 1099511628211
	}
	for _, x := range c.Pos {
		mix(x)
	}
	mix(c.Height)
	return h
}
