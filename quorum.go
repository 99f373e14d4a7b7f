package georep

import (
	"fmt"
	"math/rand"

	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
)

// Quorum and grouped-object APIs: the two extensions the paper names in
// §II-A (quorum reads for stronger consistency; object groups treated as
// one virtual object).

// MeanQuorumDelay evaluates a replica set under read quorums: each
// client waits for the r-th fastest replica (it reads r replicas in
// parallel). r=1 is the paper's closest-replica model.
func (d *Deployment) MeanQuorumDelay(clients, replicas []int, r int) (float64, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("georep: no replicas")
	}
	if len(clients) == 0 {
		return 0, fmt.Errorf("georep: no clients")
	}
	if r <= 0 || r > len(replicas) {
		return 0, fmt.Errorf("georep: quorum %d out of [1,%d]", r, len(replicas))
	}
	n := d.matrix.N()
	for _, x := range append(append([]int(nil), clients...), replicas...) {
		if x < 0 || x >= n {
			return 0, fmt.Errorf("georep: node %d out of range [0,%d)", x, n)
		}
	}
	in := &placement.Instance{
		NumNodes: n,
		RTT:      d.matrix.RTT,
		Coords:   d.coords,
		Clients:  clients,
	}
	return placement.MeanQuorumDelay(in, replicas, r), nil
}

// PlaceQuorumOptimal exhaustively finds the placement minimizing the
// mean delay to assemble a read quorum of size r. It is the ground truth
// for quorum-aware placement; the heuristic strategies all optimize the
// r=1 objective.
func (d *Deployment) PlaceQuorumOptimal(cfg PlaceConfig, r int) (*Placement, error) {
	in := &placement.Instance{
		NumNodes:   d.matrix.N(),
		RTT:        d.matrix.RTT,
		Coords:     d.coords,
		Candidates: cfg.Candidates,
		Clients:    cfg.Clients,
		K:          cfg.K,
	}
	s := placement.OptimalQuorum{R: r}
	reps, err := s.Place(nil, in)
	if err != nil {
		return nil, fmt.Errorf("georep: place quorum: %w", err)
	}
	return &Placement{
		Strategy:    Strategy(s.Name()),
		Replicas:    reps,
		MeanDelayMs: placement.MeanQuorumDelay(in, reps, r),
	}, nil
}

// GroupSet manages placement for many object groups over one deployment,
// each group with its own replicas, summaries, and epochs.
type GroupSet struct {
	d     *Deployment
	inner *replica.GroupManager
}

// NewGroupSet creates a grouped manager with the given per-group
// configuration. Every group starts at the first K candidates and
// migrates from there; InitialReplicas, Tracing, Ledger and Provenance
// have no per-group meaning and are refused.
func (d *Deployment) NewGroupSet(cfg ManagerConfig) (*GroupSet, error) {
	rcfg, err := d.groupConfig("NewGroupSet", cfg)
	if err != nil {
		return nil, err
	}
	inner, err := replica.NewGroupManager(rcfg, cfg.Candidates, d.coords)
	if err != nil {
		return nil, fmt.Errorf("georep: new group set: %w", err)
	}
	return &GroupSet{d: d, inner: inner}, nil
}

// Groups returns the known group names in sorted order.
func (g *GroupSet) Groups() []string { return g.inner.Groups() }

// Replicas returns (creating the group if needed) a group's placement.
func (g *GroupSet) Replicas(group string) ([]int, error) {
	return g.inner.Replicas(group)
}

// RecordAccess routes one read of the named group from the client node
// and returns the serving replica and its ground-truth RTT.
func (g *GroupSet) RecordAccess(group string, clientNode int, weight float64) (servedBy int, rttMs float64, err error) {
	if clientNode < 0 || clientNode >= g.d.matrix.N() {
		return 0, 0, fmt.Errorf("georep: client node %d out of range", clientNode)
	}
	rep, err := g.inner.Record(group, g.d.coords[clientNode], weight)
	if err != nil {
		return rep, 0, err
	}
	return rep, g.d.matrix.RTT(clientNode, rep), nil
}

// EndEpoch runs every group's coordinator cycle and returns the
// per-group reports.
func (g *GroupSet) EndEpoch(seed int64) (map[string]EpochReport, error) {
	decs, err := g.inner.EndEpoch(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("georep: group epoch: %w", err)
	}
	out := make(map[string]EpochReport, len(decs))
	for name, dec := range decs {
		out[name] = reportOf(dec, 0, 0) // a GroupSet keeps no observed-delay window
	}
	return out, nil
}

// TotalMigrations sums adopted migrations across groups.
func (g *GroupSet) TotalMigrations() int { return g.inner.TotalMigrations() }
