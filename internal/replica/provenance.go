package replica

import (
	"math"
	"slices"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/replog"
)

// maxSwapProbes bounds the single-slot swap counterfactuals scored per
// epoch: each probe costs one delay estimate (plus a leader election
// when the write path is on), so the capture overhead stays a small
// constant multiple of the decision path's own estimate cost.
const maxSwapProbes = 4

// provTrivial captures provenance for the epochs that never reach the
// placement machinery: below-quorum (reason quorum-gated) and silent
// (reason steady). The chosen cost is the current placement's estimate
// when one was computed; there are no counterfactuals to rank.
func (m *Manager) provTrivial(reason provenance.Reason, p *PendingEpoch, ov *EpochOverride, dec *Decision) {
	if !m.f.cfg.Provenance {
		return
	}
	m.prov.Reset()
	m.prov.Reason = reason
	m.provGates(p, ov)
	m.prov.ReadMs = dec.EstimatedOldMs
	m.attributePerDC(&m.f.sc.old)
	m.prov.Finalize(dec.EstimatedOldMs)
	m.provReady = true
	m.f.provEst.Observe(&m.prov)
}

// provDecide captures provenance for a full decision epoch: outcome
// reason, cost decomposition of the adopted placement, and the ranked
// counterfactuals — the rejected side of the migration gate, the
// service's solve frontier, and bounded single-slot swap probes.
// adopted holds the per-micro costs of the placement the epoch ends on.
// Runs after the decision is final so it reads, never steers.
func (m *Manager) provDecide(p *PendingEpoch, ov *EpochOverride, dec *Decision, adopted *placementCost, gateOld, gateNew float64, proposed []int) {
	if !m.f.cfg.Provenance {
		return
	}
	m.prov.Reset()
	m.provGates(p, ov)
	m.prov.Held = dec.Held

	// Outcome reason, most specific first: a held migration explains
	// more than the displacement that proposed it, displacement more
	// than the migration it forced, and a drift-skip more than the
	// steady placement it preserved.
	switch {
	case dec.Held:
		m.prov.Reason = provenance.ReasonHeldBudget
	case dec.Displaced > 0:
		m.prov.Reason = provenance.ReasonDisplaced
	case dec.Migrate && dec.MovedReplicas > 0:
		m.prov.Reason = provenance.ReasonMigrated
	case ov != nil && ov.DriftSkipped:
		m.prov.Reason = provenance.ReasonDriftSkipped
	default:
		m.prov.Reason = provenance.ReasonSteady
	}

	// Cost decomposition of the placement the epoch ends on. When the
	// proposal was adopted m.replicas already equals it; otherwise the
	// previous placement survived and the "new" estimates describe the
	// road not taken.
	wf := m.f.cfg.WriteFraction
	chosen := gateOld
	if dec.Migrate {
		chosen = gateNew
		m.prov.ReadMs = dec.EstimatedNewMs
		if wf > 0 {
			m.prov.WriteMs = dec.WriteCostNewMs
		}
	} else {
		m.prov.ReadMs = dec.EstimatedOldMs
		if wf > 0 {
			m.prov.WriteMs = dec.WriteCostOldMs
		}
	}
	if dec.Migrate && dec.MovedReplicas > 0 {
		// Migration price in delay-equivalent milliseconds: the byte
		// cost of the move divided by the value of one millisecond of
		// access improvement at this epoch's demand (the same exchange
		// rate approveMigration trades at). Zero when the economics are
		// unconfigured — the gate then never charged for movement.
		if mg := m.f.cfg.Migration; mg.CostPerByte > 0 && mg.GainPerMsAccess > 0 && p.demand > 0 {
			m.prov.MigrateMs = float64(dec.MovedReplicas) * mg.ObjectBytes * mg.CostPerByte /
				(p.demand * mg.GainPerMsAccess)
		}
	}
	m.attributePerDC(adopted)

	// Counterfactual 1: the losing side of the migration gate. Both
	// blended costs were already computed for the decision, so this is
	// free. A zero-move epoch has no losing side.
	if dec.MovedReplicas > 0 {
		if dec.Migrate {
			m.prov.AddCounterfactual(provenance.SourcePrevious, gateOld, p.prev)
		} else {
			m.prov.AddCounterfactual(provenance.SourceProposed, gateNew, proposed)
		}
	}
	// Counterfactuals 2..n: the group solve's scored frontier, when the
	// multi-object service drove this epoch.
	if ov != nil {
		for i := range ov.Frontier {
			f := &ov.Frontier[i]
			m.prov.AddCounterfactual(f.Source, f.CostMs, f.Replicas)
		}
	}
	// Counterfactuals n+1..: bounded swap probes around the adopted
	// placement.
	m.provSwaps(p.micros, adopted, chosen, wf)

	m.prov.Finalize(chosen)
	m.provReady = true
	m.f.provEst.Observe(&m.prov)
}

// provGates stamps the epoch's gating inputs: live SLO burn rate, how
// many summaries went missing, and — when the multi-object service
// drove the epoch — the leader's signature drift and the fleet
// capacity occupancy.
func (m *Manager) provGates(p *PendingEpoch, ov *EpochOverride) {
	if m.f.cfg.BurnRate != nil {
		m.prov.GateBurn = m.f.cfg.BurnRate()
	}
	m.prov.GateMissing = len(p.missing)
	if ov != nil {
		m.prov.GateDrift = ov.Drift
		m.prov.GateOccupancy = ov.Occupancy
	}
}

// provSwaps scores up to maxSwapProbes one-slot perturbations of the
// adopted placement: each probe replaces one replica with the nearest
// candidate DC not already in the placement and prices the result with
// the same blended objective the migration gate uses. These are the
// "what if one site were different" alternatives an operator asks for
// first, and they calibrate the regret estimate even on epochs where
// the solver itself scored nothing else.
//
// The read term rides the adopted placement's per-micro costs: for a
// one-slot swap, each micro pays min(its retained best — or the
// runner-up when its nearest was the slot swapped away — and its
// distance to the stand-in), so a probe costs one distance per micro
// instead of a full placement estimate.
func (m *Manager) provSwaps(micros []cluster.Micro, pc *placementCost, chosen, wf float64) {
	sc, coords := &m.f.sc, m.f.coords
	adopted := m.replicas
	k := len(adopted)
	n := pc.n
	if len(m.f.candidates) <= k || n == 0 || sc.provMass == 0 {
		return // no unused candidate to swap in, or nothing to score with
	}
	if cap(sc.swap) < k {
		sc.swap = make([]int, k)
	}
	swap := sc.swap[:k]
	dims := sc.dims
	probes := k
	if probes > maxSwapProbes {
		probes = maxSwapProbes
	}
	for j := 0; j < probes; j++ {
		// Nearest unused candidate to the replica being displaced: the
		// most plausible stand-in, hence the tightest counterfactual.
		base := coords[adopted[j]]
		alt, bestD := -1, math.Inf(1)
		for _, c := range m.f.candidates {
			if slices.Contains(adopted, c) {
				continue
			}
			if d := coords[c].Pos.Dist(base.Pos) + coords[c].Height; d < bestD {
				bestD, alt = d, c
			}
		}
		if alt < 0 {
			return
		}
		copy(swap, adopted)
		swap[j] = alt
		altC := coords[alt]
		var total float64
		for i := 0; i < n; i++ {
			if pc.owner[i] < 0 {
				continue // attribution left it out
			}
			retained := pc.best[i]
			if pc.owner[i] == j {
				retained = pc.best2[i]
			}
			if d := altC.Pos.Dist(sc.cent[i*dims:(i+1)*dims]) + altC.Height; d < retained {
				retained = d
			}
			total += sc.w[i] * retained
		}
		cost := total / sc.provMass
		if wf > 0 {
			read := cost
			leader := replog.ChooseLeader(m.f.cfg.LeaderPolicy, swap, micros, coords)
			w := replog.WriteMs(leader, micros, coords) + replog.FanoutMs(leader, swap, coords)
			cost = (1-wf)*read + wf*w
		}
		m.prov.AddCounterfactual(provenance.SourceSwap, cost, swap)
	}
}

// attributePerDC decomposes the adopted placement's serving cost by
// replica DC: each micro-cluster's weight and delay accrue to the
// replica that serves it (its nearest, as the estimate found), yielding
// per-DC demand shares and mean delays that sum back to the read term.
// It reads the per-micro costs the estimate recorded — no distance is
// recomputed. Scratch-backed; appends into m.prov.PerDC.
func (m *Manager) attributePerDC(pc *placementCost) {
	sc, replicas := &m.f.sc, m.replicas
	k := len(replicas)
	sc.provMass = 0
	if k == 0 || pc.n == 0 {
		return
	}
	if cap(sc.dcw) < k {
		sc.dcw = make([]float64, k)
		sc.dcd = make([]float64, k)
	}
	ws, ds := sc.dcw[:k], sc.dcd[:k]
	for i := range ws {
		ws[i], ds[i] = 0, 0
	}
	var mass float64
	for i, j := range pc.owner[:pc.n] {
		if j < 0 {
			continue
		}
		w := sc.w[i]
		ws[j] += w
		ds[j] += w * pc.best[i]
		mass += w
	}
	sc.provMass = mass
	if mass == 0 {
		return
	}
	for j, rep := range replicas {
		if ws[j] == 0 {
			continue
		}
		m.prov.PerDC = append(m.prov.PerDC, provenance.DCShare{
			Node:   rep,
			Weight: ws[j] / mass,
			MeanMs: ds[j] / ws[j],
		})
	}
}
