package ledger

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/provenance"
	"github.com/georep/georep/internal/vec"
	"github.com/georep/georep/internal/wire"
)

// Record is one coordinator epoch's full decision provenance: every
// input Algorithm 1 consumed (the collected micro-cluster summaries,
// the candidate set with its coordinates) and everything it concluded
// (proposal, adopted placement, estimates, migration-cost gate verdict,
// degraded/quorum flags) plus the ground-truth mean delay clients
// actually observed during the epoch. A record is self-contained: an
// auditor can re-run the offline k-means baseline and the exhaustive
// optimal search from it alone, with no access to the deployment that
// produced it.
type Record struct {
	// Epoch is the coordinator's epoch counter (1-based, as reported by
	// replica.Manager.Epoch after the cycle).
	Epoch int
	// K is the replication degree after demand adaptation.
	K int
	// Candidates are the data-center node ids eligible to host replicas;
	// CandidateCoords[i] is Candidates[i]'s network coordinate at the
	// time of the decision. Recording the coordinates per epoch keeps the
	// record replayable even as the embedding drifts.
	Candidates      []int
	CandidateCoords []coord.Coordinate
	// PrevReplicas is the placement entering the epoch, Replicas the
	// placement after the decision, Proposed what the macro-clustering
	// suggested whether or not the migration gate adopted it.
	PrevReplicas []int
	Replicas     []int
	Proposed     []int
	// Migrate reports whether the proposal was adopted; MovedReplicas is
	// how many locations required a data copy.
	Migrate       bool
	MovedReplicas int
	// EstimatedOldMs / EstimatedNewMs are the summary-estimated mean
	// delays of the previous and proposed placements.
	EstimatedOldMs float64
	EstimatedNewMs float64
	// ObservedMeanMs is the measured mean access delay of the epoch's
	// routed accesses (ground truth where the caller has it, e.g. the
	// georep.Manager routing layer or the simulators); zero with
	// Accesses == 0 when unknown.
	ObservedMeanMs float64
	// Accesses is how many accesses ObservedMeanMs averages over.
	Accesses int64
	// CollectedBytes is the wire size of the collected summaries.
	CollectedBytes int
	// Degraded / QuorumOK / MissingSummaries mirror the epoch decision's
	// partial-failure flags.
	Degraded         bool
	QuorumOK         bool
	MissingSummaries []int
	// Micros are the micro-cluster summaries the decision consumed —
	// the auditor's raw material.
	Micros []cluster.Micro
	// ObjectID and Class identify the object this record's decision
	// placed when the coordinator runs a multi-object fleet; empty in
	// single-object deployments. Displaced is how many replicas of the
	// adopted placement were pushed off their preferred data center by
	// per-DC capacity accounting. Records with all three fields at their
	// zero values encode as version 1, byte-identical to pre-multi-object
	// ledgers; otherwise they encode as version 2.
	ObjectID  string
	Class     string
	Displaced int
	// Prov is the epoch's decision provenance — outcome reason with its
	// gating inputs, cost decomposition, scored counterfactuals, and
	// online regret (see internal/provenance). Records carrying it
	// encode as version 3; nil keeps the v1/v2 encoding, byte-identical
	// to pre-provenance ledgers.
	Prov *provenance.Record
}

// Validate checks the structural invariants DecodeRecord enforces on
// untrusted bytes: non-negative counters, candidate/coordinate tables of
// equal length, replicas drawn from the candidate set, and micro-cluster
// mass and dimensionality consistency.
func (r *Record) Validate() error {
	if r.Epoch < 0 {
		return fmt.Errorf("ledger: negative epoch %d", r.Epoch)
	}
	if r.K < 0 {
		return fmt.Errorf("ledger: negative k %d", r.K)
	}
	if r.Accesses < 0 {
		return fmt.Errorf("ledger: negative access count %d", r.Accesses)
	}
	if r.CollectedBytes < 0 {
		return fmt.Errorf("ledger: negative collected bytes %d", r.CollectedBytes)
	}
	if r.MovedReplicas < 0 {
		return fmt.Errorf("ledger: negative moved count %d", r.MovedReplicas)
	}
	if r.Displaced < 0 {
		return fmt.Errorf("ledger: negative displaced count %d", r.Displaced)
	}
	if len(r.CandidateCoords) != len(r.Candidates) {
		return fmt.Errorf("ledger: %d candidates but %d coordinates",
			len(r.Candidates), len(r.CandidateCoords))
	}
	// Non-finite floats are rejected wholesale: a NaN delay or coordinate
	// would silently poison every audit aggregate, and NaN also breaks
	// the round-trip identity (NaN != NaN) the fuzz harness relies on.
	if !finite(r.EstimatedOldMs) || !finite(r.EstimatedNewMs) || !finite(r.ObservedMeanMs) {
		return fmt.Errorf("ledger: non-finite delay estimate")
	}
	for i := range r.CandidateCoords {
		c := &r.CandidateCoords[i]
		if !finite(c.Height) || !finiteVec(c.Pos) {
			return fmt.Errorf("ledger: candidate coordinate %d is non-finite", i)
		}
	}
	cand := make(map[int]bool, len(r.Candidates))
	for _, c := range r.Candidates {
		if cand[c] {
			return fmt.Errorf("ledger: duplicate candidate %d", c)
		}
		cand[c] = true
	}
	for _, set := range [][]int{r.PrevReplicas, r.Replicas, r.Proposed} {
		for _, rep := range set {
			if !cand[rep] {
				return fmt.Errorf("ledger: replica %d is not a candidate", rep)
			}
		}
	}
	for i := range r.Micros {
		m := &r.Micros[i]
		if m.Count < 0 || m.Weight < 0 {
			return fmt.Errorf("ledger: micro %d has negative mass", i)
		}
		if m.Sum.Dim() != m.Sum2.Dim() {
			return fmt.Errorf("ledger: micro %d has inconsistent dims %d vs %d",
				i, m.Sum.Dim(), m.Sum2.Dim())
		}
		if !finite(m.Weight) || !finiteVec(m.Sum) || !finiteVec(m.Sum2) {
			return fmt.Errorf("ledger: micro %d is non-finite", i)
		}
	}
	if r.Prov != nil {
		if err := r.Prov.Validate(func(node int) bool { return cand[node] }); err != nil {
			return err
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteVec(v vec.Vec) bool {
	for _, x := range v {
		if !finite(x) {
			return false
		}
	}
	return true
}

// The record payload is a hand-rolled binary format rather than gob:
// the ledger write sits on the coordinator's epoch path, and gob's
// per-stream type descriptors cost more than the entire rest of the
// append. Layout (version 1): a version byte, then the fields of Record
// in declaration order — ints as varints, float64s as 8-byte
// little-endian IEEE 754, slices as a uvarint count followed by
// elements. Every record is self-contained and byte-deterministic for
// a given Record value. Version 2 appends the multi-object identity
// fields (ObjectID, Class as uvarint-length-prefixed strings, Displaced
// as a varint) after the version-1 payload; a record whose identity
// fields are all zero still encodes as version 1, so single-object
// ledgers stay byte-identical across the format revision and old
// readers keep working on them. Version 3 appends the decision
// provenance (reason/held, cost decomposition with per-DC shares,
// gating inputs, scored counterfactuals, regret) after the version-2
// tail — the v2 identity fields are always present in a v3 record, even
// when zero. A record without provenance keeps the v1/v2 gating, so
// ledgers written with capture off are byte-identical to pre-provenance
// ones and old readers keep decoding them.
const (
	recordVersion   = 1
	recordVersionV2 = 2
	recordVersionV3 = 3
)

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendVec(b []byte, v vec.Vec) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return wire.AppendF64s(b, v)
}

// appendUvarintString appends s behind its uvarint length, the record
// format's prefix for every variable-length field.
func appendUvarintString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRecord serializes r onto b. It allocates only when b lacks
// capacity, so the ledger can reuse one scratch buffer across appends.
func appendRecord(b []byte, r *Record) []byte {
	v3 := r.Prov != nil
	v2 := r.ObjectID != "" || r.Class != "" || r.Displaced != 0
	switch {
	case v3:
		b = append(b, recordVersionV3)
	case v2:
		b = append(b, recordVersionV2)
	default:
		b = append(b, recordVersion)
	}
	b = binary.AppendVarint(b, int64(r.Epoch))
	b = binary.AppendVarint(b, int64(r.K))
	b = appendInts(b, r.Candidates)
	b = binary.AppendUvarint(b, uint64(len(r.CandidateCoords)))
	for _, c := range r.CandidateCoords {
		b = appendVec(b, c.Pos)
		b = wire.AppendF64(b, c.Height)
	}
	b = appendInts(b, r.PrevReplicas)
	b = appendInts(b, r.Replicas)
	b = appendInts(b, r.Proposed)
	b = wire.AppendBool(b, r.Migrate)
	b = binary.AppendVarint(b, int64(r.MovedReplicas))
	b = wire.AppendF64(b, r.EstimatedOldMs)
	b = wire.AppendF64(b, r.EstimatedNewMs)
	b = wire.AppendF64(b, r.ObservedMeanMs)
	b = binary.AppendVarint(b, r.Accesses)
	b = binary.AppendVarint(b, int64(r.CollectedBytes))
	b = wire.AppendBool(b, r.Degraded)
	b = wire.AppendBool(b, r.QuorumOK)
	b = appendInts(b, r.MissingSummaries)
	b = binary.AppendUvarint(b, uint64(len(r.Micros)))
	for i := range r.Micros {
		m := &r.Micros[i]
		b = binary.AppendVarint(b, m.Count)
		b = wire.AppendF64(b, m.Weight)
		b = appendVec(b, m.Sum)
		b = appendVec(b, m.Sum2)
	}
	if v2 || v3 {
		b = appendUvarintString(b, r.ObjectID)
		b = appendUvarintString(b, r.Class)
		b = binary.AppendVarint(b, int64(r.Displaced))
	}
	if v3 {
		b = appendProv(b, r.Prov)
	}
	return b
}

// appendProv serializes the v3 provenance tail in field order: reason,
// held, cost decomposition, gating inputs, per-DC shares, scored
// counterfactuals, and the regret summary.
func appendProv(b []byte, p *provenance.Record) []byte {
	b = append(b, byte(p.Reason))
	b = wire.AppendBool(b, p.Held)
	b = wire.AppendF64(b, p.ChosenCostMs)
	b = wire.AppendF64(b, p.ReadMs)
	b = wire.AppendF64(b, p.WriteMs)
	b = wire.AppendF64(b, p.MigrateMs)
	b = wire.AppendF64(b, p.GateBurn)
	b = binary.AppendVarint(b, int64(p.GateMissing))
	b = wire.AppendF64(b, p.GateDrift)
	b = wire.AppendF64(b, p.GateOccupancy)
	b = binary.AppendUvarint(b, uint64(len(p.PerDC)))
	for i := range p.PerDC {
		d := &p.PerDC[i]
		b = binary.AppendVarint(b, int64(d.Node))
		b = wire.AppendF64(b, d.Weight)
		b = wire.AppendF64(b, d.MeanMs)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Counterfactuals)))
	for i := range p.Counterfactuals {
		c := &p.Counterfactuals[i]
		b = append(b, byte(c.Source))
		b = wire.AppendF64(b, c.CostMs)
		b = wire.AppendF64(b, c.DeltaMs)
		b = appendInts(b, c.Replicas)
	}
	b = wire.AppendF64(b, p.BestAltMs)
	b = wire.AppendF64(b, p.RegretMs)
	b = wire.AppendF64(b, p.RegretRatio)
	return b
}

// The decode side reads through wire.Reader (DESIGN §17); these three
// are the record format's uvarint-counted shapes on top of it.

func readInts(d *wire.Reader) []int {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Varint())
	}
	return out
}

func readString(d *wire.Reader) string { return string(d.Take(d.Count(1))) }

func readVec(d *wire.Reader) vec.Vec { return d.F64s(d.Uvarint()) }

// EncodeRecord serializes a record to the payload stored inside one
// ledger frame. Encoding is infallible and byte-deterministic; the
// error return is kept for call-site symmetry with DecodeRecord.
func EncodeRecord(r Record) ([]byte, error) {
	return appendRecord(make([]byte, 0, 256), &r), nil
}

// DecodeRecord reverses EncodeRecord and validates the result, so a
// corrupted-but-CRC-valid or fuzzed payload surfaces as an error rather
// than poisoning an audit.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) == 0 {
		return Record{}, fmt.Errorf("ledger: decode record: empty payload")
	}
	if b[0] != recordVersion && b[0] != recordVersionV2 && b[0] != recordVersionV3 {
		return Record{}, fmt.Errorf("ledger: decode record: unknown version %d", b[0])
	}
	d := wire.NewReader(b)
	d.U8() // the version, checked above
	var r Record
	r.Epoch = int(d.Varint())
	r.K = int(d.Varint())
	r.Candidates = readInts(&d)
	if n := d.Count(9); n > 0 { // a coordinate is ≥ one empty vec + height
		r.CandidateCoords = make([]coord.Coordinate, n)
		for i := range r.CandidateCoords {
			r.CandidateCoords[i].Pos = readVec(&d)
			r.CandidateCoords[i].Height = d.F64()
		}
	}
	r.PrevReplicas = readInts(&d)
	r.Replicas = readInts(&d)
	r.Proposed = readInts(&d)
	r.Migrate = d.Bool()
	r.MovedReplicas = int(d.Varint())
	r.EstimatedOldMs = d.F64()
	r.EstimatedNewMs = d.F64()
	r.ObservedMeanMs = d.F64()
	r.Accesses = d.Varint()
	r.CollectedBytes = int(d.Varint())
	r.Degraded = d.Bool()
	r.QuorumOK = d.Bool()
	r.MissingSummaries = readInts(&d)
	if n := d.Count(11); n > 0 { // a micro is ≥ count + weight + two empty vecs
		r.Micros = make([]cluster.Micro, n)
		for i := range r.Micros {
			r.Micros[i].Count = d.Varint()
			r.Micros[i].Weight = d.F64()
			r.Micros[i].Sum = readVec(&d)
			r.Micros[i].Sum2 = readVec(&d)
		}
	}
	if b[0] == recordVersionV2 || b[0] == recordVersionV3 {
		r.ObjectID = readString(&d)
		r.Class = readString(&d)
		r.Displaced = int(d.Varint())
	}
	if b[0] == recordVersionV3 {
		p := &provenance.Record{}
		p.Reason = provenance.Reason(d.U8())
		p.Held = d.Bool()
		p.ChosenCostMs = d.F64()
		p.ReadMs = d.F64()
		p.WriteMs = d.F64()
		p.MigrateMs = d.F64()
		p.GateBurn = d.F64()
		p.GateMissing = int(d.Varint())
		p.GateDrift = d.F64()
		p.GateOccupancy = d.F64()
		if n := d.Count(17); n > 0 { // a share is node + two floats
			p.PerDC = make([]provenance.DCShare, n)
			for i := range p.PerDC {
				p.PerDC[i].Node = int(d.Varint())
				p.PerDC[i].Weight = d.F64()
				p.PerDC[i].MeanMs = d.F64()
			}
		}
		if n := d.Count(18); n > 0 { // source + two floats + empty replicas
			p.Counterfactuals = make([]provenance.Candidate, n)
			for i := range p.Counterfactuals {
				c := &p.Counterfactuals[i]
				c.Source = provenance.Source(d.U8())
				c.CostMs = d.F64()
				c.DeltaMs = d.F64()
				c.Replicas = readInts(&d)
			}
		}
		p.BestAltMs = d.F64()
		p.RegretMs = d.F64()
		p.RegretRatio = d.F64()
		r.Prov = p
	}
	if err := d.Finish(); err != nil {
		return Record{}, fmt.Errorf("ledger: decode record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}
