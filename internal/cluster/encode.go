package cluster

import (
	"encoding/binary"
	"fmt"

	"github.com/georep/georep/internal/vec"
	"github.com/georep/georep/internal/wire"
)

// Wire codec for micro-cluster summaries and raw coordinates — the two
// payload shapes of Table II's bandwidth comparison (online O(k·m)
// summary records vs offline O(n) coordinate shipping).
//
// The format is hand-rolled fixed-width little-endian rather than gob:
// a coordinator accounts the collection bandwidth of every replica every
// epoch, and gob pays a reflective type-descriptor encode per fresh
// stream — profiled at ~15% of a manager epoch just to learn a length.
// With a fixed-width layout the encoded size is pure arithmetic
// (EncodedMicrosLen does no encoding at all) and encode/decode are
// single-pass copies.
//
//	micros:  'm' 0x01 | u32 count | per micro:
//	         i64 Count | f64 Weight | u32 dim(Sum) | u32 dim(Sum2) |
//	         f64×dim(Sum) | f64×dim(Sum2)
//	coords:  'c' 0x01 | u32 count | per vector: u32 dim | f64×dim
const (
	microsMagic  = 'm'
	coordsMagic  = 'c'
	codecVersion = 1
	microsHeader = 6  // magic, version, count
	microFixed   = 24 // Count, Weight, two dims words
)

// EncodeMicros serializes micro-clusters — the bytes a replica server
// ships to the coordinator. Its length is the online approach's
// per-collection bandwidth cost in Table II (O(k·m) records).
func EncodeMicros(ms []Micro) ([]byte, error) {
	b := make([]byte, 0, EncodedMicrosLen(ms))
	b = append(b, microsMagic, codecVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ms)))
	for i := range ms {
		m := &ms[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Count))
		b = wire.AppendF64(b, m.Weight)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Sum.Dim()))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Sum2.Dim()))
		b = wire.AppendF64s(b, m.Sum)
		b = wire.AppendF64s(b, m.Sum2)
	}
	return b, nil
}

// EncodedMicrosLen returns len(EncodeMicros(ms)) without encoding
// anything: the fixed-width layout makes the wire size arithmetic, so
// coordinators accounting collection bandwidth every epoch pay nothing.
func EncodedMicrosLen(ms []Micro) int {
	n := microsHeader
	for i := range ms {
		n += microFixed + 8*(ms[i].Sum.Dim()+ms[i].Sum2.Dim())
	}
	return n
}

// DecodeMicros reverses EncodeMicros. Every length is checked against
// the remaining input before allocation (wire.Reader), so arbitrary bytes
// (fuzzed or corrupt) fail cleanly instead of over-allocating; a
// non-finite or negative mass is refused, as ledger.Record.Validate does.
func DecodeMicros(b []byte) ([]Micro, error) {
	r := wire.NewReader(b)
	if m, v := r.U8(), r.U8(); m != microsMagic || v != codecVersion { // a short header has latched already
		r.Failf("bad magic/version %#x %#x", m, v)
	}
	// The count is bounded by the bytes that remain, each micro taking at
	// least microFixed.
	count := r.Fit(uint64(r.U32()), microFixed)
	var ms []Micro
	if count > 0 {
		ms = make([]Micro, count)
	}
	for i := range ms {
		m := &ms[i]
		m.Count = int64(r.U64())
		m.Weight = r.F64()
		d1, d2 := r.U32(), r.U32()
		if d1 != d2 {
			return nil, fmt.Errorf("cluster: micro %d has inconsistent dims %d vs %d", i, d1, d2)
		}
		m.Sum, m.Sum2 = r.F64s(uint64(d1)), r.F64s(uint64(d2))
		if m.Count < 0 || m.Weight < 0 {
			return nil, fmt.Errorf("cluster: micro %d has negative mass", i)
		}
		if !validWeight(m.Weight) || !m.Sum.IsFinite() || !m.Sum2.IsFinite() {
			return nil, fmt.Errorf("cluster: micro %d is non-finite", i)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("cluster: decode micros: %w", err)
	}
	return ms, nil
}

// EncodeCoordinates serializes raw client coordinates — the bytes the
// offline baseline must ship (O(n) records). Used to measure the offline
// side of Table II; same fixed-width layout as the summary codec so the
// bandwidth comparison stays apples-to-apples.
func EncodeCoordinates(ps []vec.Vec) ([]byte, error) {
	n := microsHeader
	for i := range ps {
		n += 4 + 8*ps[i].Dim()
	}
	b := make([]byte, 0, n)
	b = append(b, coordsMagic, codecVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ps)))
	for _, p := range ps {
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Dim()))
		b = wire.AppendF64s(b, p)
	}
	return b, nil
}
