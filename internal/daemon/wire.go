package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/georep/georep/internal/wire"
)

// Binary body codec for the request/response types of the daemon
// protocol, in the idiom of the ledger, replog and micros codecs: one
// marker byte naming the type, little-endian fixed fields, u32
// length-prefixed strings, byte and float slices, decoded through
// wire.Reader (DESIGN §17: every length checked against the bytes that
// remain before anything is allocated).
//
//	GetRequest         0x81 | i64 Client | f64 Bytes | u32 n | f64×n ClientCoord | u32 n | Object
//	GetResponse        0x82 | u64 Version | u32 n | Data
//	PutRequest         0x83 | u64 Version | u32 n | Object | u32 n | Data
//	DeleteRequest      0x84 | u32 n | Object
//	DecayRequest       0x85 | f64 Factor
//	MicrosRequest      0x86 | u32 n | Object
//	MicrosResponse     0x87 | u32 n | Encoded
//	ReplicateRequest   0x88 | u64 From | i64 Max
//	ReplicateResponse  0x89 | u8 Snapshot | u64 SnapSeq | u64 SnapTerm | u64 Last | u32 n | Frames
//	CoordResponse      0x8a | i64 Node | f64 Height | u32 n | f64×n Pos
//	ListResponse       0x8b | u32 n | n × (u32 n | Object)
//	StatsResponse      0x8c | i64 Node | i64 Objects | i64 Bytes | i64 Accesses
//	ExplainRequest     0x8d | i64 Epoch | u32 n | ObjectID
//
// The marker names the type: a body with another marker or an empty one
// is refused with the type's name (the handlers and the transport call
// DecodeBody on every body these types receive). A changed layout takes
// a new marker. Zero-length fields decode to nil. Decoded byte slices
// alias the body: the transport hands every decoder a per-message buffer
// (TestWireAliasing pins both halves of that). The metrics, slo, trace
// and explain replies are no struct at all: their body is the view's
// rendered bytes (see Node.MetricsJSON and the rest).
const (
	wireGetRequest byte = 0x81 + iota
	wireGetResponse
	wirePutRequest
	wireDeleteRequest
	wireDecayRequest
	wireMicrosRequest
	wireMicrosResponse
	wireReplicateRequest
	wireReplicateResponse
	wireCoordResponse
	wireListResponse
	wireStatsResponse
	wireExplainRequest
)

// errFieldTooLong rejects a field whose length does not fit the u32
// prefix; nothing the daemon serves comes near it.
var errFieldTooLong = errors.New("daemon: wire: field longer than 4 GiB")

func checkFieldLens(lens ...int) error {
	for _, n := range lens {
		if uint64(n) > math.MaxUint32 {
			return errFieldTooLong
		}
	}
	return nil
}

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// readBody checks the marker and returns a reader (DESIGN §17) over the
// rest.
func readBody(b []byte, marker byte) wire.Reader {
	r := wire.NewReader(b)
	if r.U8() != marker { // no marker is zero, so an empty body lands here too
		r.Failf("bad marker (want %#x)", marker)
	}
	return r
}

// finishBody stores v in dst once every read succeeded and no bytes are
// left over — a body that fails to decode leaves its target untouched —
// or reports the failure under the name of the type being decoded.
func finishBody[T any](r *wire.Reader, what string, dst *T, v T) error {
	if err := r.Finish(); err != nil {
		return fmt.Errorf("daemon: wire: %s: %w", what, err)
	}
	*dst = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (q GetRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.ClientCoord), len(q.Object)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+8+8+4+8*len(q.ClientCoord)+4+len(q.Object))
	dst = append(dst, wireGetRequest)
	dst = appendU64(dst, uint64(q.Client))
	dst = wire.AppendF64(dst, q.Bytes)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.ClientCoord)))
	dst = wire.AppendF64s(dst, q.ClientCoord)
	return wire.AppendString(dst, q.Object), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *GetRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireGetRequest)
	var v GetRequest
	v.Client = int(int64(r.U64()))
	v.Bytes = r.F64()
	v.ClientCoord = r.F64s(uint64(r.U32()))
	v.Object = r.Str()
	return finishBody(&r, "get request", q, v)
}

// AppendBody implements transport.BodyAppender.
func (p GetResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Data)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+8+4+len(p.Data))
	dst = append(dst, wireGetResponse)
	dst = appendU64(dst, p.Version)
	return wire.AppendBytes(dst, p.Data), nil
}

// DecodeBody implements transport.BodyDecoder. Data aliases b.
func (p *GetResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireGetResponse)
	var v GetResponse
	v.Version = r.U64()
	v.Data = r.Bytes()
	return finishBody(&r, "get response", p, v)
}

// AppendBody implements transport.BodyAppender.
func (q PutRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.Object), len(q.Data)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+8+4+len(q.Object)+4+len(q.Data))
	dst = append(dst, wirePutRequest)
	dst = appendU64(dst, q.Version)
	dst = wire.AppendString(dst, q.Object)
	return wire.AppendBytes(dst, q.Data), nil
}

// DecodeBody implements transport.BodyDecoder. Data aliases b.
func (q *PutRequest) DecodeBody(b []byte) error {
	r := readBody(b, wirePutRequest)
	var v PutRequest
	v.Version = r.U64()
	v.Object = r.Str()
	v.Data = r.Bytes()
	return finishBody(&r, "put request", q, v)
}

// AppendBody implements transport.BodyAppender.
func (q DeleteRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.Object)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+4+len(q.Object))
	return wire.AppendString(append(dst, wireDeleteRequest), q.Object), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *DeleteRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireDeleteRequest)
	v := DeleteRequest{Object: r.Str()}
	return finishBody(&r, "delete request", q, v)
}

// AppendBody implements transport.BodyAppender.
func (q DecayRequest) AppendBody(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, 1+8)
	return wire.AppendF64(append(dst, wireDecayRequest), q.Factor), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *DecayRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireDecayRequest)
	v := DecayRequest{Factor: r.F64()}
	return finishBody(&r, "decay request", q, v)
}

// AppendBody implements transport.BodyAppender.
func (q MicrosRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.Object)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+4+len(q.Object))
	return wire.AppendString(append(dst, wireMicrosRequest), q.Object), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *MicrosRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireMicrosRequest)
	v := MicrosRequest{Object: r.Str()}
	return finishBody(&r, "micros request", q, v)
}

// AppendBody implements transport.BodyAppender.
func (p MicrosResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Encoded)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+4+len(p.Encoded))
	return wire.AppendBytes(append(dst, wireMicrosResponse), p.Encoded), nil
}

// DecodeBody implements transport.BodyDecoder. Encoded aliases b.
func (p *MicrosResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireMicrosResponse)
	v := MicrosResponse{Encoded: r.Bytes()}
	return finishBody(&r, "micros response", p, v)
}

// AppendBody implements transport.BodyAppender.
func (q ReplicateRequest) AppendBody(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, 1+8+8)
	dst = append(dst, wireReplicateRequest)
	dst = appendU64(dst, q.From)
	return appendU64(dst, uint64(q.Max)), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *ReplicateRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireReplicateRequest)
	var v ReplicateRequest
	v.From = r.U64()
	v.Max = int(int64(r.U64()))
	return finishBody(&r, "replicate request", q, v)
}

// AppendBody implements transport.BodyAppender.
func (p ReplicateResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Frames)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+1+8+8+8+4+len(p.Frames))
	dst = wire.AppendBool(append(dst, wireReplicateResponse), p.Snapshot)
	dst = appendU64(dst, p.SnapSeq)
	dst = appendU64(dst, p.SnapTerm)
	dst = appendU64(dst, p.Last)
	return wire.AppendBytes(dst, p.Frames), nil
}

// DecodeBody implements transport.BodyDecoder. Frames aliases b.
func (p *ReplicateResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireReplicateResponse)
	var v ReplicateResponse
	v.Snapshot = r.Bool()
	v.SnapSeq = r.U64()
	v.SnapTerm = r.U64()
	v.Last = r.U64()
	v.Frames = r.Bytes()
	return finishBody(&r, "replicate response", p, v)
}

// AppendBody implements transport.BodyAppender.
func (p CoordResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Pos)); err != nil {
		return dst, err
	}
	dst = appendU64(append(dst, wireCoordResponse), uint64(p.Node))
	dst = wire.AppendF64(dst, p.Height)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Pos)))
	return wire.AppendF64s(dst, p.Pos), nil
}

// DecodeBody implements transport.BodyDecoder.
func (p *CoordResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireCoordResponse)
	v := CoordResponse{Node: int(int64(r.U64())), Height: r.F64(), Pos: r.F64s(uint64(r.U32()))}
	return finishBody(&r, "coord response", p, v)
}

// AppendBody implements transport.BodyAppender.
func (p ListResponse) AppendBody(dst []byte) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(append(dst, wireListResponse), uint32(len(p.Objects)))
	for _, o := range p.Objects {
		if err := checkFieldLens(len(o)); err != nil {
			return dst, err
		}
		dst = wire.AppendString(dst, o)
	}
	return dst, nil
}

// DecodeBody implements transport.BodyDecoder. The count is bounded by
// the bytes that remain (every name takes at least its 4-byte length)
// before the slice is made.
func (p *ListResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireListResponse)
	var v ListResponse
	if n := r.Fit(uint64(r.U32()), 4); n > 0 {
		v.Objects = make([]string, n)
		for i := range v.Objects {
			v.Objects[i] = r.Str()
		}
	}
	return finishBody(&r, "list response", p, v)
}

// AppendBody implements transport.BodyAppender.
func (p StatsResponse) AppendBody(dst []byte) ([]byte, error) {
	dst = appendU64(append(dst, wireStatsResponse), uint64(p.Node))
	dst = appendU64(dst, uint64(p.Objects))
	dst = appendU64(dst, uint64(p.Bytes))
	return appendU64(dst, uint64(p.Accesses)), nil
}

// DecodeBody implements transport.BodyDecoder.
func (p *StatsResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireStatsResponse)
	v := StatsResponse{Node: int(int64(r.U64())), Objects: int(int64(r.U64())), Bytes: int64(r.U64()), Accesses: int64(r.U64())}
	return finishBody(&r, "stats response", p, v)
}

// AppendBody implements transport.BodyAppender.
func (q ExplainRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.ObjectID)); err != nil {
		return dst, err
	}
	dst = appendU64(append(dst, wireExplainRequest), uint64(q.Epoch))
	return wire.AppendString(dst, q.ObjectID), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *ExplainRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireExplainRequest)
	v := ExplainRequest{Epoch: int(int64(r.U64())), ObjectID: r.Str()}
	return finishBody(&r, "explain request", q, v)
}

// view receives a reply whose body is a view's rendered bytes, as they
// are; it aliases the per-message body.
type view []byte

// DecodeBody implements transport.BodyDecoder.
func (v *view) DecodeBody(b []byte) error { *v = b; return nil }
