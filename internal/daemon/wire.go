package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary body codec for the request/response types that cross the wire
// in steady state. Gob bodies are encoded on a fresh stream per call, so
// every get re-sent and re-compiled its type descriptors — about 30 µs
// of a 43 µs loopback call. These bodies are fixed-width instead, in the
// idiom of the ledger, replog and micros codecs: one marker byte naming
// the type, little-endian fixed fields, u32 length-prefixed strings,
// byte and float slices, and on decode every length checked against the
// bytes that remain before anything is allocated.
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
//
// Markers sit in 0x80…0xF7, which no gob stream can start with, so
// transport.Unmarshal tells the encodings apart by the first byte and a
// gob body from a gob-era peer still decodes (see transport/body.go). A
// changed layout takes a new marker. Zero-length fields decode to nil,
// as gob decodes them. Decoded byte slices alias the body: the transport
// hands every decoder a per-message buffer (TestWireAliasing pins both
// halves of that).
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

func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// wireReader consumes a body front to back. The first failed read sets
// err and every later read returns zero values, so a decoder checks
// once, in finish.
type wireReader struct {
	what string // the type being decoded, for error messages
	b    []byte
	err  error
}

// readBody checks the marker and returns a reader over the rest.
func readBody(b []byte, marker byte, what string) wireReader {
	r := wireReader{what: what}
	if len(b) == 0 || b[0] != marker {
		r.err = fmt.Errorf("bad marker (want %#x)", marker)
		return r
	}
	r.b = b[1:]
	return r
}

// take returns the next n bytes, capped so that appending to them
// cannot reach the fields behind.
func (r *wireReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("need %d bytes, %d remain", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes reads a length-prefixed field, aliasing the body; nil when empty.
func (r *wireReader) bytes() []byte {
	n := r.u32()
	if n == 0 {
		return nil
	}
	return r.take(uint64(n))
}

func (r *wireReader) str() string { return string(r.bytes()) }

// f64s reads a counted float vector; nil when empty. The count is
// checked against the remaining bytes (in take) before the vector is
// allocated.
func (r *wireReader) f64s() []float64 {
	raw := r.take(8 * uint64(r.u32()))
	if len(raw) == 0 {
		return nil
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// finish reports the first failed read, or bytes left over.
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("daemon: wire: %s: %w", r.what, r.err)
	}
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
	dst = appendF64(dst, q.Bytes)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.ClientCoord)))
	for _, x := range q.ClientCoord {
		dst = appendF64(dst, x)
	}
	return appendString(dst, q.Object), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *GetRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireGetRequest, "get request")
	var v GetRequest
	v.Client = int(int64(r.u64()))
	v.Bytes = r.f64()
	v.ClientCoord = r.f64s()
	v.Object = r.str()
	if err := r.finish(); err != nil {
		return err
	}
	*q = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (p GetResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Data)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+8+4+len(p.Data))
	dst = append(dst, wireGetResponse)
	dst = appendU64(dst, p.Version)
	return appendBytes(dst, p.Data), nil
}

// DecodeBody implements transport.BodyDecoder. Data aliases b.
func (p *GetResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireGetResponse, "get response")
	var v GetResponse
	v.Version = r.u64()
	v.Data = r.bytes()
	if err := r.finish(); err != nil {
		return err
	}
	*p = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (q PutRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.Object), len(q.Data)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+8+4+len(q.Object)+4+len(q.Data))
	dst = append(dst, wirePutRequest)
	dst = appendU64(dst, q.Version)
	dst = appendString(dst, q.Object)
	return appendBytes(dst, q.Data), nil
}

// DecodeBody implements transport.BodyDecoder. Data aliases b.
func (q *PutRequest) DecodeBody(b []byte) error {
	r := readBody(b, wirePutRequest, "put request")
	var v PutRequest
	v.Version = r.u64()
	v.Object = r.str()
	v.Data = r.bytes()
	if err := r.finish(); err != nil {
		return err
	}
	*q = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (q DeleteRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.Object)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+4+len(q.Object))
	return appendString(append(dst, wireDeleteRequest), q.Object), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *DeleteRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireDeleteRequest, "delete request")
	v := DeleteRequest{Object: r.str()}
	if err := r.finish(); err != nil {
		return err
	}
	*q = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (q DecayRequest) AppendBody(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, 1+8)
	return appendF64(append(dst, wireDecayRequest), q.Factor), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *DecayRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireDecayRequest, "decay request")
	v := DecayRequest{Factor: r.f64()}
	if err := r.finish(); err != nil {
		return err
	}
	*q = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (q MicrosRequest) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(q.Object)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+4+len(q.Object))
	return appendString(append(dst, wireMicrosRequest), q.Object), nil
}

// DecodeBody implements transport.BodyDecoder.
func (q *MicrosRequest) DecodeBody(b []byte) error {
	r := readBody(b, wireMicrosRequest, "micros request")
	v := MicrosRequest{Object: r.str()}
	if err := r.finish(); err != nil {
		return err
	}
	*q = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (p MicrosResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Encoded)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+4+len(p.Encoded))
	return appendBytes(append(dst, wireMicrosResponse), p.Encoded), nil
}

// DecodeBody implements transport.BodyDecoder. Encoded aliases b.
func (p *MicrosResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireMicrosResponse, "micros response")
	v := MicrosResponse{Encoded: r.bytes()}
	if err := r.finish(); err != nil {
		return err
	}
	*p = v
	return nil
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
	r := readBody(b, wireReplicateRequest, "replicate request")
	var v ReplicateRequest
	v.From = r.u64()
	v.Max = int(int64(r.u64()))
	if err := r.finish(); err != nil {
		return err
	}
	*q = v
	return nil
}

// AppendBody implements transport.BodyAppender.
func (p ReplicateResponse) AppendBody(dst []byte) ([]byte, error) {
	if err := checkFieldLens(len(p.Frames)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 1+1+8+8+8+4+len(p.Frames))
	var snap byte
	if p.Snapshot {
		snap = 1
	}
	dst = append(dst, wireReplicateResponse, snap)
	dst = appendU64(dst, p.SnapSeq)
	dst = appendU64(dst, p.SnapTerm)
	dst = appendU64(dst, p.Last)
	return appendBytes(dst, p.Frames), nil
}

// DecodeBody implements transport.BodyDecoder. Frames aliases b.
func (p *ReplicateResponse) DecodeBody(b []byte) error {
	r := readBody(b, wireReplicateResponse, "replicate response")
	var v ReplicateResponse
	snap := r.u8()
	if snap > 1 && r.err == nil {
		r.err = fmt.Errorf("bad snapshot flag %#x", snap)
	}
	v.Snapshot = snap == 1
	v.SnapSeq = r.u64()
	v.SnapTerm = r.u64()
	v.Last = r.u64()
	v.Frames = r.bytes()
	if err := r.finish(); err != nil {
		return err
	}
	*p = v
	return nil
}
