// Package wire is the one byte cursor and the one CRC32-C framer under
// every hand-rolled binary format in the repo: the RPC bodies (daemon),
// ledger records and segments (ledger), replication frames (replog) and
// the micros and coordinates encodings (cluster). Each of those packages
// owns its layout; this package owns the decision that keeps untrusted
// bytes safe — check a length against the bytes that remain before
// allocating, latch the first error, refuse trailing bytes — so it is
// made once. DESIGN §17 has the contract.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Reader consumes a byte slice front to back. The first failed read sets
// the error and every later read returns a zero value, so a decoder reads
// all its fields and checks once, in Finish. Errors carry the offset of
// the failed read and no package prefix: the caller wraps them with its
// own.
type Reader struct {
	b    []byte
	off  int
	err  error
	need uint64 // under errShort: the length that did not fit
}

// errShort stands for "a length does not fit in the bytes that remain"
// until Finish words it with the numbers. Take and Fit latch it without a
// call, which lets them and the fixed-width reads inline into a decoder.
var errShort = errors.New("short read")

// NewReader returns a reader at the front of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Failf latches a failure the caller found in a value it read (a bad
// marker, an unknown tag); a no-op once an error is set.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format+" at byte %d", append(args, r.off)...)
	}
}

// Take returns the next n bytes, aliasing the input and capped so that
// appending to them cannot reach the fields behind.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err, r.need = errShort, uint64(n)
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("bad bool %#x", v)
	}
	return v == 1
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Fit bounds an element count read off the wire by the bytes that remain
// (each element takes at least minBytes), so a length that lies cannot
// force a large allocation. Every make sized by the input goes through it.
func (r *Reader) Fit(n uint64, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.b)-r.off)/minBytes) {
		r.err, r.need = errShort, n
		return 0
	}
	return int(n)
}

// Count reads a uvarint element count and bounds it as Fit does.
func (r *Reader) Count(minBytes int) int { return r.Fit(r.Uvarint(), minBytes) }

// Bytes reads a u32-prefixed field, aliasing the input; nil when empty.
func (r *Reader) Bytes() []byte {
	if n := r.U32(); n != 0 {
		return r.Take(int(n))
	}
	return nil
}

// Str reads a u32-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// F64s reads n float64s into a fresh slice; nil when n is zero. n is
// checked against the bytes that remain before the slice is made.
func (r *Reader) F64s(n uint64) []float64 {
	raw := r.Take(8 * r.Fit(n, 8))
	if len(raw) == 0 {
		return nil
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// Finish reports the first failed read, or bytes left over.
func (r *Reader) Finish() error {
	if r.err == errShort { // nothing has moved since the read that failed
		r.err = fmt.Errorf("length %d exceeds the %d bytes that remain at byte %d", r.need, len(r.b)-r.off, r.off)
	} else if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendF64s appends the floats alone; the format puts its own count in
// front (Reader.F64s takes the count for the same reason).
func AppendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = AppendF64(dst, v)
	}
	return dst
}

func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends b behind its u32 length; the caller has checked
// that the length fits.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString is AppendBytes for a string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// A frame is
//
//	u32 payload length | u32 CRC32-C of the payload | payload
//
// little-endian: ledger segments are a run of them on disk, a replication
// batch a run of them on the network, so both can be checked frame by
// frame and a torn tail told from corruption.
const FrameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame reserves a frame header at the end of dst. The caller
// appends the payload behind it and then calls EndFrame with len(dst) as
// it was before BeginFrame — the frame is built in place, in the caller's
// buffer.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// EndFrame fills the header BeginFrame reserved at b[at:] for the payload
// b[at+FrameHeader:]. The caller keeps the payload under 4 GiB.
func EndFrame(b []byte, at int) {
	payload := b[at+FrameHeader:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[at+4:], crc32.Checksum(payload, castagnoli))
}

// FrameFault is why NextFrame refused the front of its input.
type FrameFault int

const (
	ShortHeader FrameFault = iota // fewer than FrameHeader bytes
	OverLimit                     // the length field exceeds the caller's limit
	Torn                          // the payload stops short of its length
	BadCRC                        // the payload does not match its checksum
)

// FrameError is the error NextFrame returns. Len is the frame's length
// field, zero under ShortHeader.
type FrameError struct {
	Fault FrameFault
	Len   uint32
	msg   string
}

func (e *FrameError) Error() string { return e.msg }

// NextFrame checks the frame at the front of b and returns its payload
// (aliasing b) and the bytes behind it. The length field is compared with
// maxPayload before anything else trusts it. A non-nil error is a
// *FrameError.
func NextFrame(b []byte, maxPayload int) (payload, rest []byte, err error) {
	if len(b) < FrameHeader {
		return nil, nil, &FrameError{ShortHeader, 0, fmt.Sprintf("short frame header (%d bytes)", len(b))}
	}
	n, want := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	if uint64(n) > uint64(maxPayload) {
		return nil, nil, &FrameError{OverLimit, n, fmt.Sprintf("frame length %d exceeds limit %d", n, maxPayload)}
	}
	end := FrameHeader + int(n)
	if len(b) < end {
		return nil, nil, &FrameError{Torn, n, fmt.Sprintf("torn frame (%d of %d bytes)", len(b), end)}
	}
	payload = b[FrameHeader:end:end]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, nil, &FrameError{BadCRC, n, fmt.Sprintf("frame CRC mismatch (got %08x want %08x)", got, want)}
	}
	return payload, b[end:], nil
}
