package replog

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/georep/georep/internal/wire"
)

// Wire framing for replication log entries. Every entry travels in one
// wire frame ([4B LE length][4B LE CRC32-C over the payload][payload],
// the decision ledger's discipline — DESIGN §17), so a catch-up stream
// can be validated frame by frame and a torn tail is detectable. The
// payload is the fixed v1 entry encoding:
//
//	u64 Seq | u64 Term | i32 Client | i32 Object | f64 Bytes
const (
	entryPayloadLen = 32
	// FrameLen is the on-wire size of one encoded entry frame.
	FrameLen = wire.FrameHeader + entryPayloadLen
)

// AppendFrame appends e's CRC-framed encoding to dst and returns the
// extended slice.
func AppendFrame(dst []byte, e Entry) []byte {
	at := len(dst)
	dst = wire.BeginFrame(dst)
	dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, e.Term)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Client))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Object))
	dst = wire.AppendF64(dst, e.Bytes)
	wire.EndFrame(dst, at)
	return dst
}

// DecodeFrame decodes one framed entry from the front of b, returning
// the entry and the remaining bytes. A short, corrupt, or mis-sized
// frame is an error.
func DecodeFrame(b []byte) (Entry, []byte, error) {
	payload, rest, err := wire.NextFrame(b, entryPayloadLen)
	if err != nil {
		return Entry{}, nil, fmt.Errorf("replog: %w", err)
	}
	if len(payload) != entryPayloadLen {
		return Entry{}, nil, fmt.Errorf("replog: bad frame length %d (want %d)", len(payload), entryPayloadLen)
	}
	// The payload is fixed-width and its length was just checked: read the
	// fields where they lie.
	var e Entry
	e.Seq = binary.LittleEndian.Uint64(payload)
	e.Term = binary.LittleEndian.Uint64(payload[8:])
	e.Client = int32(binary.LittleEndian.Uint32(payload[16:]))
	e.Object = int32(binary.LittleEndian.Uint32(payload[20:]))
	e.Bytes = math.Float64frombits(binary.LittleEndian.Uint64(payload[24:]))
	return e, rest, nil
}

// EncodeBatch frames every entry into a single contiguous buffer — the
// unit a replication round actually ships to one follower.
func EncodeBatch(entries []Entry) []byte {
	out := make([]byte, 0, len(entries)*FrameLen)
	for _, e := range entries {
		out = AppendFrame(out, e)
	}
	return out
}

// DecodeBatch decodes a buffer of concatenated frames.
func DecodeBatch(b []byte) ([]Entry, error) {
	var out []Entry
	for len(b) > 0 {
		e, rest, err := DecodeFrame(b)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		b = rest
	}
	return out, nil
}
