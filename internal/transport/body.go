package transport

import (
	"bytes"
	"encoding/gob"
)

// Request and response bodies travel in one of two encodings. Types that
// cross the wire in steady state carry a hand-rolled binary codec and
// implement BodyAppender (on the value) and BodyDecoder (on the
// pointer); every other type is gob-encoded on a fresh stream, which
// re-sends and re-compiles its type descriptors on every call.
//
// A binary body starts with one marker byte in 0x80…0xF7. A gob stream
// starts with a message length — a single byte below 0x80, or a negated
// byte count of 0xF8 and above followed by that many length bytes — so a
// marker can never begin a gob body and Unmarshal tells the two apart by
// the first byte alone. There is no negotiation: a node decodes whatever
// arrives and answers in the encoding the request came in
// (MarshalReply), so gob-era clients keep working against upgraded
// nodes.
const (
	binaryMarkerMin = 0x80
	binaryMarkerMax = 0xF7
)

// BodyAppender is implemented by values that encode themselves in the
// binary body encoding: AppendBody appends the encoding, marker byte
// first, to dst and returns the extended slice.
type BodyAppender interface {
	AppendBody(dst []byte) ([]byte, error)
}

// BodyDecoder is implemented by pointers that decode a binary body. The
// decoded value may alias b; every body the transport hands to a decoder
// is a per-message buffer that nothing else writes to.
type BodyDecoder interface {
	DecodeBody(b []byte) error
}

// IsBinaryBody reports whether b is in the binary body encoding. An
// empty body is not: it is what a gob-era caller sends for "no request".
func IsBinaryBody(b []byte) bool {
	return len(b) > 0 && b[0] >= binaryMarkerMin && b[0] <= binaryMarkerMax
}

// Marshal encodes a value for use as a request or response body: in the
// binary encoding when v implements BodyAppender, in gob otherwise.
func Marshal(v any) ([]byte, error) {
	if a, ok := v.(BodyAppender); ok {
		return a.AppendBody(nil)
	}
	return gobEncode(v)
}

// MarshalReply encodes a response body in the encoding its request
// arrived in, so a gob-era caller gets the gob reply it can decode.
func MarshalReply(reqBody []byte, v any) ([]byte, error) {
	if !IsBinaryBody(reqBody) {
		return gobEncode(v)
	}
	return Marshal(v)
}

// Unmarshal decodes a body produced by Marshal or MarshalReply, in
// whichever encoding it is in.
func Unmarshal(b []byte, v any) error {
	if d, ok := v.(BodyDecoder); ok && IsBinaryBody(b) {
		return d.DecodeBody(b)
	}
	return gobDecode(b, v)
}

func gobEncode(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
