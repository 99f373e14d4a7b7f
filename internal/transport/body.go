package transport

import (
	"bytes"
	"encoding/gob"
)

// Request and response bodies travel in one of two encodings. Types that
// cross the wire in steady state carry a hand-rolled binary codec and
// implement BodyAppender (on the value) and BodyDecoder (on the
// pointer); every other type is gob-encoded on a fresh stream, which
// re-sends and re-compiles its type descriptors on every call. A type
// decides its encoding on both ends: a body for a BodyDecoder is decoded
// by it and by nothing else, so a gob body sent for a binary type is
// refused by the type's own decoder.

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

// Marshal encodes a value for use as a request or response body: in the
// binary encoding when v implements BodyAppender, in gob otherwise.
func Marshal(v any) ([]byte, error) {
	if a, ok := v.(BodyAppender); ok {
		return a.AppendBody(nil)
	}
	return gobEncode(v)
}

// Unmarshal decodes a body produced by Marshal: with v's DecodeBody when
// v implements BodyDecoder, in gob otherwise.
func Unmarshal(b []byte, v any) error {
	if d, ok := v.(BodyDecoder); ok {
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
