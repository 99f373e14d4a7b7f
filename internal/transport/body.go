package transport

// Every request and response body is encoded by its own type: the value
// implements BodyAppender, the pointer BodyDecoder, and the transport
// carries the bytes between them. A type decides its encoding on both
// ends, so a body meant for another type is refused by the decoder that
// receives it.

// BodyAppender is implemented by values that encode themselves as a
// body: AppendBody appends the encoding to dst and returns the extended
// slice.
type BodyAppender interface {
	AppendBody(dst []byte) ([]byte, error)
}

// BodyDecoder is implemented by pointers that decode a body. The decoded
// value may alias b; every body the transport hands to a decoder is a
// per-message buffer that nothing else writes to.
type BodyDecoder interface {
	DecodeBody(b []byte) error
}

// Marshal encodes v as a request or response body; a nil v is the empty
// body.
func Marshal(v BodyAppender) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	return v.AppendBody(nil)
}

// Unmarshal decodes a body produced by Marshal with v's DecodeBody.
func Unmarshal(b []byte, v BodyDecoder) error { return v.DecodeBody(b) }
