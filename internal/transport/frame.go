package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
)

// The fixed-width envelope an upgraded connection carries instead of the
// gob request/response: one little-endian layout for all three kinds,
//
//	marker | u32 n | u64 id | method | trace | span | parent | payload
//
// where n counts the bytes after the id and each of the four strings is a
// length byte and that many bytes (a reply leaves method and parent
// empty). The payload is the body, or for frameError the error text. The
// markers sit in the range no gob message can begin with (body.go), so a
// server tells the framing of each message by its first byte and answers
// in kind; a client sends frames on a connection only after a gob reply
// on it carried response.Frames.
const (
	frameRequest = 0xF0
	frameReply   = 0xF1
	frameError   = 0xF2
	frameHead    = 1 + 4 + 8
	maxFrame     = 1 << 30  // n above this is refused, as gob refuses it
	readChunk    = 64 << 10 // memory a frame gets ahead of its bytes arriving
	// maxFrameStr is what a string's one length byte can say; the client
	// applies it to gob calls too (CallContext), so both framings refuse
	// the same calls.
	maxFrameStr = 255
	// headroom is the largest head. A payload is appended behind this much
	// room and the head written backwards from it: one buffer, one Write.
	headroom = frameHead + 4*(1+maxFrameStr)
)

var (
	errFrame     = errors.New("transport: malformed frame")
	errFrameSize = errors.New("transport: method or trace id over 255 bytes, or frame over 1 GiB")
)

// wire is one connection and its codecs. The gob decoder shares the
// buffered reader (from a ByteReader it takes one message at a time and
// no more), so both framings can alternate on one stream.
type wire struct {
	conn   net.Conn
	br     *bufio.Reader
	enc    *gob.Encoder
	dec    *gob.Decoder
	framed bool   // client side: the server proved it reads frames
	out    []byte // server side: headroom, then the reply being sent
}

func newWire(conn net.Conn) *wire {
	br := bufio.NewReader(conn)
	return &wire{conn: conn, br: br, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(br)}
}

// writeFrame writes the head into the headroom in front of the payload,
// which starts at buf[headroom], and sends both.
func (w *wire) writeFrame(buf []byte, marker byte, id uint64, strs [4]string) error {
	n := len(buf) - headroom
	for _, s := range strs {
		if len(s) > maxFrameStr {
			return errFrameSize
		}
		n += 1 + len(s)
	}
	if n > maxFrame {
		return errFrameSize
	}
	off := len(buf) - n - frameHead
	h := append(buf[off:off], marker)
	h = binary.LittleEndian.AppendUint32(h, uint32(n))
	h = binary.LittleEndian.AppendUint64(h, id)
	for _, s := range strs {
		h = append(append(h, byte(len(s))), s...)
	}
	_, err := w.conn.Write(buf[off:])
	return err
}

// readFrame reads the frame at the next byte into a fresh buffer, which
// strs and payload alias (see BodyDecoder). The buffer grows as bytes
// arrive: a length that lies costs one chunk, not n.
func (w *wire) readFrame() (marker byte, id uint64, strs [4][]byte, payload []byte, err error) {
	h, err := w.br.Peek(frameHead)
	if err != nil {
		return 0, 0, strs, nil, err
	}
	marker, n32, id := h[0], binary.LittleEndian.Uint32(h[1:]), binary.LittleEndian.Uint64(h[5:])
	if marker < frameRequest || marker > frameError || n32 > maxFrame {
		return 0, 0, strs, nil, errFrame
	}
	w.br.Discard(frameHead)
	n := int(n32)
	p := make([]byte, min(n, readChunk))
	for got := 0; ; p = append(p, make([]byte, min(n-got, got))...) {
		if _, err := io.ReadFull(w.br, p[got:]); err != nil {
			return 0, 0, strs, nil, err
		}
		if got = len(p); got == n {
			break
		}
	}
	for i := range strs {
		if len(p) == 0 || len(p) <= int(p[0]) {
			return 0, 0, strs, nil, errFrame
		}
		l := 1 + int(p[0])
		strs[i], p = p[1:l:l], p[l:]
	}
	return marker, id, strs, p, nil
}

// writeRequest sends r, its body behind the headroom of buf, in the
// connection's framing.
func (w *wire) writeRequest(buf []byte, r *request) error {
	if !w.framed {
		return w.enc.Encode(*r)
	}
	return w.writeFrame(buf, frameRequest, r.ID, [4]string{r.Method, r.TraceID, r.SpanID, r.ParentID})
}

// readResponse reads the reply in the framing its request left in. A gob
// reply with the capability bit switches the connection to frames.
func (w *wire) readResponse(r *response) error {
	if !w.framed {
		var g response // gob makes its target escape; r stays on the caller's stack
		err := w.dec.Decode(&g)
		*r, w.framed = g, err == nil && g.Frames
		return err
	}
	marker, id, s, body, err := w.readFrame()
	if err == nil && marker == frameRequest {
		err = errFrame
	}
	r.ID, r.TraceID, r.SpanID, r.Body = id, string(s[1]), string(s[2]), body
	if marker == frameError {
		r.Err, r.Body = string(body), nil
	}
	return err
}

// readRequest reads a request in the framing its first byte announces. A
// framed method comes back as bytes, r.Method left for the caller.
func (w *wire) readRequest(r *request) (method []byte, framed bool, err error) {
	if first, err := w.br.Peek(1); err != nil || first[0] != frameRequest {
		var g request // as in readResponse
		if err == nil {
			err = w.dec.Decode(&g)
		}
		*r = g
		return nil, false, err
	}
	_, id, s, body, err := w.readFrame()
	r.ID, r.TraceID, r.SpanID, r.ParentID, r.Body = id, string(s[1]), string(s[2]), string(s[3]), body
	return s[0], true, err
}

// writeResponse answers in the framing the request arrived in.
func (w *wire) writeResponse(framed bool, r *response) error {
	if !framed {
		return w.enc.Encode(*r)
	}
	buf, marker := w.out[:headroom], byte(frameReply)
	if r.Err != "" {
		buf, marker = append(buf, r.Err...), frameError
	} else {
		buf = append(buf, r.Body...)
	}
	if cap(buf) <= maxKeptReqBuf {
		w.out = buf
	}
	return w.writeFrame(buf, marker, r.ID, [4]string{1: r.TraceID, 2: r.SpanID})
}
