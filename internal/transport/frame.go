package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// The envelope every connection carries from its first byte: one
// little-endian layout for all three kinds,
//
//	marker | u32 n | u64 id | method | trace | span | parent | payload
//
// where n counts the bytes after the id and each of the four strings is a
// length byte and that many bytes (a reply leaves method and parent
// empty). The payload is the body, or for frameError the error text. A
// message that does not start with a marker of its kind is malformed and
// ends the connection; a gob envelope, which starts with a byte below
// 0x80 or of 0xF8 and above, is refused on its first byte.
const (
	frameRequest = 0xF0
	frameReply   = 0xF1
	frameError   = 0xF2
	frameHead    = 1 + 4 + 8
	maxFrame     = 1 << 30  // n above this is refused
	readChunk    = 64 << 10 // memory a frame gets ahead of its bytes arriving
	// maxFrameStr is what a string's one length byte can say.
	maxFrameStr = 255
	// headroom is the largest head. A payload is appended behind this much
	// room and the head written backwards from it: one buffer, one Write.
	headroom = frameHead + 4*(1+maxFrameStr)
)

var (
	errFrame     = errors.New("transport: malformed frame")
	errFrameSize = errors.New("transport: method or trace id over 255 bytes, or frame over 1 GiB")
)

// wire is one connection and its buffered reader.
type wire struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte // server side: headroom, then the reply being sent
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, br: bufio.NewReader(conn)}
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
// strs and payload alias (see BodyDecoder). A reply reads frameReply or
// frameError, a request frameRequest; any other first byte fails before
// the rest of the head is waited for. The buffer grows as bytes arrive: a
// length that lies costs one chunk, not n.
func (w *wire) readFrame(reply bool) (marker byte, id uint64, strs [4][]byte, payload []byte, err error) {
	first, err := w.br.Peek(1)
	if err != nil {
		return 0, 0, strs, nil, err
	}
	ok := first[0] == frameRequest
	if reply {
		ok = first[0] == frameReply || first[0] == frameError
	}
	if !ok {
		return 0, 0, strs, nil, fmt.Errorf("%w: first byte %#x", errFrame, first[0])
	}
	h, err := w.br.Peek(frameHead)
	if err != nil {
		return 0, 0, strs, nil, err
	}
	marker, n32, id := h[0], binary.LittleEndian.Uint32(h[1:]), binary.LittleEndian.Uint64(h[5:])
	if n32 > maxFrame {
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

// writeRequest sends r, its body behind the headroom of buf.
func (w *wire) writeRequest(buf []byte, r *request) error {
	return w.writeFrame(buf, frameRequest, r.ID, [4]string{r.Method, r.TraceID, r.SpanID, r.ParentID})
}

// readResponse reads a reply or an error reply.
func (w *wire) readResponse(r *response) error {
	marker, id, s, body, err := w.readFrame(true)
	r.ID, r.TraceID, r.SpanID, r.Body = id, string(s[1]), string(s[2]), body
	if marker == frameError {
		r.Err, r.Body = string(body), nil
	}
	return err
}

// readRequest reads a request. Its method comes back as bytes, r.Method
// left for the caller.
func (w *wire) readRequest(r *request) (method []byte, err error) {
	_, id, s, body, err := w.readFrame(false)
	r.ID, r.TraceID, r.SpanID, r.ParentID, r.Body = id, string(s[1]), string(s[2]), string(s[3]), body
	return s[0], err
}

// writeResponse sends r as a reply, or as an error reply when r.Err is
// set.
func (w *wire) writeResponse(r *response) error {
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
