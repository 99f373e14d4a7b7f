package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/trace"
)

// memConn is the byte stream under a wire in the codec tests: what is
// written can be read back, and reading past it is EOF.
type memConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *memConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *memConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }

func wireOver(b []byte) (*wire, *memConn) {
	conn := &memConn{}
	conn.buf.Write(b)
	w := newWire(conn)
	w.out = make([]byte, headroom, 2*headroom)
	return w, conn
}

func encodeRequestFrame(r request) ([]byte, error) {
	w, conn := wireOver(nil)
	err := w.writeRequest(append(make([]byte, headroom), r.Body...), &r)
	return conn.buf.Bytes(), err
}

func encodeResponseFrame(r response) ([]byte, error) {
	w, conn := wireOver(nil)
	err := w.writeResponse(&r)
	return conn.buf.Bytes(), err
}

func decodeRequestFrame(b []byte) (request, error) {
	w, _ := wireOver(b)
	var r request
	method, err := w.readRequest(&r)
	r.Method = string(method)
	return r, err
}

func decodeResponseFrame(b []byte) (response, error) {
	w, _ := wireOver(b)
	var r response
	err := w.readResponse(&r)
	return r, err
}

func sameRequest(a, b request) bool {
	return a.ID == b.ID && a.Method == b.Method && a.TraceID == b.TraceID &&
		a.SpanID == b.SpanID && a.ParentID == b.ParentID && bytes.Equal(a.Body, b.Body)
}

func sameResponse(a, b response) bool {
	return a.ID == b.ID && a.Err == b.Err && a.TraceID == b.TraceID &&
		a.SpanID == b.SpanID && bytes.Equal(a.Body, b.Body)
}

func TestFrameRoundTrip(t *testing.T) {
	id255 := strings.Repeat("t", 255)
	mib := bytes.Repeat([]byte{0xAB}, 1<<20)
	requests := map[string]request{
		"zero":         {},
		"empty method": {ID: 1, Body: []byte("b")},
		"empty body":   {ID: 2, Method: "ping"},
		"plain":        {ID: 3, Method: "get", Body: []byte{0x81, 1, 2, 3}},
		"traced":       {ID: 1<<64 - 1, Method: "get", Body: []byte("x"), TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331", ParentID: "00f067aa0ba902b7"},
		"1 MiB body":   {ID: 4, Method: "put", Body: mib},
		"255-byte ids": {ID: 5, Method: id255, TraceID: id255, SpanID: id255, ParentID: id255, Body: []byte("y")},
		"marker body":  {ID: 6, Method: "m", Body: []byte{frameRequest, frameReply, frameError}},
	}
	for name, want := range requests {
		b, err := encodeRequestFrame(want)
		if err != nil {
			t.Errorf("request %s: encode: %v", name, err)
			continue
		}
		if b[0] != frameRequest {
			t.Errorf("request %s: starts with %#x", name, b[0])
		}
		if n := binary.LittleEndian.Uint32(b[1:]); int(n) != len(b)-frameHead {
			t.Errorf("request %s: length field %d in a %d-byte frame", name, n, len(b))
		}
		got, err := decodeRequestFrame(b)
		if err != nil || !sameRequest(got, want) {
			t.Errorf("request %s: round trip = %+v, %v", name, got, err)
		}
	}
	responses := map[string]response{
		"zero":         {},
		"body":         {ID: 1, Body: []byte("ok")},
		"traced":       {ID: 2, Body: []byte("ok"), TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "1f2e3d4c5b6a7988"},
		"1 MiB body":   {ID: 3, Body: mib},
		"255-byte ids": {ID: 4, TraceID: id255, SpanID: id255, Body: []byte("z")},
		"error":        {ID: 5, Err: "kaboom", TraceID: "aa", SpanID: "bb"},
		"1-byte error": {ID: 6, Err: "e"},
		"64 KiB error": {ID: 7, Err: strings.Repeat("E", 64<<10)},
	}
	for name, want := range responses {
		b, err := encodeResponseFrame(want)
		if err != nil {
			t.Errorf("response %s: encode: %v", name, err)
			continue
		}
		wantMarker := byte(frameReply)
		if want.Err != "" {
			wantMarker = frameError
		}
		if b[0] != wantMarker {
			t.Errorf("response %s: marker %#x, want %#x", name, b[0], wantMarker)
		}
		got, err := decodeResponseFrame(b)
		if err != nil || !sameResponse(got, want) {
			t.Errorf("response %s: round trip = %.80v, %v", name, got, err)
		}
	}
}

// TestFrameEncodeRejects: a string that does not fit its length byte is
// refused before anything is written.
func TestFrameEncodeRejects(t *testing.T) {
	long := strings.Repeat("x", 256)
	for name, r := range map[string]request{
		"method": {Method: long},
		"trace":  {Method: "m", TraceID: long},
		"span":   {Method: "m", SpanID: long},
		"parent": {Method: "m", ParentID: long},
	} {
		if b, err := encodeRequestFrame(r); err == nil || len(b) != 0 {
			t.Errorf("a 256-byte %s encoded: %d bytes, %v", name, len(b), err)
		}
	}
	for name, r := range map[string]response{
		"trace": {TraceID: long},
		"span":  {SpanID: long, Err: "e"},
	} {
		if b, err := encodeResponseFrame(r); err == nil || len(b) != 0 {
			t.Errorf("a 256-byte response %s encoded: %d bytes, %v", name, len(b), err)
		}
	}
}

// TestIDLimitRefusedBeforeSend: a method or trace id over 255 bytes is
// refused with errFrameSize before anything is sent, on a fresh
// connection and on one that has carried calls, and the connection stays
// usable; 255 bytes pass.
func TestIDLimitRefusedBeforeSend(t *testing.T) {
	reg, creg := metrics.NewRegistry(), metrics.NewRegistry()
	srv := startEchoServer(t, WithMetrics(reg))
	_, tr := testTracer("cli")
	c, err := Dial(srv.Addr().String(), time.Second, WithCallTimeout(time.Second), WithClientTracer(tr), WithClientMetrics(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tracedWith := func(n int) context.Context {
		return trace.NewContext(context.Background(), trace.SpanContext{TraceID: strings.Repeat("a", n), SpanID: "01"})
	}
	refused := func(when string) {
		t.Helper()
		if _, err := c.Call(strings.Repeat("m", 256), raw("x"), nil); !errors.Is(err, errFrameSize) {
			t.Fatalf("%s: 256-byte method = %v, want errFrameSize", when, err)
		}
		if _, err := c.CallContext(tracedWith(256), "echo", raw("x"), nil); !errors.Is(err, errFrameSize) {
			t.Fatalf("%s: 256-byte trace id = %v, want errFrameSize", when, err)
		}
	}

	refused("fresh connection")
	wantServed(t, reg, 0, "refused calls")
	var out raw
	if _, err := c.CallContext(tracedWith(255), "echo", raw("first"), &out); err != nil || string(out) != "first" {
		t.Fatalf("255-byte trace id on a fresh connection: %q, %v", out, err)
	}
	refused("used connection")
	if _, err := c.CallContext(tracedWith(255), "echo", raw("second"), &out); err != nil || string(out) != "second" {
		t.Fatalf("255-byte trace id after refusals: %q, %v", out, err)
	}
	wantServed(t, reg, 2, "two calls sent")
	if got := creg.Snapshot().Counters["transport_client_redials_total"]; got != 0 {
		t.Fatalf("the refusals broke the connection: %d redials", got)
	}
}

// TestFrameRejectsMalformed: every proper prefix of a frame, a wrong
// marker, an inner length that overruns the frame, and a short frame
// behind a good one all fail, and none panics.
func TestFrameRejectsMalformed(t *testing.T) {
	req, err := encodeRequestFrame(request{ID: 9, Method: "echo", Body: []byte("payload"), TraceID: "tt", SpanID: "ss", ParentID: "pp"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := encodeResponseFrame(response{ID: 9, Body: []byte("payload"), TraceID: "tt", SpanID: "ss"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(req); i++ {
		if _, err := decodeRequestFrame(req[:i]); err == nil {
			t.Errorf("request cut to %d of %d bytes decoded", i, len(req))
		}
	}
	for i := 0; i < len(resp); i++ {
		if _, err := decodeResponseFrame(resp[:i]); err == nil {
			t.Errorf("response cut to %d of %d bytes decoded", i, len(resp))
		}
	}

	with := func(b []byte, at int, v byte) []byte {
		c := bytes.Clone(b)
		c[at] = v
		return c
	}
	for _, m := range []byte{0x00, 0x7F, 0x80, 0xEF, frameReply, frameError, 0xF3, 0xF7, 0xF8, 0xFF} {
		if _, err := decodeRequestFrame(with(req, 0, m)); err == nil {
			t.Errorf("request with marker %#x decoded", m)
		}
	}
	for _, m := range []byte{0x00, 0x7F, 0x80, 0xEF, frameRequest, 0xF3, 0xF7, 0xF8, 0xFF} {
		if _, err := decodeResponseFrame(with(resp, 0, m)); err == nil {
			t.Errorf("response with marker %#x decoded", m)
		}
	}
	// The method's length byte claims the rest of the frame and more.
	if _, err := decodeRequestFrame(with(req, frameHead, 0xFF)); !errors.Is(err, errFrame) {
		t.Errorf("overrunning method length: %v", err)
	}
	// The last string's length byte sits on the frame's final byte.
	tight, _ := encodeRequestFrame(request{ID: 1, Method: "m"})
	if _, err := decodeRequestFrame(with(tight, len(tight)-1, 1)); !errors.Is(err, errFrame) {
		t.Errorf("parent length past the end: %v", err)
	}
	// A length field one short cuts the parent string's length byte off.
	short := bytes.Clone(tight)
	binary.LittleEndian.PutUint32(short[1:], uint32(len(tight)-frameHead-1))
	if _, err := decodeRequestFrame(short); !errors.Is(err, errFrame) {
		t.Errorf("frame without room for four strings: %v", err)
	}

	// A good frame, then a short one: the first decodes, the second fails.
	w, _ := wireOver(append(bytes.Clone(req), req[:len(req)-3]...))
	var first, second request
	if _, err := w.readRequest(&first); err != nil || string(first.Body) != "payload" {
		t.Fatalf("frame before a short one: %+v, %v", first, err)
	}
	if _, err := w.readRequest(&second); err == nil {
		t.Fatal("a trailing short frame decoded")
	}
}

// TestFrameLengthLies is TestWireLengthLies for the envelope: lengths
// that claim up to 4 GiB are refused outright above the limit and starve
// below it, and none is given the memory it claims.
func TestFrameLengthLies(t *testing.T) {
	lies := []uint32{1 << 17, 1<<20 + 1, 1 << 24, 1 << 28, 1<<30 - 1, 1 << 30, 1<<30 + 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
	for _, marker := range []byte{frameRequest, frameReply} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, n := range lies {
			b := []byte{marker}
			b = binary.LittleEndian.AppendUint32(b, n)
			b = binary.LittleEndian.AppendUint64(b, 7)
			b = append(b, make([]byte, 100)...) // what actually arrives
			var err error
			if marker == frameRequest {
				_, err = decodeRequestFrame(b)
			} else {
				_, err = decodeResponseFrame(b)
			}
			if err == nil {
				t.Errorf("a frame claiming %d bytes decoded", n)
			}
			if n > maxFrame && !errors.Is(err, errFrame) {
				t.Errorf("a frame claiming %d bytes was read, not refused: %v", n, err)
			}
		}
		runtime.ReadMemStats(&after)
		// Each decode also pays for its bufio reader.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("marker %#x: rejecting %d lying frames allocated %d bytes", marker, len(lies), grew)
		}
	}
}

// FuzzEnvelopeFrame: decoding arbitrary bytes as either frame never
// panics, and what does decode survives encode∘decode unchanged —
// byte for byte for a request, whose encoding is canonical.
func FuzzEnvelopeFrame(f *testing.F) {
	for _, r := range []request{
		{},
		{ID: 1, Method: "echo", Body: []byte("hi")},
		{ID: 2, Method: "get", Body: []byte{0x81, 0, 0}, TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331", ParentID: "00f067aa0ba902b7"},
	} {
		b, err := encodeRequestFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(bytes.Clone(b), b...))
	}
	for _, r := range []response{
		{},
		{ID: 1, Body: []byte("ok")},
		{ID: 2, Err: "kaboom", TraceID: "aa", SpanID: "bb"},
	} {
		b, err := encodeResponseFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{frameRequest, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{frameError, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("garbage over TCP"))

	f.Fuzz(func(t *testing.T, in []byte) {
		if req, err := decodeRequestFrame(in); err == nil {
			b, err := encodeRequestFrame(req)
			if err != nil {
				t.Fatalf("decoded request %+v does not encode: %v", req, err)
			}
			if !bytes.HasPrefix(in, b) {
				t.Fatalf("request re-encodes to %x, input %x", b, in)
			}
			if back, err := decodeRequestFrame(b); err != nil || !sameRequest(back, req) {
				t.Fatalf("request %+v came back as %+v, %v", req, back, err)
			}
		}
		if resp, err := decodeResponseFrame(in); err == nil {
			b, err := encodeResponseFrame(resp)
			if err != nil {
				t.Fatalf("decoded response %+v does not encode: %v", resp, err)
			}
			if back, err := decodeResponseFrame(b); err != nil || !sameResponse(back, resp) {
				t.Fatalf("response %+v came back as %+v, %v", resp, back, err)
			}
		}
	})
}
