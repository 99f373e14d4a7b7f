package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// FuzzTransportFrame throws truncated, oversized and garbage envelopes
// at both ends of the wire protocol (mirroring internal/cluster's decoder
// fuzz): a hostile peer must never panic, wedge, or kill a Server, a
// message that does not start with the request marker must get no reply,
// and a Client fed an arbitrary byte stream as its response must fail
// cleanly and quickly. FuzzEnvelopeFrame checks the codec's round trip
// in memory; this target checks the live connection around it.
func FuzzTransportFrame(f *testing.F) {
	frame := func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := frame(encodeRequestFrame(request{ID: 1, Method: "echo", Body: []byte("hi")}))
	f.Add(good)
	f.Add(good[:len(good)/2])                                                // truncated mid-frame
	f.Add([]byte{})                                                          // empty
	f.Add([]byte("garbage over TCP"))                                        // no marker at all
	f.Add(bytes.Repeat(good, 3))                                             // several frames back to back
	f.Add(append([]byte{frameRequest, 0xff, 0xff, 0xff, 0x3f}, good[5:]...)) // a length that lies
	// A 300-byte method written with its length byte wrapped to 44: the
	// reader takes the rest of the string as the following fields.
	long := []byte{frameRequest, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 300 % 256}
	long = append(append(long, bytes.Repeat([]byte("m"), 300)...), 0, 0, 0)
	binary.LittleEndian.PutUint32(long[1:], uint32(len(long)-frameHead))
	f.Add(long)
	f.Add(frame(encodeResponseFrame(response{ID: 1, Body: []byte("ok")}))) // a reply, sent to both ends

	// Frames carrying trace propagation fields, well-formed and truncated,
	// so the fuzzer explores the whole head.
	traced := frame(encodeRequestFrame(request{
		ID: 2, Method: "echo", Body: []byte("hi"),
		TraceID:  "0af7651916cd43dd8448eb211c80319c",
		SpanID:   "b7ad6b7169203331",
		ParentID: "00f067aa0ba902b7",
	}))
	f.Add(traced)
	f.Add(traced[:len(traced)*2/3]) // truncated inside the trace fields
	f.Add(frame(encodeResponseFrame(response{
		ID: 2, Body: []byte("ok"),
		TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "1f2e3d4c5b6a7988",
	})))
	// The envelope of a gob-era peer: dropped on its first byte.
	var gobEnv bytes.Buffer
	if err := gob.NewEncoder(&gobEnv).Encode(request{ID: 1, Method: "echo", Body: []byte("hi")}); err != nil {
		f.Fatal(err)
	}
	f.Add(gobEnv.Bytes())

	// One shared server outlives all fuzz executions; if any input
	// wedges or kills it, the subsequent well-formed call fails.
	srv := NewServer()
	if err := srv.HandleTimed("echo", func(b []byte) ([]byte, error) { return b, nil }, nil); err != nil {
		f.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		f.Fatal(err)
	}
	go srv.Serve()
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	f.Fuzz(func(t *testing.T, in []byte) {
		// Server under attack: write the raw bytes, close, then prove
		// the server still answers a well-formed request.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		_, _ = conn.Write(in)
		conn.(*net.TCPConn).CloseWrite()
		// The server closes or resets the connection; only a deadline
		// means it held on.
		reply, err := io.ReadAll(conn)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("server held the connection after %q", in)
		}
		if len(in) > 0 && in[0] != frameRequest && len(reply) > 0 {
			t.Fatalf("server answered %q with %q", in, reply)
		}
		conn.Close()

		c, err := Dial(addr, 2*time.Second, WithCallTimeout(2*time.Second))
		if err != nil {
			t.Fatalf("dial after garbage: %v", err)
		}
		var out raw
		if _, err := c.Call("echo", raw("probe"), &out); err != nil {
			t.Fatalf("server wedged by %q: %v", in, err)
		}
		c.Close()

		// Client under attack: a fake server answers the first request
		// with the fuzz bytes and closes. The call must return promptly
		// without panicking, and the client must remain closable.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			// Consume the request frame bytes (best effort), then reply
			// with the fuzz payload and hang up.
			_, _ = conn.Read(make([]byte, 4096))
			_, _ = conn.Write(in)
			conn.Close()
		}()
		vc, err := Dial(ln.Addr().String(), 2*time.Second, WithCallTimeout(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			var resp raw
			_, _ = vc.Call("echo", raw("probe"), &resp) // any outcome but a hang is fine
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("client hung on response bytes %q", in)
		}
		vc.Close()
	})
}
