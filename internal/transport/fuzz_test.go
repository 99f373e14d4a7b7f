package transport

import (
	"bytes"
	"encoding/gob"
	"net"
	"testing"
	"time"
)

// FuzzTransportFrame throws truncated/oversized/garbage gob frames at
// both ends of the wire protocol (mirroring internal/cluster's decoder
// fuzz): a hostile peer must never panic, wedge, or kill a Server, and
// a Client fed an arbitrary byte stream as its response must fail
// cleanly and quickly.
func FuzzTransportFrame(f *testing.F) {
	// Seed with a well-formed request frame plus classic malformations.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(request{ID: 1, Method: "echo", Body: []byte("hi")}); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])                   // truncated mid-frame
	f.Add([]byte{})                             // empty
	f.Add([]byte("garbage over TCP"))           // not gob at all
	f.Add(bytes.Repeat(good, 3))                // several frames back to back
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd length prefix
	var respBuf bytes.Buffer
	if err := gob.NewEncoder(&respBuf).Encode(response{ID: 1, Body: []byte("ok")}); err != nil {
		f.Fatal(err)
	}
	f.Add(respBuf.Bytes()) // valid response frame (sent to both ends)

	// Extended frames carrying trace propagation fields, well-formed and
	// truncated, so the fuzzer explores the wider wire format too.
	var tracedBuf bytes.Buffer
	if err := gob.NewEncoder(&tracedBuf).Encode(request{
		ID: 2, Method: "echo", Body: []byte("hi"),
		TraceID:  "0af7651916cd43dd8448eb211c80319c",
		SpanID:   "b7ad6b7169203331",
		ParentID: "00f067aa0ba902b7",
	}); err != nil {
		f.Fatal(err)
	}
	traced := tracedBuf.Bytes()
	f.Add(traced)
	f.Add(traced[:len(traced)*2/3]) // truncated inside the trace fields
	var tracedResp bytes.Buffer
	if err := gob.NewEncoder(&tracedResp).Encode(response{
		ID: 2, Body: []byte("ok"),
		TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "1f2e3d4c5b6a7988",
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(tracedResp.Bytes())

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
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		raw.SetDeadline(time.Now().Add(2 * time.Second))
		_, _ = raw.Write(in)
		raw.Close()

		c, err := Dial(addr, 2*time.Second, WithCallTimeout(2*time.Second))
		if err != nil {
			t.Fatalf("dial after garbage: %v", err)
		}
		var out []byte
		if _, err := c.Call("echo", []byte("probe"), &out); err != nil {
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
			var resp []byte
			_, _ = vc.Call("echo", []byte("probe"), &resp) // any outcome but a hang is fine
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("client hung on response bytes %q", in)
		}
		vc.Close()
	})
}
