package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"
)

// binBody is a minimal type with a binary body codec: marker 0x80, then
// the payload. DecodeBody keeps the slice it is given, as the daemon's
// decoders do.
type binBody struct{ P []byte }

const binMarker = 0x80

func (v binBody) AppendBody(dst []byte) ([]byte, error) {
	if len(v.P) > 1<<20 {
		return dst, errors.New("binBody: too long")
	}
	return append(append(dst, binMarker), v.P...), nil
}

func (v *binBody) DecodeBody(b []byte) error {
	if len(b) == 0 || b[0] != binMarker {
		return errors.New("binBody: bad marker")
	}
	v.P = b[1:]
	return nil
}

func TestMarshalDispatch(t *testing.T) {
	b, err := Marshal(binBody{P: []byte("hi")})
	if err != nil || !bytes.Equal(b, []byte{binMarker, 'h', 'i'}) {
		t.Fatalf("Marshal(binary type) = %x, %v", b, err)
	}
	var back binBody
	if err := Unmarshal(b, &back); err != nil || string(back.P) != "hi" {
		t.Fatalf("Unmarshal(binary body) = %+v, %v", back, err)
	}
	if _, err := Marshal(binBody{P: make([]byte, 1<<20+1)}); err == nil {
		t.Error("an AppendBody error was swallowed")
	}

	// A gob body into the same type is refused by the type's decoder:
	// a type has one encoding.
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(binBody{P: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	back = binBody{}
	if err := Unmarshal(g.Bytes(), &back); err == nil {
		t.Fatalf("Unmarshal(gob body) into a binary type = %+v", back)
	}
}

// TestBodyBuffersArePerMessage proves what BodyDecoder promises: a body
// handed to a handler or to a response decoder is not written to again,
// so decoders may alias it. The handler and the client both retain every
// body they were given across later calls on the same connection.
func TestBodyBuffersArePerMessage(t *testing.T) {
	s, addr := startServer(t)
	var (
		mu   sync.Mutex
		seen [][]byte // requests on one connection are served in order
	)
	if err := s.HandleTimed("keep", func(body []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, body)
		mu.Unlock()
		return body, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 16
	var got [calls]binBody
	for i := range got {
		req := binBody{P: bytes.Repeat([]byte{byte('a' + i)}, 300)}
		if _, err := c.Call("keep", req, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range got {
		want := bytes.Repeat([]byte{byte('a' + i)}, 300)
		if !bytes.Equal(got[i].P, want) {
			t.Errorf("response %d was overwritten by a later call: %.8q...", i, got[i].P)
		}
		if !bytes.Equal(seen[i][1:], want) {
			t.Errorf("request body %d was overwritten by a later call: %.8q...", i, seen[i][1:])
		}
	}
}

// TestRequestBufferReuse: the client encodes binary requests into one
// buffer, call after call, and lets go of a buffer a large body grew.
func TestRequestBufferReuse(t *testing.T) {
	s, addr := startServer(t)
	if err := s.HandleTimed("len", func(body []byte) ([]byte, error) {
		return []byte(strconv.Itoa(len(body))), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{10, 4096, 3, maxKeptReqBuf + 1, 7} {
		var got raw
		if _, err := c.Call("len", binBody{P: make([]byte, n)}, &got); err != nil {
			t.Fatal(err)
		}
		if string(got) != strconv.Itoa(n+1) {
			t.Fatalf("server saw %s body bytes, want %d", got, n+1)
		}
		if cap(c.reqBuf) > maxKeptReqBuf {
			t.Fatalf("client kept a %d-byte request buffer", cap(c.reqBuf))
		}
	}
	if cap(c.reqBuf) == 0 {
		t.Fatal("client kept no request buffer")
	}
}
