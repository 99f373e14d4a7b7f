package transport

import (
	"encoding/hex"
	"testing"
)

// TestWireBytesPinned pins the exact bytes of the three envelope frames
// (request, reply, error), so that a change to the frame codec that moves
// a byte fails here by name. The bodies and the other hand-rolled formats
// are pinned by the test of the same name in internal/daemon.
func TestWireBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		enc  func() ([]byte, error)
		want string
	}{
		{"frame/request", func() ([]byte, error) {
			return encodeRequestFrame(request{ID: 1<<40 + 3, Method: "get", TraceID: "0af7", SpanID: "b7ad", ParentID: "00f0", Body: []byte{0x81, 1, 2, 3}})
		}, "f01700000003000000000100000367657404306166370462376164043030663081010203"},
		{"frame/reply", func() ([]byte, error) {
			return encodeResponseFrame(response{ID: 2, TraceID: "0af7", SpanID: "1f2e", Body: []byte("ok")})
		}, "f10e00000002000000000000000004306166370431663265006f6b"},
		{"frame/error", func() ([]byte, error) {
			return encodeResponseFrame(response{ID: 5, Err: "kaboom", TraceID: "aa", SpanID: "bb"})
		}, "f20e000000050000000000000000026161026262006b61626f6f6d"},
	}
	for _, tc := range cases {
		b, err := tc.enc()
		if err != nil {
			t.Errorf("%s: encode: %v", tc.name, err)
			continue
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s: bytes moved\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
