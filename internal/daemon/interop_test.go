package daemon

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/transport"
)

// The protocol bodies as a gob-era peer declares them: same fields, no
// binary codec; gobEncode encodes them as such a peer did.
type (
	gobGetRequest struct {
		Client      int
		ClientCoord []float64
		Object      string
		Bytes       float64
	}
	gobPutRequest struct {
		Object  string
		Data    []byte
		Version uint64
	}
	gobDeleteRequest    struct{ Object string }
	gobMicrosRequest    struct{ Object string }
	gobDecayRequest     struct{ Factor float64 }
	gobReplicateRequest struct {
		From uint64
		Max  int
	}
	gobExplainRequest struct {
		Epoch    int
		ObjectID string
	}
	// gobEnvelope is the request envelope a gob-era peer sends.
	gobEnvelope struct {
		ID     uint64
		Method string
		Body   []byte
	}
)

func gobEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawBody is sent as it is: the body bytes of a call, whatever they are.
type rawBody []byte

func (b rawBody) AppendBody(dst []byte) ([]byte, error) { return append(dst, b...), nil }

// TestGobEraClientAgainstNewNode: a client that speaks the gob envelope
// is refused on its first byte. The node hangs up at once without a
// reply, applies nothing, and keeps serving framed clients.
func TestGobEraClientAgainstNewNode(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	body := gobEncode(t, gobPutRequest{Object: "obj", Data: []byte("gob era"), Version: 1})
	start := time.Now()
	if err := gob.NewEncoder(conn).Encode(gobEnvelope{ID: 1, Method: MethodPut, Body: body}); err != nil {
		t.Fatal(err)
	}
	// The node closes the connection, or resets it over the unread rest
	// of the envelope.
	if reply, err := io.ReadAll(conn); len(reply) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the node answered a gob envelope with %q, %v", reply, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the node held a gob-era connection for %v", d)
	}
	if _, _, err := c.Get(1, []float64{0, 0}, "obj"); err == nil {
		t.Fatal("a refused gob put was applied")
	}
	if err := c.Put("obj", []byte("framed"), 1); err != nil {
		t.Fatalf("framed put after the gob-era client: %v", err)
	}
	if resp, _, err := c.Get(1, []float64{0, 0}, "obj"); err != nil || string(resp.Data) != "framed" {
		t.Fatalf("framed get after the gob-era client = %+v, %v", resp, err)
	}
}

// TestHotMethodsRefuseForeignBodies: every method with a request body
// has one defined outcome for a body it cannot decode — a gob body, an
// empty one, and one that ends right after its marker: a RemoteError
// naming the decode failure, no state change, and a node that answers
// the next call.
func TestHotMethodsRefuseForeignBodies(t *testing.T) {
	n, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2, WriteRatio: 0.5})
	if err := c.Put("obj", []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(1, []float64{3, 4}, "obj"); err != nil {
		t.Fatal(err)
	}
	wantMicros, _, err := c.Micros()
	if err != nil {
		t.Fatal(err)
	}
	gobBody := func(v any) rawBody { return gobEncode(t, v) }
	for _, m := range []struct {
		method, what string
		marker       byte
		gob          rawBody
	}{
		{MethodGet, "get request", wireGetRequest, gobBody(gobGetRequest{Client: 1, ClientCoord: []float64{3, 4}, Object: "obj"})},
		{MethodPut, "put request", wirePutRequest, gobBody(gobPutRequest{Object: "obj", Data: []byte("gob"), Version: 2})},
		{MethodDelete, "delete request", wireDeleteRequest, gobBody(gobDeleteRequest{Object: "obj"})},
		{MethodMicros, "micros request", wireMicrosRequest, gobBody(gobMicrosRequest{})},
		{MethodDecay, "decay request", wireDecayRequest, gobBody(gobDecayRequest{Factor: 0.5})},
		{MethodReplicate, "replicate request", wireReplicateRequest, gobBody(gobReplicateRequest{Max: 10})},
		{MethodExplain, "explain request", wireExplainRequest, gobBody(gobExplainRequest{Epoch: -1})},
	} {
		for kind, body := range map[string]rawBody{"gob": m.gob, "empty": {}, "marker only": {m.marker}} {
			_, err := c.c.Call(m.method, body, nil)
			var remote *transport.RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Message, "daemon: wire: "+m.what) {
				t.Errorf("%s with a %s body: %v, want a RemoteError naming the %s", m.method, kind, err, m.what)
			}
			if resp, _, err := c.Get(-1, nil, "obj"); err != nil || string(resp.Data) != "payload" || resp.Version != 1 {
				t.Fatalf("after %s with a %s body: get = %+v, %v", m.method, kind, resp, err)
			}
		}
	}
	if ms, _, err := c.Micros(); err != nil || !reflect.DeepEqual(ms, wantMicros) {
		t.Fatalf("refused calls moved the summary: %+v, %v; want %+v", ms, err, wantMicros)
	}
	if got := n.Snapshot().Counters["replog_appends_total"]; got != 1 {
		t.Fatalf("write log took %d appends, want the one framed put", got)
	}
}

// TestGetResponseSurvivesLaterCalls: GetResponse.Data aliases the
// envelope's Body (TestWireAliasing), so a response a caller still holds
// must not change when the connection carries later calls. The
// transport's TestBodyBuffersArePerMessage proves the same for both ends
// with bodies it retains itself.
func TestGetResponseSurvivesLaterCalls(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	a, b := bytes.Repeat([]byte("a"), 512), bytes.Repeat([]byte("b"), 512)
	if err := c.Put("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", b, 1); err != nil {
		t.Fatal(err)
	}
	ra, _, err := c.Get(1, []float64{0, 0}, "a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rb, _, err := c.Get(1, []float64{0, 0}, "b")
		if err != nil || !bytes.Equal(rb.Data, b) {
			t.Fatalf("get b = %.8q..., %v", rb.Data, err)
		}
	}
	if !bytes.Equal(ra.Data, a) {
		t.Fatalf("an earlier response was overwritten by later calls: %.8q...", ra.Data)
	}
}
