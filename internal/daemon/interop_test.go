package daemon

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/transport"
)

// The protocol bodies as a gob-era peer declares them: same fields, no
// binary codec, so the transport gob-encodes what they send and can only
// gob-decode what comes back. A binary reply to one of these fails the
// call.
type (
	gobGetRequest struct {
		Client      int
		ClientCoord []float64
		Object      string
		Bytes       float64
	}
	gobGetResponse struct {
		Data    []byte
		Version uint64
	}
	gobPutRequest struct {
		Object  string
		Data    []byte
		Version uint64
	}
	gobDeleteRequest    struct{ Object string }
	gobMicrosRequest    struct{ Object string }
	gobMicrosResponse   struct{ Encoded []byte }
	gobDecayRequest     struct{ Factor float64 }
	gobReplicateRequest struct {
		From uint64
		Max  int
	}
	gobReplicateResponse struct {
		Frames   []byte
		Snapshot bool
		SnapSeq  uint64
		SnapTerm uint64
		Last     uint64
	}
)

// TestGobEraClientAgainstNewNode is the rolling-upgrade guard: nodes are
// upgraded first, so a client that still speaks gob bodies must get
// every steady-state method served, and answered in gob.
func TestGobEraClientAgainstNewNode(t *testing.T) {
	n, newClient := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2, WriteRatio: 0.5, PerObjectSummaries: true})
	old, err := transport.Dial(n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	if _, err := old.Call(MethodPut, gobPutRequest{Object: "obj", Data: []byte("payload"), Version: 1}, nil); err != nil {
		t.Fatalf("gob put: %v", err)
	}
	var got gobGetResponse
	if _, err := old.Call(MethodGet, gobGetRequest{Client: -2, ClientCoord: []float64{3, 4}, Object: "obj"}, &got); err != nil {
		t.Fatalf("gob get: %v", err)
	}
	if string(got.Data) != "payload" || got.Version != 1 {
		t.Fatalf("gob get = %+v", got)
	}
	// The same object through the new client: one store, two encodings.
	resp, _, err := newClient.Get(5, []float64{3, 5}, "obj")
	if err != nil || string(resp.Data) != "payload" || resp.Version != 1 {
		t.Fatalf("binary get = %+v, %v", resp, err)
	}

	// micros: the empty-body legacy call, the gob request, and the new
	// client's explicit request all export the same summary.
	var legacy, byGob gobMicrosResponse
	if _, err := old.Call(MethodMicros, nil, &legacy); err != nil {
		t.Fatalf("empty-body micros: %v", err)
	}
	if _, err := old.Call(MethodMicros, gobMicrosRequest{}, &byGob); err != nil {
		t.Fatalf("gob micros: %v", err)
	}
	want, err := cluster.DecodeMicros(legacy.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("two summarized gets left an empty summary")
	}
	if !bytes.Equal(byGob.Encoded, legacy.Encoded) {
		t.Fatal("gob-request micros differ from the empty-body call")
	}
	ms, wire, err := newClient.Micros()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, want) || wire != len(legacy.Encoded) {
		t.Fatalf("new client's Micros() = %+v (%d B), legacy call = %+v (%d B)", ms, wire, want, len(legacy.Encoded))
	}
	var perObj gobMicrosResponse
	if _, err := old.Call(MethodMicros, gobMicrosRequest{Object: "obj"}, &perObj); err != nil {
		t.Fatalf("gob micros(obj): %v", err)
	}
	if !bytes.Equal(perObj.Encoded, legacy.Encoded) {
		t.Fatal("the only object's summary should equal the node-wide one")
	}

	if _, err := old.Call(MethodDecay, gobDecayRequest{Factor: 0.5}, nil); err != nil {
		t.Fatalf("gob decay: %v", err)
	}
	decayed, _, err := newClient.Micros()
	if err != nil {
		t.Fatal(err)
	}
	if decayed[0].Weight >= want[0].Weight {
		t.Fatalf("gob decay did not age the summary: %v -> %v", want[0].Weight, decayed[0].Weight)
	}

	var rep gobReplicateResponse
	if _, err := old.Call(MethodReplicate, gobReplicateRequest{From: 0, Max: 10}, &rep); err != nil {
		t.Fatalf("gob replicate: %v", err)
	}
	entries, err := replog.DecodeBatch(rep.Frames)
	if err != nil || len(entries) != 1 || entries[0].Seq != 1 || rep.Last != 1 || rep.Snapshot {
		t.Fatalf("gob replicate = %+v entries %+v, %v", rep, entries, err)
	}
	// An empty replicate body is a gob-era "from the start" too.
	var repEmpty gobReplicateResponse
	if _, err := old.Call(MethodReplicate, nil, &repEmpty); err != nil || !bytes.Equal(repEmpty.Frames, rep.Frames) {
		t.Fatalf("empty-body replicate = %+v, %v", repEmpty, err)
	}

	if _, err := old.Call(MethodDelete, gobDeleteRequest{Object: "obj"}, nil); err != nil {
		t.Fatalf("gob delete: %v", err)
	}
	if _, _, err := newClient.Get(5, []float64{3, 5}, "obj"); err == nil {
		t.Fatal("object survived a gob delete")
	}
}

// TestBinaryRepliesToBinaryRequests pins the other half of reply in
// kind: the new client's requests come back in the binary encoding.
func TestBinaryRepliesToBinaryRequests(t *testing.T) {
	n, _ := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2, WriteRatio: 0.5})
	raw, err := transport.Dial(n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Call(MethodPut, PutRequest{Object: "obj", Data: []byte("x"), Version: 1}, nil); err != nil {
		t.Fatal(err)
	}
	// A gob-only response type cannot decode a binary reply.
	for method, req := range map[string]any{
		MethodGet:       GetRequest{Object: "obj"},
		MethodMicros:    MicrosRequest{},
		MethodReplicate: ReplicateRequest{},
	} {
		var sink struct{ Data, Encoded, Frames []byte }
		if _, err := raw.Call(method, req, &sink); err == nil {
			t.Errorf("%s: a binary request was answered in gob", method)
		}
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
