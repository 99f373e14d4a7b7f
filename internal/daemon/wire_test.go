package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/georep/georep/internal/testenv"
	"github.com/georep/georep/internal/transport"
)

// wireCase is one value of a covered type plus a fresh pointer of that
// type to decode into.
type wireCase struct {
	name  string
	value transport.BodyAppender
	fresh func() transport.BodyDecoder
}

// One constructor per covered type; wireDecoders lists them all.
var (
	getReq  = func() transport.BodyDecoder { return new(GetRequest) }
	getResp = func() transport.BodyDecoder { return new(GetResponse) }
	putReq  = func() transport.BodyDecoder { return new(PutRequest) }
	delReq  = func() transport.BodyDecoder { return new(DeleteRequest) }
	decReq  = func() transport.BodyDecoder { return new(DecayRequest) }
	micReq  = func() transport.BodyDecoder { return new(MicrosRequest) }
	micResp = func() transport.BodyDecoder { return new(MicrosResponse) }
	repReq  = func() transport.BodyDecoder { return new(ReplicateRequest) }
	repResp = func() transport.BodyDecoder { return new(ReplicateResponse) }
	crdResp = func() transport.BodyDecoder { return new(CoordResponse) }
	lstResp = func() transport.BodyDecoder { return new(ListResponse) }
	staResp = func() transport.BodyDecoder { return new(StatsResponse) }
	expReq  = func() transport.BodyDecoder { return new(ExplainRequest) }

	wireDecoders = []func() transport.BodyDecoder{
		getReq, getResp, putReq, delReq, decReq, micReq, micResp, repReq, repResp,
		crdResp, lstResp, staResp, expReq,
	}
)

func wireCases() []wireCase {
	mib := bytes.Repeat([]byte{0xA5, 0x00, 0xFF, 0x80}, 1<<18)
	return []wireCase{
		{"get/zero", GetRequest{}, getReq},
		{"get/typical", GetRequest{Client: 7, ClientCoord: []float64{1.5, -2.5, 40}, Object: "obj-001"}, getReq},
		{"get/negative-client", GetRequest{Client: -3, ClientCoord: []float64{0, 0, 0}, Object: "x", Bytes: 4096}, getReq},
		{"get/min-client", GetRequest{Client: math.MinInt, Object: "x"}, getReq},
		{"get/zero-dim", GetRequest{Client: 1, ClientCoord: []float64{}, Object: "x"}, getReq},
		{"get/wrong-dim", GetRequest{Client: 1, ClientCoord: []float64{1, 2, 3, 4, 5, 6, 7}, Object: "x"}, getReq},
		{"get/odd-floats", GetRequest{ClientCoord: []float64{math.Inf(1), math.Copysign(0, -1), math.MaxFloat64}, Bytes: math.SmallestNonzeroFloat64}, getReq},
		{"get/long-object", GetRequest{Object: strings.Repeat("k", 70_000)}, getReq},
		{"getresp/zero", GetResponse{}, getResp},
		{"getresp/empty-data", GetResponse{Data: []byte{}, Version: 1}, getResp},
		{"getresp/128B", GetResponse{Data: bytes.Repeat([]byte{9}, 128), Version: 1 << 40}, getResp},
		{"getresp/1MiB", GetResponse{Data: mib, Version: math.MaxUint64}, getResp},
		{"put/zero", PutRequest{}, putReq},
		{"put/empty-data", PutRequest{Object: "x", Data: []byte{}, Version: 1}, putReq},
		{"put/4KiB", PutRequest{Object: "obj-063", Data: bytes.Repeat([]byte{1, 2}, 2048), Version: 9}, putReq},
		{"put/1MiB", PutRequest{Object: "big", Data: mib, Version: 2}, putReq},
		{"delete/zero", DeleteRequest{}, delReq},
		{"delete/typical", DeleteRequest{Object: "obj-001"}, delReq},
		{"decay/zero", DecayRequest{}, decReq},
		{"decay/half", DecayRequest{Factor: 0.5}, decReq},
		{"micros/node-wide", MicrosRequest{}, micReq},
		{"micros/object", MicrosRequest{Object: "obj-001"}, micReq},
		{"microsresp/zero", MicrosResponse{}, micResp},
		{"microsresp/summary", MicrosResponse{Encoded: []byte{'m', 1, 0, 0, 0, 0}}, micResp},
		{"replicate/zero", ReplicateRequest{}, repReq},
		{"replicate/typical", ReplicateRequest{From: 1 << 33, Max: 4096}, repReq},
		{"replicate/negative-max", ReplicateRequest{From: 1, Max: -1}, repReq},
		{"replicateresp/zero", ReplicateResponse{}, repResp},
		{"replicateresp/frames", ReplicateResponse{Frames: bytes.Repeat([]byte{7}, 80), Last: 12}, repResp},
		{"replicateresp/snapshot", ReplicateResponse{Snapshot: true, SnapSeq: 40, SnapTerm: 1, Last: 50}, repResp},
		{"coordresp/zero", CoordResponse{}, crdResp},
		{"coordresp/typical", CoordResponse{Node: 2, Pos: []float64{100, -0.5, 40}, Height: 1.25}, crdResp},
		{"coordresp/negative-node", CoordResponse{Node: math.MinInt, Pos: []float64{math.Inf(-1)}}, crdResp},
		{"listresp/zero", ListResponse{}, lstResp},
		{"listresp/typical", ListResponse{Objects: []string{"obj-000", "obj-001", "demo"}}, lstResp},
		{"listresp/empty-name", ListResponse{Objects: []string{"", "x"}}, lstResp},
		{"statsresp/zero", StatsResponse{}, staResp},
		{"statsresp/typical", StatsResponse{Node: 1, Objects: 64, Bytes: 1 << 33, Accesses: -1}, staResp},
		{"explain/latest", ExplainRequest{Epoch: -1}, expReq},
		{"explain/object", ExplainRequest{Epoch: 5, ObjectID: "obj-001"}, expReq},
	}
}

// normalized maps empty slices to nil in a decoded value's struct, the
// one difference a round trip is allowed (gob makes the same one).
func normalized(v any) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	out := reflect.New(rv.Type()).Elem()
	out.Set(rv)
	for i := 0; i < out.NumField(); i++ {
		if f := out.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return out.Interface()
}

func TestWireRoundTrip(t *testing.T) {
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			body, err := transport.Marshal(tc.value)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got := tc.fresh()
			if err := transport.Unmarshal(body, got); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if want := normalized(tc.value); !reflect.DeepEqual(normalized(got), want) {
				t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", normalized(got), want)
			}
			// The encoding is canonical: decode then encode gives the bytes back.
			again, err := got.(transport.BodyAppender).AppendBody(nil)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("re-encoding differs (err %v)", err)
			}
		})
	}
}

// TestWireMatchesGob is the differential guard: whatever a value's gob
// body decodes to, its binary body decodes to the same thing.
func TestWireMatchesGob(t *testing.T) {
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			var gobBody bytes.Buffer
			if err := gob.NewEncoder(&gobBody).Encode(tc.value); err != nil {
				t.Fatal(err)
			}
			if err := tc.fresh().DecodeBody(gobBody.Bytes()); err == nil {
				t.Fatal("the binary decoder took the gob body")
			}
			binBody, err := transport.Marshal(tc.value)
			if err != nil {
				t.Fatal(err)
			}
			fromGob, fromBin := tc.fresh(), tc.fresh()
			if err := gob.NewDecoder(&gobBody).Decode(fromGob); err != nil {
				t.Fatalf("gob body: %v", err)
			}
			if err := transport.Unmarshal(binBody, fromBin); err != nil {
				t.Fatalf("binary body: %v", err)
			}
			if !reflect.DeepEqual(fromGob, fromBin) {
				t.Fatalf("decodings differ:\n gob    %+v\n binary %+v", fromGob, fromBin)
			}
		})
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	for _, tc := range wireCases() {
		body, err := transport.Marshal(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > 4096 {
			continue // every prefix of a 1 MiB body proves nothing more
		}
		for n := 1; n < len(body); n++ {
			if err := tc.fresh().DecodeBody(body[:n]); err == nil {
				t.Errorf("%s: %d of %d bytes decoded", tc.name, n, len(body))
			}
		}
		if err := tc.fresh().DecodeBody(append(append([]byte(nil), body...), 0)); err == nil {
			t.Errorf("%s: a trailing byte decoded", tc.name)
		}
		// Another type's body must not decode: the marker names the type.
		wrong := append([]byte(nil), body...)
		wrong[0] ^= 0x10
		if err := tc.fresh().DecodeBody(wrong); err == nil {
			t.Errorf("%s: marker %#x decoded", tc.name, wrong[0])
		}
	}
	if err := new(GetRequest).DecodeBody(nil); err == nil {
		t.Error("an empty body decoded as a binary get request")
	}
	if err := new(ReplicateResponse).DecodeBody(append([]byte{wireReplicateResponse, 2}, make([]byte, 28)...)); err == nil {
		t.Error("snapshot flag 2 decoded")
	}
}

// TestWireLengthLies feeds bodies whose length prefixes claim gigabytes
// that are not there: each must fail, and fail before allocating what
// was claimed.
func TestWireLengthLies(t *testing.T) {
	u32 := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	lies := []struct {
		name string
		body []byte
		into transport.BodyDecoder
	}{
		{"get coords", cat([]byte{wireGetRequest}, make([]byte, 16), u32(1<<28), make([]byte, 64)), new(GetRequest)},
		{"get coords max", cat([]byte{wireGetRequest}, make([]byte, 16), u32(math.MaxUint32)), new(GetRequest)},
		{"get object", cat([]byte{wireGetRequest}, make([]byte, 16), u32(0), u32(1<<31), []byte("x")), new(GetRequest)},
		{"getresp data", cat([]byte{wireGetResponse}, make([]byte, 8), u32(math.MaxUint32), make([]byte, 128)), new(GetResponse)},
		{"put object", cat([]byte{wirePutRequest}, make([]byte, 8), u32(1<<30), []byte("obj")), new(PutRequest)},
		{"put data", cat([]byte{wirePutRequest}, make([]byte, 8), u32(3), []byte("obj"), u32(1<<30), []byte("d")), new(PutRequest)},
		{"delete object", cat([]byte{wireDeleteRequest}, u32(1<<30)), new(DeleteRequest)},
		{"micros object", cat([]byte{wireMicrosRequest}, u32(1<<30)), new(MicrosRequest)},
		{"microsresp", cat([]byte{wireMicrosResponse}, u32(1<<30), make([]byte, 6)), new(MicrosResponse)},
		{"replicateresp frames", cat([]byte{wireReplicateResponse, 0}, make([]byte, 24), u32(1<<30), make([]byte, 40)), new(ReplicateResponse)},
		{"coordresp pos", cat([]byte{wireCoordResponse}, make([]byte, 16), u32(math.MaxUint32), make([]byte, 64)), new(CoordResponse)},
		{"listresp names max", cat([]byte{wireListResponse}, u32(math.MaxUint32), u32(1), []byte("x")), new(ListResponse)},
		{"listresp names", cat([]byte{wireListResponse}, u32(1<<28), make([]byte, 256)), new(ListResponse)},
		{"listresp name", cat([]byte{wireListResponse}, u32(1), u32(1<<30), []byte("x")), new(ListResponse)},
		{"explain object", cat([]byte{wireExplainRequest}, make([]byte, 8), u32(1<<30), []byte("obj")), new(ExplainRequest)},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range lies {
		if err := l.into.DecodeBody(l.body); err == nil {
			t.Errorf("%s: a lying length decoded", l.name)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting %d lying bodies allocated %d bytes", len(lies), grew)
	}
}

// TestWireAllocs is the absolute gate on the get path's codec: a
// request/response pair costs four allocations end to end (two encode
// buffers, the decoded coordinate and object name; the response payload
// aliases its body), and encoding into a sized buffer costs none.
func TestWireAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts differ under the race detector")
	}
	req := GetRequest{Client: 7, ClientCoord: []float64{1.5, -2.5, 40}, Object: "obj-001"}
	resp := GetResponse{Data: make([]byte, 128), Version: 3}
	var (
		gotReq  GetRequest
		gotResp GetResponse
	)
	pair := testing.AllocsPerRun(200, func() {
		qb, _ := req.AppendBody(nil)
		if err := gotReq.DecodeBody(qb); err != nil {
			t.Fatal(err)
		}
		pb, _ := resp.AppendBody(nil)
		if err := gotResp.DecodeBody(pb); err != nil {
			t.Fatal(err)
		}
	})
	if pair > 4 {
		t.Errorf("get request/response pair: %v allocs, want <= 4", pair)
	}
	buf := make([]byte, 0, 256)
	sized := testing.AllocsPerRun(200, func() {
		buf, _ = req.AppendBody(buf[:0])
		buf, _ = resp.AppendBody(buf[:0])
	})
	if sized != 0 {
		t.Errorf("encode into a sized buffer: %v allocs, want 0", sized)
	}
}

// TestLoopbackGetAllocs is the absolute gate on the whole live get: a
// 128 B get over loopback TCP, client and node together. Nine today: the request and the response
// boxed for CallContext (2), the two frame buffers (2), the decoded
// coordinate and object name (2), the store's copy of the object (1),
// the reply boxed and encoded (2).
func TestLoopbackGetAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts differ under the race detector")
	}
	n, c := startNode(t, Config{ID: 1, MicroClusters: 10, Dims: 3})
	if err := c.Put("obj", make([]byte, 128), 1); err != nil {
		t.Fatal(err)
	}
	coord := []float64{1.5, -2.5, 40}
	get := func() {
		if resp, _, err := c.Get(7, coord, "obj"); err != nil || len(resp.Data) != 128 {
			t.Fatalf("get: %d bytes, %v", len(resp.Data), err)
		}
	}
	get()
	before := n.Snapshot().Counters["transport_server_requests_total"]
	if per := testing.AllocsPerRun(500, get); per > 12 {
		t.Errorf("loopback get, both ends: %v allocs, want <= 12", per)
	}
	snap := n.Snapshot()
	if got := snap.Counters["transport_server_requests_total"] - before; got != 501 {
		t.Errorf("the node served %d of 501 measured gets", got)
	}
	// The node's per-method histogram is fed by the server's clock reads:
	// one observation per get, as before.
	if h, gets := snap.Histograms["daemon_rpc_get_ms"], snap.Counters["daemon_rpc_get_total"]; h.Count != gets || gets != 502 {
		t.Errorf("daemon_rpc_get_ms has %d observations for %d gets", h.Count, gets)
	}
}

// TestWireAliasing pins the decoders' half of the aliasing contract:
// decoded payloads point into the body (so the body must be per-message,
// which the transport's TestBodyBuffersArePerMessage proves), and
// appending to one cannot reach the bytes behind it.
func TestWireAliasing(t *testing.T) {
	body, err := PutRequest{Object: "obj", Data: []byte("payload"), Version: 1}.AppendBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, 0xEE)[:len(body)] // spare capacity behind the last field
	var req PutRequest
	if err := req.DecodeBody(body); err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] = 'X'
	if string(req.Data) != "payloaX" {
		t.Fatalf("PutRequest.Data = %q after the body changed: the decoder copied; drop the per-message note in transport", req.Data)
	}
	if req.Object != "obj" {
		t.Fatalf("Object = %q", req.Object)
	}
	_ = append(req.Data, 0x11)
	if body[:len(body)+1][len(body)] != 0xEE {
		t.Fatal("appending to a decoded payload wrote past its field")
	}

	rbody, _ := GetResponse{Data: []byte("abc"), Version: 1}.AppendBody(nil)
	var resp GetResponse
	if err := resp.DecodeBody(rbody); err != nil {
		t.Fatal(err)
	}
	rbody[len(rbody)-1] = 'Z'
	if string(resp.Data) != "abZ" {
		t.Fatalf("GetResponse.Data = %q after the body changed", resp.Data)
	}
}

// FuzzDaemonWire: no decoder panics on arbitrary bytes, whatever decodes
// re-encodes to the same bytes, and values built from the input survive
// encode then decode.
func FuzzDaemonWire(f *testing.F) {
	for _, tc := range wireCases() {
		if body, err := transport.Marshal(tc.value); err == nil && len(body) <= 4096 {
			f.Add(body)
			f.Add(body[:len(body)/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{wireGetRequest, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, fresh := range wireDecoders {
			v := fresh()
			if err := v.DecodeBody(in); err != nil {
				continue
			}
			out, err := v.(transport.BodyAppender).AppendBody(nil)
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%T decoded %x but re-encodes to %x (err %v)", v, in, out, err)
			}
		}

		// Values made of the input, through encode then decode. Floats go
		// by their bits so NaN payloads count too.
		coords := make([]float64, len(in)/8)
		for i := range coords {
			coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
		var word uint64
		for i, b := range in {
			word ^= uint64(b) << (8 * (i % 8))
		}
		req := GetRequest{Client: int(int64(word)), ClientCoord: coords, Object: string(in), Bytes: math.Float64frombits(word)}
		body, err := req.AppendBody(nil)
		if err != nil {
			t.Fatal(err)
		}
		var gotReq GetRequest
		if err := gotReq.DecodeBody(body); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if again, _ := gotReq.AppendBody(nil); !bytes.Equal(again, body) {
			t.Fatalf("get request changed across a round trip: %+v vs %+v", gotReq, req)
		}
		put := PutRequest{Object: string(in), Data: in, Version: word}
		body, err = put.AppendBody(nil)
		if err != nil {
			t.Fatal(err)
		}
		var gotPut PutRequest
		if err := gotPut.DecodeBody(body); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if gotPut.Object != put.Object || !bytes.Equal(gotPut.Data, put.Data) || gotPut.Version != put.Version {
			t.Fatalf("put request changed across a round trip")
		}
		rep := ReplicateResponse{Frames: in, Snapshot: word&1 == 1, SnapSeq: word, SnapTerm: word >> 7, Last: ^word}
		body, err = rep.AppendBody(nil)
		if err != nil {
			t.Fatal(err)
		}
		var gotRep ReplicateResponse
		if err := gotRep.DecodeBody(body); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(gotRep.Frames, rep.Frames) || gotRep.Snapshot != rep.Snapshot ||
			gotRep.SnapSeq != rep.SnapSeq || gotRep.SnapTerm != rep.SnapTerm || gotRep.Last != rep.Last {
			t.Fatalf("replicate response changed across a round trip")
		}
	})
}
