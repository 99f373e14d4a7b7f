package daemon

import (
	"encoding/hex"
	"math"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/transport"
	"github.com/georep/georep/internal/vec"
	"github.com/georep/georep/internal/workload"
)

// TestWireBytesPinned pins the exact bytes of every hand-rolled format a
// node puts on a socket or a disk: the thirteen RPC bodies, the
// replication frame, the micros and coordinates encodings, a ledger
// record payload and the stream fingerprint encoding. The hex was
// generated before the codecs moved onto internal/wire (the last four
// bodies' with their codecs); a codec change that moves a byte fails
// here by name. (The three envelope frames are pinned by the test of the
// same name in internal/transport, which owns them.)
func TestWireBytesPinned(t *testing.T) {
	body := func(v transport.BodyAppender) func() ([]byte, error) {
		return func() ([]byte, error) { return v.AppendBody(nil) }
	}
	micros := []cluster.Micro{
		{Count: 3, Weight: 2.5, Sum: vec.Vec{1, -2}, Sum2: vec.Vec{4, 0.5}},
		{Count: 1, Weight: 1},
	}
	cases := []struct {
		name string
		enc  func() ([]byte, error)
		want string
	}{
		{"daemon/get-request", body(GetRequest{Client: -3, Bytes: 4096, ClientCoord: []float64{1.5, -2.5}, Object: "obj-1"}), "81fdffffffffffffff000000000000b04002000000000000000000f83f00000000000004c0050000006f626a2d31"},
		{"daemon/get-response", body(GetResponse{Version: 1 << 40, Data: []byte("hello")}), "8200000000000100000500000068656c6c6f"},
		{"daemon/put-request", body(PutRequest{Version: 9, Object: "obj-1", Data: []byte{1, 2, 3}}), "830900000000000000050000006f626a2d3103000000010203"},
		{"daemon/delete-request", body(DeleteRequest{Object: "obj-1"}), "84050000006f626a2d31"},
		{"daemon/decay-request", body(DecayRequest{Factor: 0.5}), "85000000000000e03f"},
		{"daemon/micros-request", body(MicrosRequest{Object: "obj-1"}), "86050000006f626a2d31"},
		{"daemon/micros-response", body(MicrosResponse{Encoded: []byte{'m', 1, 0, 0, 0, 0}}), "87060000006d0100000000"},
		{"daemon/replicate-request", body(ReplicateRequest{From: 1 << 33, Max: -1}), "880000000002000000ffffffffffffffff"},
		{"daemon/replicate-response", body(ReplicateResponse{Snapshot: true, SnapSeq: 40, SnapTerm: 1, Last: 50, Frames: []byte{7, 7}}), "8901280000000000000001000000000000003200000000000000020000000707"},
		{"daemon/coord-response", body(CoordResponse{Node: -2, Pos: []float64{1.5, -2.5}, Height: 0.5}), "8afeffffffffffffff000000000000e03f02000000000000000000f83f00000000000004c0"},
		{"daemon/list-response", body(ListResponse{Objects: []string{"obj-1", ""}}), "8b02000000050000006f626a2d3100000000"},
		{"daemon/stats-response", body(StatsResponse{Node: 1, Objects: 2, Bytes: 1 << 40, Accesses: -1}), "8c010000000000000002000000000000000000000000010000ffffffffffffffff"},
		{"daemon/explain-request", body(ExplainRequest{Epoch: -1, ObjectID: "obj-1"}), "8dffffffffffffffff050000006f626a2d31"},
		{"replog/frame", func() ([]byte, error) {
			return replog.AppendFrame(nil, replog.Entry{Seq: 7, Term: 2, Client: -4, Object: 11, Bytes: 128.5}), nil
		}, "20000000c11c508907000000000000000200000000000000fcffffff0b0000000000000000106040"},
		{"replog/batch", func() ([]byte, error) {
			return replog.EncodeBatch([]replog.Entry{{Seq: 1, Term: 1, Client: 1, Object: 2, Bytes: 1}, {Seq: 2, Term: 1, Bytes: math.MaxFloat64}}), nil
		}, "200000009adafdb7010000000000000001000000000000000100000002000000000000000000f03f200000000666ef32020000000000000001000000000000000000000000000000ffffffffffffef7f"},
		{"cluster/micros", func() ([]byte, error) { return cluster.EncodeMicros(micros) }, "6d0102000000030000000000000000000000000004400200000002000000000000000000f03f00000000000000c00000000000001040000000000000e03f0100000000000000000000000000f03f0000000000000000"},
		{"cluster/micros-empty", func() ([]byte, error) { return cluster.EncodeMicros(nil) }, "6d0100000000"},
		{"cluster/coordinates", func() ([]byte, error) {
			return cluster.EncodeCoordinates([]vec.Vec{{1, 2, 3}, {}, {-0.25}})
		}, "63010300000003000000000000000000f03f000000000000004000000000000008400000000001000000000000000000d0bf"},
		{"ledger/record-v2", func() ([]byte, error) {
			return ledger.EncodeRecord(ledger.Record{Epoch: 4, K: 1, Candidates: []int{3}, CandidateCoords: []coord.Coordinate{{Pos: vec.Vec{1, 2}, Height: 0.5}},
				Replicas: []int{3}, EstimatedNewMs: 12.5, Micros: micros, ObjectID: "obj-1", Class: "hot", Displaced: 1})
		}, "02080201060102000000000000f03f0000000000000040000000000000e03f00010600000000000000000000000000000000002940000000000000000000000000000206000000000000044002000000000000f03f00000000000000c0020000000000001040000000000000e03f02000000000000f03f0000056f626a2d3103686f7402"},
		{"workload/accesses", func() ([]byte, error) {
			return workload.AppendEncoded(nil, []workload.Access{{Client: 5, Object: -1, Bytes: 4096}, {Client: 1 << 20, Object: 7, Bytes: 0.5, Write: true}}), nil
		}, "05000000ffffffff000000000000b0400000100007000000000000000000e03f"},
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
