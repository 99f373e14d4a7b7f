package daemon

import (
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/vec"
)

// BenchmarkCodecs times every hand-rolled codec that decodes through
// internal/wire, through exported entry points only, so the same file
// runs against any commit: the pairs a change to the shared cursor or
// framer is judged by.
func BenchmarkCodecs(b *testing.B) {
	micros := make([]cluster.Micro, 30)
	for i := range micros {
		f := float64(i + 1)
		micros[i] = cluster.Micro{Count: int64(i + 1), Weight: f, Sum: vec.Vec{f, -f, 2 * f}, Sum2: vec.Vec{f * f, f * f, 4 * f * f}}
	}
	rec := ledger.Record{Epoch: 7, K: 3, Candidates: []int{0, 1, 2, 3, 4, 5, 6, 7},
		PrevReplicas: []int{0, 1, 2}, Replicas: []int{0, 1, 5}, Proposed: []int{0, 1, 5},
		Migrate: true, MovedReplicas: 1, EstimatedOldMs: 41.5, EstimatedNewMs: 33.25, ObservedMeanMs: 40,
		Accesses: 2500, CollectedBytes: 2166, QuorumOK: true, Micros: micros, ObjectID: "obj-001", Class: "hot"}
	for _, c := range rec.Candidates {
		rec.CandidateCoords = append(rec.CandidateCoords, coord.Coordinate{Pos: vec.Vec{float64(c), 1, 2}, Height: 0.5})
	}
	entries := make([]replog.Entry, 64)
	for i := range entries {
		entries[i] = replog.Entry{Seq: uint64(i + 1), Term: 1, Client: int32(i), Object: 3, Bytes: 4096}
	}
	get := GetRequest{Client: 7, ClientCoord: []float64{1.5, -2.5, 40}, Object: "obj-001"}
	getBody, _ := get.AppendBody(nil)
	resp := GetResponse{Data: make([]byte, 128), Version: 3}
	respBody, _ := resp.AppendBody(nil)
	microsEnc, _ := cluster.EncodeMicros(micros)
	recEnc, _ := ledger.EncodeRecord(rec)
	batch := replog.EncodeBatch(entries)

	run := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	buf := make([]byte, 0, 256)
	run("get-request/append", func() error { _, err := get.AppendBody(buf); return err })
	run("get-request/decode", func() error { var v GetRequest; return v.DecodeBody(getBody) })
	run("get-response/append", func() error { _, err := resp.AppendBody(buf); return err })
	run("get-response/decode", func() error { var v GetResponse; return v.DecodeBody(respBody) })
	run("micros/encode", func() error { _, err := cluster.EncodeMicros(micros); return err })
	run("micros/decode", func() error { _, err := cluster.DecodeMicros(microsEnc); return err })
	run("ledger-record/encode", func() error { _, err := ledger.EncodeRecord(rec); return err })
	run("ledger-record/decode", func() error { _, err := ledger.DecodeRecord(recEnc); return err })
	run("replog-batch/encode", func() error { batch = replog.EncodeBatch(entries); return nil })
	run("replog-batch/decode", func() error { _, err := replog.DecodeBatch(batch); return err })

	l, err := ledger.Open(b.TempDir(), ledger.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	run("ledger/append", func() error { return l.Append(rec) })
}
