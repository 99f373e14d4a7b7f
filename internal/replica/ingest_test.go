package replica

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

func ingestFixture(t testing.TB, nodes int) ([]int, []vec.Vec, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pos := make([]vec.Vec, nodes)
	for i := range pos {
		p := vec.New(3)
		for d := range p {
			p[d] = float64(i%4)*30 + rng.NormFloat64()*2
		}
		pos[i] = p
	}
	clients := make([]int, 2048)
	weights := make([]float64, len(clients))
	for i := range clients {
		clients[i] = rng.Intn(nodes)
		weights[i] = 0.5 + rng.Float64()
	}
	return clients, pos, weights
}

// TestRecordBatchMatchesRecord proves the batch path and the one-access
// path summarize the same stream identically on an unsharded server.
func TestRecordBatchMatchesRecord(t *testing.T) {
	clients, pos, weights := ingestFixture(t, 32)

	one, err := NewServer(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if err := one.Record(pos[c], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := NewServer(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.RecordBatch(clients, pos, weights); err != nil {
		t.Fatal(err)
	}

	a, err := one.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batch.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d clusters", len(a), len(b))
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Weight != b[i].Weight || !a[i].Sum.Equal(b[i].Sum) {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShardedServerPreservesTotals checks the sharded server's export
// carries the same mass as the unsharded one for the same batch.
func TestShardedServerPreservesTotals(t *testing.T) {
	clients, pos, weights := ingestFixture(t, 32)
	base, err := NewServer(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.RecordBatch(clients, pos, weights); err != nil {
		t.Fatal(err)
	}
	baseMs, err := base.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantCount int64
	var wantWeight float64
	for i := range baseMs {
		wantCount += baseMs[i].Count
		wantWeight += baseMs[i].Weight
	}

	for _, shards := range []int{1, 2, 4, 8, 16} {
		srv, err := NewShardedServer(shards, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.RecordBatch(clients, pos, weights); err != nil {
			t.Fatal(err)
		}
		ms, err := srv.ExportInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > 8 {
			t.Fatalf("shards=%d: exported %d clusters, budget 8", shards, len(ms))
		}
		var count int64
		var weight float64
		for i := range ms {
			count += ms[i].Count
			weight += ms[i].Weight
		}
		if count != wantCount {
			t.Fatalf("shards=%d: count %d, want %d", shards, count, wantCount)
		}
		if math.Abs(weight-wantWeight) > 1e-9*wantWeight {
			t.Fatalf("shards=%d: weight %v, want %v", shards, weight, wantWeight)
		}
	}
}

// TestShardedServerSingleRecord: the id-less Record path still lands in
// some shard and totals survive export and decay.
func TestShardedServerSingleRecord(t *testing.T) {
	srv, err := NewShardedServer(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := vec.Vec{1, 2, 3}
	for i := 0; i < 100; i++ {
		if err := srv.Record(p, 2); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := srv.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	for i := range ms {
		count += ms[i].Count
	}
	if count != 100 {
		t.Fatalf("count %d, want 100", count)
	}
	if err := srv.Decay(0.5); err != nil {
		t.Fatal(err)
	}
}

func TestRecordBatchErrors(t *testing.T) {
	srv, err := NewServer(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	pos := []vec.Vec{vec.Vec{1, 2, 3}}
	if err := srv.RecordBatch([]int{0}, pos, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := srv.RecordBatch([]int{3}, pos, nil); err == nil {
		t.Error("out-of-range client accepted")
	}
	sh, err := NewShardedServer(4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.RecordBatch([]int{7}, pos, nil); err == nil {
		t.Error("out-of-range client accepted by sharded server")
	}
}

func batchManager(t testing.TB, shards int) (*Manager, []coord.Coordinate) {
	t.Helper()
	const n = 24
	coords := make([]coord.Coordinate, n)
	for i := range coords {
		coords[i] = coord.Coordinate{Pos: vec.Vec{float64(i%6) * 20, float64(i/6) * 20}, Height: 1}
	}
	cand := []int{0, 1, 2, 3}
	mgr, err := NewManager(Config{K: 2, M: 8, Dims: 2, IngestShards: shards}, cand, coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, coords
}

func TestManagerRecordBatchAt(t *testing.T) {
	for _, shards := range []int{0, 4} {
		mgr, _ := batchManager(t, shards)
		rep := mgr.Replicas()[0]
		clients := []int{4, 5, 6, 7, 8}
		weights := []float64{1, 2, 3, 4, 5}
		if err := mgr.RecordBatchAt(rep, clients, weights); err != nil {
			t.Fatal(err)
		}
		if err := mgr.RecordBatchAt(rep, clients, nil); err != nil {
			t.Fatal(err)
		}
		if err := mgr.RecordBatchAt(99, clients, weights); err == nil {
			t.Fatal("recorded at a node with no replica")
		}
		dec, err := mgr.EndEpoch(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if dec.CollectedBytes == 0 {
			t.Fatal("no summary collected after batch ingest")
		}
	}
}

// TestManagerShardedConfig rejects invalid shard configurations.
func TestManagerShardedConfig(t *testing.T) {
	coords := make([]coord.Coordinate, 8)
	for i := range coords {
		coords[i] = coord.Coordinate{Pos: vec.Vec{float64(i), 0}}
	}
	cand := []int{0, 1}
	if _, err := NewManager(Config{K: 1, M: 4, Dims: 2, IngestShards: 3}, cand, coords, nil); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	if _, err := NewManager(Config{K: 1, M: 4, Dims: 2, IngestShards: -1}, cand, coords, nil); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewManager(Config{K: 1, M: 4, Dims: 2, IngestShards: 4, WindowEpochs: 2}, cand, coords, nil); err == nil {
		t.Error("sharded windowed summaries accepted")
	}
}

// TestShardedServerConcurrentRecordBatch stresses the concurrent
// contract at the server level: writers on RecordBatch while Export and
// Decay run. Meaningful under -race.
func TestShardedServerConcurrentRecordBatch(t *testing.T) {
	clients, pos, weights := ingestFixture(t, 32)
	srv, err := NewShardedServer(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * len(clients) / 4
			hi := (w + 1) * len(clients) / 4
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := srv.RecordBatch(clients[lo:hi], pos, weights[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 30; i++ {
		if _, err := srv.ExportInto(nil); err != nil {
			t.Error(err)
			break
		}
		if err := srv.Decay(0.8); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	ms, err := srv.ExportInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if !ms[i].Sum.IsFinite() {
			t.Fatalf("non-finite cluster %+v", ms[i])
		}
	}
	_ = cluster.MergeDown(ms, 4) // exercised for coverage of the export type
}
