package daemon

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/explain"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
)

// coldViewsLedger is the committed seeded ledger georepctl's explain
// goldens read.
var coldViewsLedger = filepath.Join("..", "..", "cmd", "georepctl", "testdata", "explain_seed")

// TestColdViewsPinned pins what georepctl renders from the cold methods
// of a three-node in-process cluster after a fixed call sequence: coord,
// list, stats, the daemon_rpc_* counters of metrics, the slo spec and
// objective names, the trace span names and the explain bytes over a
// committed ledger. The values do not depend on how the bodies are
// encoded.
func TestColdViewsPinned(t *testing.T) {
	explainJSON := func(epoch int, objectID string) ([]byte, error) {
		recs, err := ledger.ReadDir(coldViewsLedger)
		if err != nil {
			return nil, err
		}
		rep, err := explain.Build(recs, explain.Options{Epoch: epoch, ObjectID: objectID})
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	const spec = "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001; read_p99 p99(daemon_rpc_get_ms) <= 50"
	var clients []*Client
	for i := 0; i < 3; i++ {
		n, err := NewNode(Config{
			ID: i, MicroClusters: 4, Dims: 2,
			Coordinate: []float64{100 * float64(i), float64(i) - 1}, Height: 0.5 * float64(i),
			Trace:   trace.NewFlightRecorder(16, 4),
			SLOSpec: spec, SLOInterval: time.Hour,
			ExplainJSON: explainJSON,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		tr := trace.New(trace.NewFlightRecorder(16, 4), "coordinator")
		c, err := DialNode(n.Addr(), time.Second, transport.WithClientTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)

		// The fixed call sequence: node i stores i+1 objects, serves
		// traced reads of them and one of a missing object, decays and
		// exports its summary.
		root := tr.StartRoot("epoch", trace.KindEpoch)
		ctx := trace.ContextWithSpan(context.Background(), root)
		for j := 0; j <= i; j++ {
			if err := c.PutCtx(ctx, fmt.Sprintf("obj-%d", j), make([]byte, 10*(j+1)), uint64(j+1)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.GetCtx(ctx, j, []float64{float64(j), 1}, fmt.Sprintf("obj-%d", j)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := c.GetCtx(ctx, 9, []float64{0, 0}, "missing"); err == nil {
			t.Fatal("a get of a missing object succeeded")
		}
		if err := c.DecayCtx(ctx, 0.5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.MicrosCtx(ctx); err != nil {
			t.Fatal(err)
		}
		root.End()
	}

	var got []string
	for i, c := range clients {
		cr, err := c.Coord()
		if err != nil {
			t.Fatal(err)
		}
		objs, err := c.List()
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		sl, err := c.SLO()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, o := range sl.Objectives {
			names = append(names, o.Name)
		}
		ts, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var spans []string
		for _, tt := range ts {
			for _, s := range tt.Spans {
				spans = append(spans, s.Node+":"+s.Name)
			}
		}
		sort.Strings(spans)
		rep, err := c.Explain(5, "")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(rep)
		snap, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		var rpc []string
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "daemon_rpc_") && v != 0 {
				rpc = append(rpc, fmt.Sprintf("%s=%d", name, v))
			}
		}
		sort.Strings(rpc)
		got = append(got,
			fmt.Sprintf("node %d coord %+v", i, cr),
			fmt.Sprintf("node %d list %q", i, objs),
			fmt.Sprintf("node %d stats %+v", i, st),
			fmt.Sprintf("node %d slo %q %q", i, sl.Spec, names),
			fmt.Sprintf("node %d trace %q", i, spans),
			fmt.Sprintf("node %d explain %d B sha256 %s", i, len(rep), hex.EncodeToString(sum[:])),
			fmt.Sprintf("node %d metrics %s", i, strings.Join(rpc, " ")),
		)
	}
	want := []string{
		`node 0 coord {Node:0 Pos:[0 -1] Height:0}`,
		`node 0 list ["obj-0"]`,
		`node 0 stats {Node:0 Objects:1 Bytes:10 Accesses:1}`,
		`node 0 slo "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001 budget 0.001; read_p99 p99(daemon_rpc_get_ms) <= 50 budget 0.010000000000000009" ["avail" "read_p99"]`,
		`node 0 trace ["node0:serve.decay" "node0:serve.get" "node0:serve.get" "node0:serve.micros" "node0:serve.put"]`,
		`node 0 explain 983 B sha256 6434b678fc7ec43df4f502b6c9a8a5532d6797b427155f8a11dd372cc5cc0fb3`,
		`node 0 metrics daemon_rpc_coord_total=1 daemon_rpc_decay_total=1 daemon_rpc_errors_total=1 daemon_rpc_explain_total=1 daemon_rpc_get_errors_total=1 daemon_rpc_get_total=2 daemon_rpc_list_total=1 daemon_rpc_micros_total=1 daemon_rpc_put_total=1 daemon_rpc_slo_total=1 daemon_rpc_stats_total=1 daemon_rpc_total=11 daemon_rpc_trace_total=1`,
		`node 1 coord {Node:1 Pos:[100 0] Height:0.5}`,
		`node 1 list ["obj-0" "obj-1"]`,
		`node 1 stats {Node:1 Objects:2 Bytes:30 Accesses:2}`,
		`node 1 slo "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001 budget 0.001; read_p99 p99(daemon_rpc_get_ms) <= 50 budget 0.010000000000000009" ["avail" "read_p99"]`,
		`node 1 trace ["node1:serve.decay" "node1:serve.get" "node1:serve.get" "node1:serve.get" "node1:serve.micros" "node1:serve.put" "node1:serve.put"]`,
		`node 1 explain 983 B sha256 6434b678fc7ec43df4f502b6c9a8a5532d6797b427155f8a11dd372cc5cc0fb3`,
		`node 1 metrics daemon_rpc_coord_total=1 daemon_rpc_decay_total=1 daemon_rpc_errors_total=1 daemon_rpc_explain_total=1 daemon_rpc_get_errors_total=1 daemon_rpc_get_total=3 daemon_rpc_list_total=1 daemon_rpc_micros_total=1 daemon_rpc_put_total=2 daemon_rpc_slo_total=1 daemon_rpc_stats_total=1 daemon_rpc_total=13 daemon_rpc_trace_total=1`,
		`node 2 coord {Node:2 Pos:[200 1] Height:1}`,
		`node 2 list ["obj-0" "obj-1" "obj-2"]`,
		`node 2 stats {Node:2 Objects:3 Bytes:60 Accesses:3}`,
		`node 2 slo "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001 budget 0.001; read_p99 p99(daemon_rpc_get_ms) <= 50 budget 0.010000000000000009" ["avail" "read_p99"]`,
		`node 2 trace ["node2:serve.decay" "node2:serve.get" "node2:serve.get" "node2:serve.get" "node2:serve.get" "node2:serve.micros" "node2:serve.put" "node2:serve.put" "node2:serve.put"]`,
		`node 2 explain 983 B sha256 6434b678fc7ec43df4f502b6c9a8a5532d6797b427155f8a11dd372cc5cc0fb3`,
		`node 2 metrics daemon_rpc_coord_total=1 daemon_rpc_decay_total=1 daemon_rpc_errors_total=1 daemon_rpc_explain_total=1 daemon_rpc_get_errors_total=1 daemon_rpc_get_total=4 daemon_rpc_list_total=1 daemon_rpc_micros_total=1 daemon_rpc_put_total=3 daemon_rpc_slo_total=1 daemon_rpc_stats_total=1 daemon_rpc_total=15 daemon_rpc_trace_total=1`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cold views moved:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}
