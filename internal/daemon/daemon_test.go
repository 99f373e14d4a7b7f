package daemon

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/transport"
)

func startNode(t *testing.T, cfg Config) (*Node, *Client) {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	c, err := DialNode(n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return n, c
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{MicroClusters: 0, Dims: 2}); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewNode(Config{MicroClusters: 4, Dims: 0}); err == nil {
		t.Error("dims=0 should fail")
	}
}

func TestGetPutDeleteCycle(t *testing.T) {
	n, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})

	if err := c.Put("obj", []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	resp, rtt, err := c.Get(7, []float64{1, 2}, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "payload" || resp.Version != 1 {
		t.Errorf("get = %+v", resp)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}

	// The read was summarized.
	ms, bytes, err := c.Micros()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Count != 1 {
		t.Errorf("micros = %+v", ms)
	}
	if bytes <= 0 {
		t.Error("wire size not accounted")
	}
	if ms[0].Weight != 7 { // len("payload")
		t.Errorf("weight = %v, want 7 (payload bytes)", ms[0].Weight)
	}

	if err := c.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(7, []float64{1, 2}, "obj"); err == nil {
		t.Error("get after delete should fail")
	}
	if n.store.Len() != 0 {
		t.Error("store not empty after delete")
	}
}

func TestGetMissingObject(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	_, _, err := c.Get(1, []float64{0, 0}, "ghost")
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestStaleWriteRejected(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := c.Put("o", []byte("v2"), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("o", []byte("v1"), 1); err == nil {
		t.Error("stale put should fail")
	}
}

func TestDelayEmulation(t *testing.T) {
	const want = 50 * time.Millisecond
	_, c := startNode(t, Config{
		ID: 1, MicroClusters: 4, Dims: 2,
		Delay: func(client int) time.Duration { return want },
	})
	if err := c.Put("o", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	_, rtt, err := c.Get(3, []float64{0, 0}, "o")
	if err != nil {
		t.Fatal(err)
	}
	if rtt < want {
		t.Errorf("rtt %v below emulated %v", rtt, want)
	}
	// Puts are not delayed.
	start := time.Now()
	if err := c.Put("o2", []byte("y"), 1); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > want {
		t.Errorf("put took %v, should not be delayed", el)
	}
}

func TestDecayOverWire(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := c.Put("o", []byte("abcd"), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := c.Get(1, []float64{5, 5}, "o"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Decay(0.5); err != nil {
		t.Fatal(err)
	}
	ms, _, err := c.Micros()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Count != 4 {
		t.Errorf("decayed micros = %+v", ms)
	}
	if err := c.Decay(0); err == nil {
		t.Error("factor 0 should fail remotely")
	}
}

// TestDecayRefusesNaN: a NaN factor is refused over the wire and both the
// node-wide and the per-object summaries keep their micro-clusters.
func TestDecayRefusesNaN(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2, PerObjectSummaries: true})
	if err := c.Put("o", []byte("abcd"), 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]float64{{0, 0}, {50, 0}, {0, 50}, {50, 50}} {
		if _, _, err := c.Get(1, p, "o"); err != nil {
			t.Fatal(err)
		}
	}
	summaries := func() (node, obj []cluster.Micro) {
		t.Helper()
		node, _, err := c.Micros()
		if err != nil {
			t.Fatal(err)
		}
		obj, _, err = c.MicrosObjectCtx(context.Background(), "o")
		if err != nil {
			t.Fatal(err)
		}
		return node, obj
	}
	wantNode, wantObj := summaries()
	if len(wantNode) != 4 || len(wantObj) != 4 {
		t.Fatalf("%d node-wide and %d per-object micros before the decay, want 4 and 4", len(wantNode), len(wantObj))
	}
	var remote *transport.RemoteError
	if err := c.Decay(math.NaN()); !errors.As(err, &remote) {
		t.Fatalf("Decay(NaN) = %v, want a RemoteError", err)
	}
	if node, obj := summaries(); !reflect.DeepEqual(node, wantNode) || !reflect.DeepEqual(obj, wantObj) {
		t.Fatalf("a refused NaN decay moved the summaries:\nnode-wide %+v\nper-object %+v", node, obj)
	}
}

// TestIdempotentMethodsAreAllButDecay: every method the node serves is
// marked safe to retry except decay, whose repeat would age the summary
// twice.
func TestIdempotentMethodsAreAllButDecay(t *testing.T) {
	n, err := NewNode(Config{MicroClusters: 4, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	missing := make(map[string]bool)
	for m := range n.handlers() {
		missing[m] = true
	}
	for _, m := range IdempotentMethods() {
		if !missing[m] {
			t.Errorf("IdempotentMethods lists %q, which the node does not serve (or lists it twice)", m)
		}
		delete(missing, m)
	}
	if len(missing) != 1 || !missing[MethodDecay] {
		t.Fatalf("methods left out of IdempotentMethods: %v, want only %s", missing, MethodDecay)
	}
}

func TestStatsAndPing(t *testing.T) {
	_, c := startNode(t, Config{ID: 9, MicroClusters: 4, Dims: 2})
	if err := c.Put("a", []byte("12345"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(1, []float64{0, 0}, "a"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != 9 || st.Objects != 1 || st.Bytes != 5 || st.Accesses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if rtt, err := c.Ping(); err != nil || rtt <= 0 {
		t.Errorf("ping = %v, %v", rtt, err)
	}
}

func TestGetWithoutCoordinateSkipsSummary(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := c.Put("o", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	// Wrong-dimension coordinate: the read succeeds but is not
	// summarized (the daemon cannot place it in its space).
	if _, _, err := c.Get(1, []float64{1, 2, 3}, "o"); err != nil {
		t.Fatal(err)
	}
	ms, _, err := c.Micros()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("summary should be empty, got %+v", ms)
	}
}

// One get with a non-finite Bytes (the access weight) used to sit in the
// summary as NaN through every decay and reach the coordinator's k-means.
// It is refused by name, nothing of it is summarized, and the node keeps
// serving on the same connection.
func TestPoisonedGetRefused(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := c.Put("o", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var resp GetResponse
		_, err := c.c.Call(MethodGet, GetRequest{Client: 1, ClientCoord: []float64{1, 2}, Object: "o", Bytes: bad}, &resp)
		if err == nil || !strings.Contains(err.Error(), "non-finite bytes") {
			t.Fatalf("get with Bytes=%v: err = %v, want a non-finite refusal", bad, err)
		}
	}
	if ms, _, err := c.Micros(); err != nil || len(ms) != 0 {
		t.Fatalf("micros after the refused gets = %+v, %v; want an empty summary", ms, err)
	}
	if resp, _, err := c.Get(1, []float64{1, 2}, "o"); err != nil || string(resp.Data) != "x" {
		t.Fatalf("get after the refused gets = %+v, %v", resp, err)
	}
	ms, _, err := c.Micros()
	if err != nil || len(ms) != 1 || ms[0].Weight != 1 {
		t.Fatalf("micros after a clean get = %+v, %v; want one cluster of weight 1", ms, err)
	}
}

func TestPreloadedStore(t *testing.T) {
	n, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := n.store.Put(store.Object{ID: "pre", Data: []byte("loaded"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.Get(1, []float64{0, 0}, "pre")
	if err != nil || string(resp.Data) != "loaded" {
		t.Errorf("get preloaded: %v %+v", err, resp)
	}
}

func TestAddrBeforeStart(t *testing.T) {
	n, err := NewNode(Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n.Addr() != "" {
		t.Errorf("Addr before Start = %q", n.Addr())
	}
}
