package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestEpochTraceJSONRoundTripStable(t *testing.T) {
	in := EpochTrace{
		Epoch:            12,
		Migrated:         true,
		K:                3,
		Replicas:         []int{0, 4, 9},
		EstimatedOldMs:   81.25,
		EstimatedNewMs:   64.5,
		ActualMeanMs:     70.125,
		Accesses:         100_000,
		MovedReplicas:    2,
		SummaryBytes:     4096,
		Degraded:         true,
		MissingSummaries: []int{4},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out EpochTrace
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drift:\n in=%+v\nout=%+v", in, out)
	}
	// A second marshal must be byte-identical — the georepctl metrics
	// output and EXPERIMENTS snippets depend on stable field order.
	b2, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("marshal not stable:\n%s\n%s", b, b2)
	}
}

func TestEpochTraceOmitsHealthyFields(t *testing.T) {
	b, err := json.Marshal(EpochTrace{Epoch: 1, K: 2, Replicas: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, absent := range []string{"degraded", "missing_summaries"} {
		if contains := json.Valid(b) && jsonHasKey(s, absent); contains {
			t.Fatalf("healthy trace serialized %q: %s", absent, s)
		}
	}
}

func jsonHasKey(s, key string) bool {
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

func TestTraceRingSnapshotJSONRoundTrip(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		ring.Add(EpochTrace{Epoch: i, K: 3, Replicas: []int{i}})
	}
	snap := ring.Snapshot()
	if len(snap) != 4 || snap[0].Epoch != 3 || snap[3].Epoch != 6 {
		t.Fatalf("ring window: %+v", snap)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var out []EpochTrace
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, out) {
		t.Fatalf("ring snapshot round trip drift:\n in=%+v\nout=%+v", snap, out)
	}
}

func TestTraceRingConcurrentAdd(t *testing.T) {
	ring := NewTraceRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ring.Add(EpochTrace{Epoch: w*100 + i})
			}
		}(w)
	}
	wg.Wait()
	// snapshot during quiescence must be internally consistent: a full
	// window of distinct epochs
	snap := ring.Snapshot()
	seen := make(map[int]bool, len(snap))
	for _, e := range snap {
		seen[e.Epoch] = true
	}
	if len(snap) != 32 || len(seen) != 32 {
		t.Fatalf("snapshot len %d, %d distinct", len(snap), len(seen))
	}
}
