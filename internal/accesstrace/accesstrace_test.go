package accesstrace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/vec"
)

func TestWriteReadRoundTrip(t *testing.T) {
	events := []Event{
		{TimeMs: 0.5, Client: 3, Group: "videos", Bytes: 1024},
		{TimeMs: 10, Client: 7, Group: "images", Bytes: 2},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != events[0] || back[1] != events[1] {
		t.Errorf("round trip: %+v", back)
	}
}

func TestWriteRejectsDelimiterInGroup(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Event{{Group: "a,b"}}); err == nil {
		t.Error("comma in group should fail")
	}
}

func TestReadSkipsHeaderAndComments(t *testing.T) {
	in := "time_ms,client,group,bytes\n# comment\n\n1,2,g,3\n"
	events, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Client != 2 {
		t.Errorf("events = %+v", events)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"short row":   "1,2,g\n",
		"bad time":    "x,2,g,3\n",
		"bad client":  "1,x,g,3\n",
		"bad bytes":   "1,2,g,x\n",
		"negative":    "-1,2,g,3\n",
		"empty group": "1,2,,3\n",
		"neg client":  "1,-2,g,3\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(in)); err == nil {
				t.Errorf("input %q should fail", in)
			}
		})
	}
	// Empty input yields an empty (nil) trace without error.
	events, err := Read(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty input: %v, %v", events, err)
	}
}

// replayFixture: candidates at x = 0,50,100,150 (nodes 0-3); clients at
// x = 10 (node 4) and x = 140 (node 5).
func replayFixture(t *testing.T) (*replica.GroupManager, []coord.Coordinate, func(int, int) float64) {
	t.Helper()
	xs := []float64{0, 50, 100, 150, 10, 140}
	coords := make([]coord.Coordinate, len(xs))
	for i, x := range xs {
		coords[i] = coord.Coordinate{Pos: vec.Vec{x, 0}}
	}
	gm, err := replica.NewGroupManager(replica.Config{K: 1, M: 4, Dims: 2},
		[]int{0, 1, 2, 3}, coords)
	if err != nil {
		t.Fatal(err)
	}
	rtt := func(a, b int) float64 {
		d := xs[a] - xs[b]
		if d < 0 {
			d = -d
		}
		return d
	}
	return gm, coords, rtt
}

func TestReplayMigratesTowardTrace(t *testing.T) {
	gm, coords, rtt := replayFixture(t)
	// All accesses come from node 5 (x=140): after the first epoch the
	// single replica should sit at candidate 3 (x=150).
	var events []Event
	for i := 0; i < 60; i++ {
		events = append(events, Event{TimeMs: float64(i * 10), Client: 5, Group: "g", Bytes: 1})
	}
	res, err := Replay(events, gm, coords, rtt, ReplayConfig{EpochMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 60 {
		t.Errorf("accesses = %d", res.Accesses)
	}
	if res.Epochs < 5 {
		t.Errorf("epochs = %d, want >= 5 over 600ms at 100ms period", res.Epochs)
	}
	final := res.FinalReplicas["g"]
	if len(final) != 1 || final[0] != 3 {
		t.Errorf("final replicas = %v, want [3]", final)
	}
	if res.Migrations == 0 {
		t.Error("expected at least one migration")
	}
	if res.SummaryBytes <= 0 {
		t.Error("summary bytes not accounted")
	}
	// Initial placement (candidate 0) costs 140 per access; after the
	// first migration it drops to 10, so the trace-wide mean must be far
	// below 140.
	if res.MeanDelayMs > 80 {
		t.Errorf("mean delay %v too high — migration ineffective", res.MeanDelayMs)
	}
}

func TestReplayOutOfOrderEventsSorted(t *testing.T) {
	gm, coords, rtt := replayFixture(t)
	events := []Event{
		{TimeMs: 500, Client: 5, Group: "g", Bytes: 1},
		{TimeMs: 1, Client: 4, Group: "g", Bytes: 1},
	}
	res, err := Replay(events, gm, coords, rtt, ReplayConfig{EpochMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 2 {
		t.Errorf("accesses = %d", res.Accesses)
	}
}

func TestReplayValidation(t *testing.T) {
	gm, coords, rtt := replayFixture(t)
	if _, err := Replay(nil, gm, coords, rtt, ReplayConfig{EpochMs: 100}); err == nil {
		t.Error("no events should fail")
	}
	events := []Event{{TimeMs: 1, Client: 99, Group: "g", Bytes: 1}}
	if _, err := Replay(events, gm, coords, rtt, ReplayConfig{EpochMs: 100}); err == nil {
		t.Error("out-of-range client should fail")
	}
	if _, err := Replay(events, gm, coords, rtt, ReplayConfig{EpochMs: 0}); err == nil {
		t.Error("zero epoch should fail")
	}
}
