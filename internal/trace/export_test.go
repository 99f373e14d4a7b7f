package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTrace() Trace {
	return Trace{
		TraceID: "aabb",
		Anomaly: "degraded",
		Spans: []Span{
			{TraceID: "aabb", SpanID: "01", Name: "epoch", Kind: KindEpoch, Node: "coord", StartNs: 0, DurNs: 50_000_000},
			{TraceID: "aabb", SpanID: "02", ParentID: "01", Name: "collect dc1", Kind: KindCollect, Node: "coord", StartNs: 1_000_000, DurNs: 9_000_000},
			{TraceID: "aabb", SpanID: "03", ParentID: "02", Name: "daemon.micros", Kind: KindServer, Node: "node1", StartNs: 2_000_000, DurNs: 3_000_000},
			{TraceID: "aabb", SpanID: "04", ParentID: "01", Name: "collect dc2", Kind: KindCollect, Node: "coord", StartNs: 12_000_000, DurNs: 20_000_000, Err: "node down: dc2"},
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Trace{sampleTrace(), {TraceID: "ccdd", Spans: []Span{
		{TraceID: "ccdd", SpanID: "0a", Name: "epoch", StartNs: 100, DurNs: 7, Attrs: Attrs{{Key: "k", Value: "3"}}},
	}}}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // 5 spans + 1 anomaly marker
		t.Fatalf("want 6 JSONL lines, got %d", len(lines))
	}
	if lines[0] != "# anomaly aabb degraded" {
		t.Fatalf("anomaly marker: %q", lines[0])
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].TraceID != "aabb" || out[1].TraceID != "ccdd" {
		t.Fatalf("round trip traces: %+v", out)
	}
	if out[0].Anomaly != "degraded" || out[1].Anomaly != "" {
		t.Fatalf("anomaly round trip: %q %q", out[0].Anomaly, out[1].Anomaly)
	}
	if len(out[0].Spans) != 4 {
		t.Fatalf("trace 0 spans: %d", len(out[0].Spans))
	}
	if out[0].Spans[3].Err != "node down: dc2" {
		t.Fatalf("err lost: %+v", out[0].Spans[3])
	}
	if attr(out[1].Spans[0].Attrs, "k") != "3" {
		t.Fatal("attrs lost")
	}
}

func TestReadJSONLSkipsBlanksAndComments(t *testing.T) {
	src := "# exported by georepd\n\n" +
		`{"trace_id":"t","span_id":"s","name":"x","start_ns":1,"dur_ns":2}` + "\n"
	out, err := ReadJSONL(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Spans) != 1 {
		t.Fatalf("parsed %+v", out)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"name":"no-ids"}` + "\n")); err == nil {
		t.Fatal("span without ids accepted")
	}
}

func TestMergeDeduplicatesAndOrders(t *testing.T) {
	coord := []Trace{sampleTrace()}
	// daemon view: overlaps on span 03, adds span 05, knows no anomaly
	daemon := []Trace{{TraceID: "aabb", Spans: []Span{
		{TraceID: "aabb", SpanID: "03", ParentID: "02", Name: "daemon.micros", Node: "node1", StartNs: 2_000_000, DurNs: 3_000_000},
		{TraceID: "aabb", SpanID: "05", ParentID: "01", Name: "daemon.decay", Node: "node1", StartNs: 40_000_000, DurNs: 1_000_000},
	}}, {TraceID: "eeff", Spans: []Span{{TraceID: "eeff", SpanID: "0x", Name: "r", StartNs: 5, DurNs: 1}}}}
	merged := Merge(coord, daemon)
	if len(merged) != 2 {
		t.Fatalf("merged %d traces", len(merged))
	}
	if merged[0].TraceID != "aabb" || merged[1].TraceID != "eeff" {
		t.Fatalf("order: %s %s", merged[0].TraceID, merged[1].TraceID)
	}
	if merged[0].Anomaly != "degraded" {
		t.Fatal("anomaly lost in merge")
	}
	if len(merged[0].Spans) != 5 {
		t.Fatalf("dedup failed: %d spans", len(merged[0].Spans))
	}
	for i := 1; i < len(merged[0].Spans); i++ {
		if merged[0].Spans[i].StartNs < merged[0].Spans[i-1].StartNs {
			t.Fatal("merged spans not start-sorted")
		}
	}
}

func TestChromeTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Trace{sampleTrace()}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	var meta, complete int
	tids := make(map[float64]string)
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
			args := ev["args"].(map[string]any)
			tids[ev["tid"].(float64)] = args["name"].(string)
		case "X":
			complete++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != 4 {
		t.Fatalf("complete events: %d", complete)
	}
	if meta != 2 { // coord + node1 swimlanes
		t.Fatalf("thread metadata events: %d (%v)", meta, tids)
	}
	// timestamps must be microseconds
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" || ev["name"] != "epoch" {
			continue
		}
		if dur := ev["dur"].(float64); dur != 50_000 {
			t.Fatalf("epoch dur %v µs, want 50000", dur)
		}
		args := ev["args"].(map[string]any)
		if args["anomaly"] != "degraded" || args["trace_id"] != "aabb" {
			t.Fatalf("args: %v", args)
		}
	}
}

func TestRenderTree(t *testing.T) {
	out := RenderTree(sampleTrace())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "aabb") || !strings.Contains(lines[0], "degraded") {
		t.Fatalf("header: %q", lines[0])
	}
	// depth: epoch at 1, collects at 2, server span at 3
	if !strings.HasPrefix(lines[1], "  epoch") {
		t.Fatalf("root line: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    collect dc1") {
		t.Fatalf("child line: %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "      daemon.micros") {
		t.Fatalf("grandchild line: %q", lines[3])
	}
	if !strings.Contains(lines[4], "ERR: node down: dc2") {
		t.Fatalf("error not rendered: %q", lines[4])
	}
	if !strings.Contains(lines[3], "@node1") {
		t.Fatalf("node not rendered: %q", lines[3])
	}
}

func TestRenderTreeOrphanSpansBecomeRoots(t *testing.T) {
	tr := Trace{TraceID: "t", Spans: []Span{
		{TraceID: "t", SpanID: "s1", ParentID: "missing", Name: "orphan", StartNs: 5, DurNs: 1},
	}}
	out := RenderTree(tr)
	if !strings.Contains(out, "orphan") {
		t.Fatalf("orphan span dropped:\n%s", out)
	}
}
