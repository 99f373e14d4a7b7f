package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/georep/georep/internal/trace"
)

// The figures themselves are pinned by golden_test.go; these tests
// cover the CLI's error paths and the trace export formats.

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                           // nothing to do
		{"-coord", "bogus", "-all"},  // unknown algorithm
		{"-fig", "1", "-runs", "0"},  // no runs
		{"-fig", "1", "-nodes", "2"}, // world too small
		{"-unknown-flag"},            // flag error
		{"-fig", "1", "-runs", "1", "-nodes", "10"}, // numDCs=30 > nodes → instance error
	}
	for _, args := range cases {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestRunFailuresTraceExport drives the seeded fault run end to end and
// checks both export formats: the JSONL replays into span trees where a
// degraded epoch's trace names the faulted node, and the Chrome file is
// valid trace_event JSON.
func TestRunFailuresTraceExport(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "spans.jsonl")
	chrome := filepath.Join(dir, "spans.chrome.json")
	if err := run(io.Discard, []string{"-fig", "failures", "-fault-seed", "1",
		"-trace-out", jsonl, "-trace-chrome", chrome}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no span trees exported")
	}
	var sawFaultedDegraded bool
	for _, tr := range traces {
		if tr.Anomaly != "degraded" && tr.Anomaly != "below_quorum" {
			continue
		}
		nodes := map[string]bool{}
		named := false
		for _, s := range tr.Spans {
			nodes[s.Node] = true
			if s.Err != "" && (strings.Contains(s.Err, "crashed") ||
				strings.Contains(s.Err, "partitioned") || strings.Contains(s.Err, "dropping")) {
				named = true
			}
		}
		if named && len(nodes) > 1 {
			sawFaultedDegraded = true
		}
	}
	if !sawFaultedDegraded {
		t.Fatal("no degraded epoch trace spans multiple nodes and names its fault")
	}

	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("chrome trace has no complete events")
	}
}
