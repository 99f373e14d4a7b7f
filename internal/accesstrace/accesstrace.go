// Package accesstrace records and replays data-access traces. The paper
// closes with "we also plan to carry out more realistic evaluation study
// based on data accesses in actual applications" — this package is that
// hook: a plain CSV trace format any application log can be converted
// into, and a replay engine that drives the replica manager epoch by
// epoch and reports the latencies clients would have seen.
package accesstrace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/stats"
)

// Event is one recorded access.
type Event struct {
	// TimeMs is the event time in milliseconds from trace start.
	TimeMs float64
	// Client is the accessing node's index.
	Client int
	// Group names the object group accessed (the paper's virtual
	// object).
	Group string
	// Bytes is the transfer size (summary weight).
	Bytes float64
}

// Write serializes events as CSV: time_ms,client,group,bytes — one per
// line, with a header. Groups containing commas are rejected.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_ms,client,group,bytes"); err != nil {
		return err
	}
	for i, e := range events {
		if strings.ContainsAny(e.Group, ",\n") {
			return fmt.Errorf("accesstrace: event %d group %q contains a delimiter", i, e.Group)
		}
		if _, err := fmt.Fprintf(bw, "%g,%d,%s,%g\n", e.TimeMs, e.Client, e.Group, e.Bytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a CSV trace produced by Write (header optional). Events
// are returned in file order; Replay sorts as needed.
func Read(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(line, "time_ms") {
			continue // header
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("accesstrace: line %d has %d fields, want 4", lineNo, len(parts))
		}
		t, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("accesstrace: line %d time: %w", lineNo, err)
		}
		client, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("accesstrace: line %d client: %w", lineNo, err)
		}
		bytes, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, fmt.Errorf("accesstrace: line %d bytes: %w", lineNo, err)
		}
		if t < 0 || client < 0 || bytes < 0 {
			return nil, fmt.Errorf("accesstrace: line %d has negative values", lineNo)
		}
		group := parts[2]
		if group == "" {
			return nil, fmt.Errorf("accesstrace: line %d has empty group", lineNo)
		}
		events = append(events, Event{TimeMs: t, Client: client, Group: group, Bytes: bytes})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("accesstrace: read: %w", err)
	}
	return events, nil
}

// ReplayConfig drives a trace through a replica group manager.
type ReplayConfig struct {
	// EpochMs is the coordinator period: every EpochMs of trace time the
	// manager collects summaries and may migrate.
	EpochMs float64
	// SeedBase derives the per-epoch clustering seeds.
	SeedBase int64
}

// ReplayResult summarizes a replay.
type ReplayResult struct {
	// Accesses is the number of events replayed.
	Accesses int
	// MeanDelayMs is the mean true RTT clients experienced across the
	// whole trace (placement changes take effect mid-trace).
	MeanDelayMs float64
	// Epochs is how many coordinator cycles ran.
	Epochs int
	// Migrations counts adopted placement changes across groups.
	Migrations int
	// SummaryBytes is the cumulative wire cost of all collections.
	SummaryBytes int
	// FinalReplicas maps each group to its placement at trace end.
	FinalReplicas map[string][]int
}

// Replay pushes events (sorted by time) through the group manager,
// invoking the epoch cycle at every EpochMs boundary, and measures the
// ground-truth delay of each access using rtt.
func Replay(events []Event, gm *replica.GroupManager, coords []coord.Coordinate,
	rtt func(client, replica int) float64, cfg ReplayConfig) (*ReplayResult, error) {
	if cfg.EpochMs <= 0 {
		return nil, fmt.Errorf("accesstrace: EpochMs must be positive, got %v", cfg.EpochMs)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("accesstrace: no events")
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeMs < sorted[j].TimeMs })

	res := &ReplayResult{FinalReplicas: make(map[string][]int)}
	var delay stats.Accumulator
	nextEpoch := cfg.EpochMs
	endEpoch := func() error {
		decs, err := gm.EndEpoch(rand.New(rand.NewSource(cfg.SeedBase + int64(res.Epochs))))
		if err != nil {
			return err
		}
		res.Epochs++
		for _, dec := range decs {
			if dec.Migrate && dec.MovedReplicas > 0 {
				res.Migrations++
			}
			res.SummaryBytes += dec.CollectedBytes
		}
		return nil
	}

	for _, e := range sorted {
		for e.TimeMs >= nextEpoch {
			if err := endEpoch(); err != nil {
				return nil, err
			}
			nextEpoch += cfg.EpochMs
		}
		if e.Client < 0 || e.Client >= len(coords) {
			return nil, fmt.Errorf("accesstrace: event client %d outside coordinate range", e.Client)
		}
		rep, err := gm.Record(e.Group, coords[e.Client], e.Bytes)
		if err != nil {
			return nil, err
		}
		delay.Add(rtt(e.Client, rep))
		res.Accesses++
	}
	if err := endEpoch(); err != nil {
		return nil, err
	}

	res.MeanDelayMs = delay.Mean()
	for _, g := range gm.Groups() {
		reps, err := gm.Replicas(g)
		if err != nil {
			return nil, err
		}
		res.FinalReplicas[g] = reps
	}
	return res, nil
}
