package georep

import (
	"fmt"
	"io"

	"github.com/georep/georep/internal/accesstrace"
	"github.com/georep/georep/internal/replica"
)

// AccessEvent is one entry of an application access trace: who read
// which object group, when, and how many bytes moved. Convert production
// logs into this form (or the CSV format of ReadTrace) to evaluate the
// placement system against real demand.
type AccessEvent struct {
	// TimeMs is milliseconds from trace start.
	TimeMs float64
	// Client is the accessing node's index in the deployment.
	Client int
	// Group names the accessed object group.
	Group string
	// Bytes is the transfer size (summary weight).
	Bytes float64
}

// ReadTrace parses a CSV access trace: `time_ms,client,group,bytes` per
// line, optional header, `#` comments allowed.
func ReadTrace(r io.Reader) ([]AccessEvent, error) {
	events, err := accesstrace.Read(r)
	if err != nil {
		return nil, fmt.Errorf("georep: %w", err)
	}
	out := make([]AccessEvent, len(events))
	for i, e := range events {
		out[i] = AccessEvent(e)
	}
	return out, nil
}

// WriteTrace serializes events in the format ReadTrace parses.
func WriteTrace(w io.Writer, events []AccessEvent) error {
	conv := make([]accesstrace.Event, len(events))
	for i, e := range events {
		conv[i] = accesstrace.Event(e)
	}
	if err := accesstrace.Write(w, conv); err != nil {
		return fmt.Errorf("georep: %w", err)
	}
	return nil
}

// ReplayConfig drives a trace replay.
type ReplayConfig struct {
	// Manager configures each group's replica manager, under the rules
	// of NewGroupSet: groups start at the first K candidates, and
	// InitialReplicas, Tracing, Ledger and Provenance are refused.
	Manager ManagerConfig
	// EpochMs is the coordinator period in trace time.
	EpochMs float64
	// Seed derives per-epoch clustering randomness.
	Seed int64
}

// ReplayResult summarizes a replay.
type ReplayResult struct {
	// Accesses replayed.
	Accesses int
	// MeanDelayMs is the ground-truth mean RTT clients experienced over
	// the whole trace, including the epochs before migration caught up.
	MeanDelayMs float64
	// Epochs and Migrations count coordinator cycles and adopted moves.
	Epochs     int
	Migrations int
	// SummaryBytes is the cumulative collection wire cost.
	SummaryBytes int
	// FinalReplicas maps each group to its placement at trace end.
	FinalReplicas map[string][]int
}

// Replay runs an access trace against the deployment: accesses route to
// the predicted-closest replica of their group, summaries accumulate,
// and every EpochMs the coordinator may migrate. The result reports the
// latency clients would actually have observed.
func (d *Deployment) Replay(events []AccessEvent, cfg ReplayConfig) (*ReplayResult, error) {
	rcfg, err := d.groupConfig("Replay", cfg.Manager)
	if err != nil {
		return nil, err
	}
	gm, err := replica.NewGroupManager(rcfg, cfg.Manager.Candidates, d.coords)
	if err != nil {
		return nil, fmt.Errorf("georep: replay: %w", err)
	}
	conv := make([]accesstrace.Event, len(events))
	for i, e := range events {
		conv[i] = accesstrace.Event(e)
	}
	res, err := accesstrace.Replay(conv, gm, d.coords, d.matrix.RTT, accesstrace.ReplayConfig{
		EpochMs:  cfg.EpochMs,
		SeedBase: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("georep: replay: %w", err)
	}
	return &ReplayResult{
		Accesses:      res.Accesses,
		MeanDelayMs:   res.MeanDelayMs,
		Epochs:        res.Epochs,
		Migrations:    res.Migrations,
		SummaryBytes:  res.SummaryBytes,
		FinalReplicas: res.FinalReplicas,
	}, nil
}
