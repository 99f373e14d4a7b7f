package metrics

import "sync"

// EpochTrace records what one epoch of the replica-placement loop
// concluded — the per-decision costs the paper's economic argument is
// about (summary bytes shipped, replicas moved, estimated gain) plus the
// ground-truth delay actually observed during the epoch.
type EpochTrace struct {
	// Epoch is the 1-based epoch number.
	Epoch int `json:"epoch"`
	// Migrated reports whether the placement changed.
	Migrated bool `json:"migrated"`
	// K is the replication degree after the epoch.
	K int `json:"k"`
	// Replicas is the placement after the epoch.
	Replicas []int `json:"replicas"`
	// EstimatedOldMs and EstimatedNewMs are the summary-estimated mean
	// delays of the previous and adopted/rejected placements.
	EstimatedOldMs float64 `json:"estimated_old_ms"`
	EstimatedNewMs float64 `json:"estimated_new_ms"`
	// ActualMeanMs is the ground-truth mean access delay observed over
	// the epoch's recorded accesses (0 if the caller cannot measure it).
	ActualMeanMs float64 `json:"actual_mean_ms"`
	// Accesses counts the accesses recorded during the epoch.
	Accesses int64 `json:"accesses"`
	// MovedReplicas counts locations that required a data copy.
	MovedReplicas int `json:"moved_replicas"`
	// SummaryBytes is the wire size of the collected summaries.
	SummaryBytes int `json:"summary_bytes"`
	// Degraded reports that at least one replica's summary could not be
	// collected and the epoch ran on a partial or stale view.
	Degraded bool `json:"degraded,omitempty"`
	// MissingSummaries lists the replicas that were unreachable.
	MissingSummaries []int `json:"missing_summaries,omitempty"`
}

// TraceRing is a bounded ring of the most recent epoch traces. It is
// safe for concurrent use; a nil TraceRing ignores all operations.
type TraceRing struct {
	mu   sync.Mutex
	buf  []EpochTrace
	next int
}

// NewTraceRing returns a ring keeping the last n epochs (n <= 0 defaults
// to 64).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 64
	}
	return &TraceRing{buf: make([]EpochTrace, 0, n)}
}

// Add appends one epoch trace, evicting the oldest when full.
func (t *TraceRing) Add(e EpochTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % cap(t.buf)
	}
}

// Snapshot returns the retained traces oldest-first.
func (t *TraceRing) Snapshot() []EpochTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EpochTrace, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}
