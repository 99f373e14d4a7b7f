package audit

import (
	"sync"
	"time"

	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
)

// Watcher is the continuous auditor: a background goroutine that
// periodically re-reads a ledger directory, audits any epochs it has not
// seen yet, and publishes the latest regret/drift/quality figures as
// gauges — so a live deployment's distance from optimal shows up on the
// same /metrics endpoint as everything else. Audit state is incremental:
// each epoch is evaluated exactly once, with the same per-epoch seeding
// as a batch Run, so the Watcher's report converges to Run's byte for
// byte.
type Watcher struct {
	dir      string
	interval time.Duration

	mu   sync.Mutex
	a    *auditor
	last int // highest epoch audited or skipped

	runs     *metrics.Counter
	errs     *metrics.Counter
	gRegKM   *metrics.Gauge
	gRegOpt  *metrics.Gauge
	gDrift   *metrics.Gauge
	gQuality *metrics.Gauge
	gEpoch   *metrics.Gauge

	stop chan struct{}
	done chan struct{}
}

// NewWatcher starts auditing the ledger at dir every interval (minimum
// 1s). reg receives the audit gauges and counters; it may differ from
// cfg.Metrics, which instruments the audit internals.
func NewWatcher(dir string, interval time.Duration, cfg Config, reg *metrics.Registry) *Watcher {
	if interval < time.Second {
		interval = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = reg
	}
	w := &Watcher{
		dir:      dir,
		interval: interval,
		a:        newAuditor(cfg),
		runs:     reg.Counter("audit_runs_total"),
		errs:     reg.Counter("audit_errors_total"),
		gRegKM:   reg.Gauge("audit_regret_kmeans_ms"),
		gRegOpt:  reg.Gauge("audit_regret_optimal_ms"),
		gDrift:   reg.Gauge("audit_drift_ms"),
		gQuality: reg.Gauge("audit_quality_ms"),
		gEpoch:   reg.Gauge("audit_last_epoch"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *Watcher) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	w.tick() // audit whatever already exists before the first interval
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.tick()
		}
	}
}

// tick audits every not-yet-seen epoch. A missing or empty ledger
// directory is not an error — the deployment may simply not have
// completed an epoch yet.
func (w *Watcher) tick() {
	recs, err := ledger.ReadDir(w.dir)
	if err != nil {
		w.errs.Inc()
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runs.Inc()
	for i := range recs {
		if recs[i].Epoch <= w.last {
			continue
		}
		w.last = recs[i].Epoch
		if err := w.a.audit(&recs[i]); err != nil {
			w.errs.Inc()
			continue
		}
	}
	if n := len(w.a.rep.Epochs); n > 0 {
		row := w.a.rep.Epochs[n-1]
		w.gRegKM.Set(row.RegretKMeansMs)
		if !row.OptimalSkipped {
			w.gRegOpt.Set(row.RegretOptimalMs)
		}
		w.gDrift.Set(row.DriftMs)
		w.gQuality.Set(row.QualityMs)
		w.gEpoch.Set(float64(row.Epoch))
	}
}

// Report snapshots the audit so far (oldest-first, finalized means).
func (w *Watcher) Report() *Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.a.report()
}

// Close stops the background loop and waits for it to exit.
func (w *Watcher) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}
