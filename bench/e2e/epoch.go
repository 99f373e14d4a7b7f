package e2e

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/trace"
)

// Fixture describes the coordinator an epoch workload built, with no
// sink attached, so the layer walk can build shadows of it.
type Fixture struct {
	Coords     []coord.Coordinate
	Candidates []int
	// Manager is the per-object coordinator config (the single manager
	// of ingest_1m, the object template of the service workloads).
	Manager replica.Config
	// Fleet reports that a placement.Service places the objects and
	// solves for them (false: the one manager of ingest_1m solves itself).
	Fleet bool
	// Objects is the number of placed objects (1 for ingest_1m).
	Objects int
	// ObjectName and ObjectClass name object i as the driver registered it.
	ObjectName  func(i int) string
	ObjectClass func(i int) string
	// Clients are the client PoP nodes and RTT the ground-truth delay
	// between two nodes, for probes that search placements exhaustively.
	Clients []int
	RTT     func(i, j int) float64
}

// EpochHooks receives each traced epoch's inputs after the real system
// consumed them, off the clock, so the layer walk can replay the same
// epoch through the layers one by one.
type EpochHooks interface {
	Setup(fx Fixture) error
	// Frame is one PoP's accesses of the epoch (ingest_1m): every access
	// of clients[i] (a node id) with weights[i].
	Frame(node int, clients []int, weights []float64)
	// Feed is the epoch's accesses of the service workloads: object i
	// was read from nodes[i*perObject : (i+1)*perObject].
	Feed(nodes []int32, perObject int)
	// Tick closes the epoch. rngSeed seeds the manager's decision rng
	// (ingest_1m); placement returns the real system's placement of
	// object i after its tick.
	Tick(op int64, rngSeed int64, placement func(object int) []int) error
}

// sinkSet is the observability stack of one epoch workload.
type sinkSet struct {
	reg    *metrics.Registry
	tracer *trace.Tracer
	led    *ledger.Ledger
	dir    string
	hist   *metrics.History
	eng    *slo.Engine
}

// SLOSpec watches two series every epoch coordinator exports.
const SLOSpec = "healthy ratio(replica_degraded_epochs_total / replica_epochs_total) <= 0.01; " +
	"route_p99 p99(replica_route_predicted_ms) <= 400 budget 0.05"

// LedgerOptions is the flush policy of every ledger the benchmark
// opens: the disk is kept out of the numbers. There is no fsync per
// append (SyncEvery 0) and the one segment never fills, so no rotation —
// which fsyncs — happens under a measured tick; DropLedger then empties
// the files before closing them, so teardown does not flush hundreds of
// megabytes that are about to be deleted. With the default 4 MiB
// segments a fleet_10k tick (23 MB of records) waits for six fsyncs: it
// measured 350 ms on tmpfs and 450-850 ms on this box's shared virtual
// disk, slower the more the runs before it had written.
func LedgerOptions(reg *metrics.Registry) ledger.Options {
	return ledger.Options{MaxSegmentBytes: 1 << 40, MaxTotalBytes: -1, Metrics: reg}
}

// DropLedger discards a scratch ledger: truncate its segments (dropping
// their unwritten pages), then close it.
func DropLedger(l *ledger.Ledger) {
	if l == nil {
		return
	}
	segs, _ := filepath.Glob(filepath.Join(l.Dir(), "*.seg")) // the pattern is constant and well-formed
	for _, seg := range segs {
		_ = os.Truncate(seg, 0) // best effort: a failure only costs teardown time
	}
	_ = l.Close() // scratch data, about to be removed
}

// openSinks builds the stack s leaves on; the ledger lives under tmp.
func openSinks(s Sinks, tmp, name string, withSLO bool) (*sinkSet, error) {
	k := &sinkSet{}
	if !s.NoMetrics {
		k.reg = metrics.NewRegistry()
	}
	if !s.NoTracer {
		k.tracer = trace.New(trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous), "coordinator")
	}
	if !s.NoLedger {
		k.dir = filepath.Join(tmp, name)
		if err := os.RemoveAll(k.dir); err != nil {
			return nil, err
		}
		led, err := ledger.Open(k.dir, LedgerOptions(k.reg))
		if err != nil {
			return nil, err
		}
		k.led = led
	}
	if withSLO && !s.NoSLO && k.reg != nil {
		spec, err := slo.Parse(SLOSpec)
		if err != nil {
			return nil, err
		}
		k.hist = metrics.NewHistory(k.reg, 64)
		if k.eng, err = slo.New(spec, slo.Config{History: k.hist}); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// apply wires the stack into a coordinator config.
func (k *sinkSet) apply(cfg *replica.Config, s Sinks) {
	cfg.Metrics = k.reg
	cfg.Tracer = k.tracer
	cfg.Ledger = k.led
	cfg.Provenance = !s.NoProvenance
}

// sample is the once-per-tick SLO work a deployment does after an
// epoch: snapshot the registry into the history ring and evaluate.
func (k *sinkSet) sample(epoch int) {
	if k.eng == nil {
		return
	}
	now := int64(epoch+1) * int64(10*time.Second)
	k.hist.Sample(now)
	k.eng.Evaluate(now)
}

func (k *sinkSet) close() {
	DropLedger(k.led)
	k.led = nil
}

// The ledger's on-disk framing, as internal/ledger documents and its
// golden segments pin it: an 8-byte magic, then per record a 4-byte
// little-endian payload length, the payload's CRC32C, the payload.
const (
	ledgerMagic       = "GOLEDGR1"
	ledgerFrameHeader = 8
)

// scanLedger streams every segment of dir frame by frame — length,
// checksum, ledger.DecodeRecord — and returns how many records decoded
// and how many bytes they took. It is the harness's own reading of the
// ledger (ledger.Verify loads whole segments, and the benchmark's one
// segment is hundreds of megabytes on fleet_10k); anything short,
// torn, mis-summed or undecodable is an error.
func scanLedger(dir string) (records int, size int64, err error) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(segs)
	var payload []byte
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			return records, size, err
		}
		r := bufio.NewReaderSize(f, 1<<20)
		var hdr [ledgerFrameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil || string(hdr[:]) != ledgerMagic {
			f.Close()
			return records, size, fmt.Errorf("%s: not a ledger segment", seg)
		}
		size += ledgerFrameHeader
		for {
			if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return records, size, fmt.Errorf("%s: torn frame header after %d records: %w", seg, records, err)
			}
			n := binary.LittleEndian.Uint32(hdr[0:4])
			if cap(payload) < int(n) {
				payload = make([]byte, n)
			}
			payload = payload[:n]
			if _, err := io.ReadFull(r, payload); err != nil {
				f.Close()
				return records, size, fmt.Errorf("%s: truncated record %d: %w", seg, records, err)
			}
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
				f.Close()
				return records, size, fmt.Errorf("%s: CRC mismatch in record %d", seg, records)
			}
			if _, err := ledger.DecodeRecord(payload); err != nil {
				f.Close()
				return records, size, fmt.Errorf("%s: record %d: %w", seg, records, err)
			}
			records++
			size += ledgerFrameHeader + int64(n)
		}
		f.Close()
	}
	return records, size, nil
}

// verifyLedger checks the still-open ledger end to end (appends are
// unbuffered, so its files are complete): every append accounted for,
// every frame CRC-clean and decodable, records = ticks x objects.
func (k *sinkSet) verifyLedger(res *report.Result, wantRecords int) {
	if k.led == nil {
		return
	}
	appended := k.led.Stats().AppendedRecords
	records, size, err := scanLedger(k.dir)
	bad, detail := 0, ""
	switch {
	case err != nil:
		bad, detail = 1, err.Error()
	case appended != wantRecords:
		bad, detail = 1, fmt.Sprintf("%d records appended, want ticks x objects = %d", appended, wantRecords)
	case records != wantRecords:
		bad, detail = 1, fmt.Sprintf("%d records on disk, want %d", records, wantRecords)
	}
	res.Check("ledger_verify", bad, detail)
	res.Add("ledger.bytes_per_record", "B", finite(float64(size)/float64(records)), records)
}

// validPlacement reports whether reps is k distinct candidates.
func validPlacement(reps []int, k int, isCand []bool) bool {
	if len(reps) != k {
		return false
	}
	for i, r := range reps {
		if r < 0 || r >= len(isCand) || !isCand[r] {
			return false
		}
		for _, q := range reps[:i] {
			if q == r {
				return false
			}
		}
	}
	return true
}

func candidateSet(n int, cands []int) []bool {
	is := make([]bool, n)
	for _, c := range cands {
		is[c] = true
	}
	return is
}

// epochPhase is what one measured window of an epoch workload produced.
type epochPhase struct {
	ticks    *timings // end-of-epoch call, one per epoch
	ingest   *timings // on-clock route + record time, one per epoch
	accesses int64
	genNs    int64 // generator, off the clock
	advNs    int64 // stream.Advance / arc drift, off the clock
	epochs   int
	elapsed  time.Duration
	// Demand-weighted true RTT over the first meanEpochs epochs only,
	// so the figure does not depend on how many epochs the window fit.
	rttSum float64
	rttN   int64
	// Traced windows only.
	mallocs, allocBytes uint64
}

func newEpochPhase(capacity int) *epochPhase {
	return &epochPhase{ticks: newTimings(capacity), ingest: newTimings(capacity)}
}

// quiet returns the window's quiet quarter (report.Quiet): each epoch is
// one slice — its accesses, its on-clock time (ingest + tick), its tick.
func (ph *epochPhase) quiet() []report.Slice {
	slices := make([]report.Slice, ph.ticks.n())
	for i := range slices {
		slices[i] = report.Slice{
			Work:    float64(ph.accesses) / float64(ph.epochs),
			Ns:      float64(ph.ingest.ns[i] + ph.ticks.ns[i]),
			Latency: float64(ph.ticks.ns[i]),
		}
	}
	return report.Quiet(slices)
}

// addEndToEnd reports an untraced epoch window: the gated rate and tick
// over its quiet quarter, and the whole window's own figures beside them.
func (ph *epochPhase) addEndToEnd(res *report.Result) {
	quiet := ph.quiet()
	res.Add("throughput_per_s", "1/s", report.Rate(quiet), len(quiet))
	res.Add("op_p50_us", "us", report.MedianLatency(quiet)/1e3, len(quiet))
	onClock := ph.ingest.total() + ph.ticks.total()
	res.Add("accesses_per_s", "1/s", finite(float64(ph.accesses)/(onClock/1e9)), int(ph.accesses))
	ticks := ph.ticks.sorted()
	res.Add("tick_ms_p50", "ms", report.Percentile(ticks, 0.5)/1e6, len(ticks))
	if report.HasTail(len(ticks), 0.9) {
		res.Add("tick_ms_p90", "ms", report.Percentile(ticks, 0.9)/1e6, len(ticks))
	}
	if ph.rttN > 0 {
		res.Add("mean_access_ms", "ms", ph.rttSum/float64(ph.rttN), int(ph.rttN))
	}
	res.Add("workload.generator_share", "ratio", float64(ph.genNs)/float64(ph.elapsed), int(ph.accesses))
	res.Add("workload.next_ns_per_access", "ns", finite(float64(ph.genNs)/float64(ph.accesses)), int(ph.accesses))
	res.Add("workload.advance_us", "us", finite(float64(ph.advNs)/float64(ph.epochs)/1e3), ph.epochs)
}

// measureAllocs runs f between two memory-statistics reads (each stops
// the world for tens of microseconds — traced windows only).
func (ph *epochPhase) measureAllocs(traced bool, f func()) {
	if !traced {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	ph.mallocs += m1.Mallocs - m0.Mallocs
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

// overheadPct compares the traced window's on-clock cost per access
// with the untraced window's, each over its quiet quarter.
func overheadPct(u, t *epochPhase) float64 {
	ur, tr := report.Rate(u.quiet()), report.Rate(t.quiet())
	return finite(100 * (ur - tr) / tr)
}

// placementDigest fingerprints a run's final placements. A change is
// printed, not failed: mean_access_ms is the guard on placement quality.
func placementDigest(placements [][]int) string {
	h := sha256.New()
	for _, p := range placements {
		fmt.Fprintln(h, p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
