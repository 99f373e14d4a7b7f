// Package ledger is a durable, append-only epoch log: every coordinator
// epoch's full decision inputs and outcome (see Record) is framed with a
// CRC checksum and appended to a segment-rotated on-disk log. The format
// is built for decision provenance and offline audit, not throughput —
// one record per epoch, self-contained, recoverable after a crash.
//
// On-disk layout: a ledger is a directory of segment files named
// ledger-00000001.seg, ledger-00000002.seg, ... Each segment starts with
// an 8-byte magic and then holds a sequence of frames:
//
//	[4B little-endian payload length][4B CRC32-Castagnoli][payload]
//
// where the payload is one binary-encoded Record (the versioned format
// described at EncodeRecord). Appends always go to the
// highest-numbered segment; when it exceeds MaxSegmentBytes a new
// segment is started, and whole oldest segments are deleted while the
// ledger exceeds MaxTotalBytes (size-bounded compaction: the tail of
// history survives, the deep past goes).
//
// Crash safety: a torn final write (truncated frame or mismatched CRC at
// the tail) is detected on Open and truncated away, so the ledger
// reopens at the last durable record. A corrupted frame in the middle of
// a segment poisons only that segment's suffix — frame lengths after a
// flipped length byte cannot be trusted — and recovery keeps every
// record up to the corruption.
package ledger

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/wire"
)

const (
	segMagic     = "GOLEDGR1"
	segPrefix    = "ledger-"
	segSuffix    = ".seg"
	frameHeader  = wire.FrameHeader
	maxFrameSize = 16 << 20
)

// Options tunes a ledger. The zero value is usable: 4 MiB segments,
// 64 MiB total bound, no explicit fsync.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it grows past this
	// (default 4 MiB). The bound is checked after each append, so one
	// oversized record never splits.
	MaxSegmentBytes int64
	// MaxTotalBytes deletes whole oldest segments while the ledger's
	// total size exceeds it (default 64 MiB). The active segment is never
	// deleted. Negative disables compaction.
	MaxTotalBytes int64
	// SyncEvery fsyncs the active segment every N appends (0 = never;
	// the OS flushes on Close/exit as usual). 1 makes every epoch
	// durable before Append returns.
	SyncEvery int
	// Metrics, when non-nil, receives ledger_appends_total,
	// ledger_appended_bytes_total, ledger_segments (gauge),
	// ledger_compacted_segments_total and, at Open,
	// ledger_recovered_dropped_bytes_total.
	Metrics *metrics.Registry
}

func (o *Options) fillDefaults() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxTotalBytes == 0 {
		o.MaxTotalBytes = 64 << 20
	}
}

// Ledger is an open, appendable epoch log. It is not safe for concurrent
// use; guard it externally (the replica manager drives it from its own
// single-threaded epoch path).
type Ledger struct {
	dir    string
	opt    Options
	active *os.File
	// seg is the active segment's index, size its current byte length.
	seg  int
	size int64
	// sizes tracks every live segment's byte size for compaction.
	sizes map[int]int64
	// records counts appends since Open plus records recovered in the
	// active segment.
	records   int
	sinceSync int
	// buf is the frame scratch buffer Append reuses, so the epoch path
	// pays one amortized allocation instead of one per record.
	buf          []byte
	appends      *metrics.Counter
	appendedB    *metrics.Counter
	segGauge     *metrics.Gauge
	compactions  *metrics.Counter
	droppedBytes *metrics.Counter
}

// Stats describes an open ledger.
type Stats struct {
	// Dir is the ledger directory.
	Dir string
	// Segments is the number of live segment files.
	Segments int
	// ActiveSegment is the index of the segment receiving appends.
	ActiveSegment int
	// Bytes is the total size of all live segments.
	Bytes int64
	// AppendedRecords counts records appended through this handle.
	AppendedRecords int
}

// Open opens (creating if needed) the ledger in dir, recovering from any
// torn tail left by a crash: the active segment is truncated back to its
// last CRC-valid record before appends resume.
func Open(dir string, opt Options) (*Ledger, error) {
	opt.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", dir, err)
	}
	l := &Ledger{
		dir:          dir,
		opt:          opt,
		sizes:        make(map[int]int64),
		appends:      opt.Metrics.Counter("ledger_appends_total"),
		appendedB:    opt.Metrics.Counter("ledger_appended_bytes_total"),
		segGauge:     opt.Metrics.Gauge("ledger_segments"),
		compactions:  opt.Metrics.Counter("ledger_compacted_segments_total"),
		droppedBytes: opt.Metrics.Counter("ledger_recovered_dropped_bytes_total"),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.startSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	for _, s := range segs[:len(segs)-1] {
		fi, err := os.Stat(segPath(dir, s))
		if err != nil {
			return nil, fmt.Errorf("ledger: stat segment %d: %w", s, err)
		}
		l.sizes[s] = fi.Size()
	}
	// Recover the active (last) segment: scan to the last valid record
	// and truncate anything after it, so a torn final write disappears.
	last := segs[len(segs)-1]
	path := segPath(dir, last)
	scan, err := scanSegment(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: reopen segment %d: %w", last, err)
	}
	if scan.droppedBytes > 0 {
		if err := f.Truncate(scan.validBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: truncate torn tail of segment %d: %w", last, err)
		}
		l.droppedBytes.Add(scan.droppedBytes)
	}
	if _, err := f.Seek(scan.validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: seek segment %d: %w", last, err)
	}
	l.active, l.seg, l.size = f, last, scan.validBytes
	l.sizes[last] = scan.validBytes
	l.records = len(scan.records)
	l.segGauge.Set(float64(len(l.sizes)))
	return l, nil
}

// Append encodes the record, frames it with its CRC, and appends it to
// the active segment, rotating and compacting as configured.
func (l *Ledger) Append(rec Record) error {
	if l.active == nil {
		return errors.New("ledger: append on closed ledger")
	}
	l.buf = appendRecord(wire.BeginFrame(l.buf[:0]), &rec)
	frame := l.buf
	if n := len(frame) - frameHeader; n > maxFrameSize {
		return fmt.Errorf("ledger: record of %d bytes exceeds frame limit %d", n, maxFrameSize)
	}
	wire.EndFrame(frame, 0)
	if _, err := l.active.Write(frame); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	l.size += int64(len(frame))
	l.sizes[l.seg] = l.size
	l.records++
	l.appends.Inc()
	l.appendedB.Add(int64(len(frame)))
	if l.opt.SyncEvery > 0 {
		l.sinceSync++
		if l.sinceSync >= l.opt.SyncEvery {
			if err := l.active.Sync(); err != nil {
				return fmt.Errorf("ledger: sync: %w", err)
			}
			l.sinceSync = 0
		}
	}
	if l.size >= l.opt.MaxSegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	return nil
}

// rotate closes the active segment, opens the next one, and compacts.
func (l *Ledger) rotate() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("ledger: sync before rotate: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("ledger: close segment %d: %w", l.seg, err)
	}
	if err := l.startSegment(l.seg + 1); err != nil {
		return err
	}
	return l.compact()
}

// compact deletes whole oldest segments while the ledger exceeds
// MaxTotalBytes. The active segment always survives.
func (l *Ledger) compact() error {
	if l.opt.MaxTotalBytes < 0 {
		return nil
	}
	var idxs []int
	var total int64
	for s, sz := range l.sizes {
		idxs = append(idxs, s)
		total += sz
	}
	sort.Ints(idxs)
	for _, s := range idxs {
		if total <= l.opt.MaxTotalBytes || s == l.seg {
			break
		}
		if err := os.Remove(segPath(l.dir, s)); err != nil {
			return fmt.Errorf("ledger: compact segment %d: %w", s, err)
		}
		total -= l.sizes[s]
		delete(l.sizes, s)
		l.compactions.Inc()
	}
	l.segGauge.Set(float64(len(l.sizes)))
	return nil
}

// startSegment creates segment idx and makes it active.
func (l *Ledger) startSegment(idx int) error {
	f, err := os.OpenFile(segPath(l.dir, idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: create segment %d: %w", idx, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("ledger: write segment header: %w", err)
	}
	l.active, l.seg, l.size = f, idx, int64(len(segMagic))
	l.sizes[idx] = l.size
	l.segGauge.Set(float64(len(l.sizes)))
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Ledger) Sync() error {
	if l.active == nil {
		return errors.New("ledger: sync on closed ledger")
	}
	l.sinceSync = 0
	return l.active.Sync()
}

// Close syncs and closes the active segment. The ledger cannot be
// appended to afterwards; reopen with Open.
func (l *Ledger) Close() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// Dir returns the ledger directory.
func (l *Ledger) Dir() string { return l.dir }

// Stats reports the open ledger's shape.
func (l *Ledger) Stats() Stats {
	var total int64
	for _, sz := range l.sizes {
		total += sz
	}
	return Stats{
		Dir:             l.dir,
		Segments:        len(l.sizes),
		ActiveSegment:   l.seg,
		Bytes:           total,
		AppendedRecords: l.records,
	}
}

func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
}

// listSegments returns the segment indices present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: read dir %s: %w", dir, err)
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		var idx int
		if n, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &idx); n == 1 && err == nil &&
			name == fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	return segs, nil
}
