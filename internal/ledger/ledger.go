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
// Appends are written one frame per write, or — between BeginBatch and
// Flush, as the multi-object service brackets a tick — gathered in one
// buffer and written in writes of at most maxBatchWrite. Either way the
// segment files are byte-identical: rotation falls on the same record
// boundary, and SyncEvery counts records.
//
// Crash safety: a torn final write (truncated frame or mismatched CRC at
// the tail) is detected on Open and truncated away, so the ledger
// reopens at the last durable record. A write that fails while the
// ledger is open puts the segment back at its last whole frame, so the
// next append lands on a frame boundary. A corrupted frame in the middle of
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
	// maxBatchWrite caps one write of a batch, and so the batch buffer
	// the ledger keeps: a frame that would take the buffer past it sends
	// what is buffered first. A 10k-object tick is ~90 such writes where
	// it was 10k, and the buffer is a fixed cost of 256 KiB.
	maxBatchWrite = 256 << 10
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
	// durable before Append returns. In a batch the fsync comes at the
	// rotation or Flush that follows the Nth record.
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
	active segmentFile
	// seg is the active segment's index, size the byte length written to
	// it.
	seg  int
	size int64
	// sizes tracks every live segment's byte size for compaction.
	sizes map[int]int64
	// records counts appends written since Open plus records recovered
	// in the active segment.
	records   int
	sinceSync int
	syncDue   bool // SyncEvery came due: fsync at the next flush
	// buf holds the frames not yet written — one outside a batch, up to
	// maxBatchWrite of them in one — and pending counts them. Append
	// reuses it, so the epoch path pays one amortized allocation instead
	// of one per record.
	buf          []byte
	pending      int
	batch        bool
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

// segmentFile is what the ledger needs of the active segment: *os.File,
// or a stand-in a test makes fail.
type segmentFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Append encodes the record, frames it with its CRC, and appends it to
// the active segment, rotating and compacting as configured. Outside a
// batch the frame is written before Append returns; in one it waits in
// the buffer (see BeginBatch).
func (l *Ledger) Append(rec Record) error {
	if l.active == nil {
		return errors.New("ledger: append on closed ledger")
	}
	start := len(l.buf)
	l.buf = appendRecord(wire.BeginFrame(l.buf), &rec)
	frame := l.buf[start:]
	if n := len(frame) - frameHeader; n > maxFrameSize {
		l.buf = l.buf[:start]
		return fmt.Errorf("ledger: record of %d bytes exceeds frame limit %d", n, maxFrameSize)
	}
	wire.EndFrame(frame, 0)
	if start > 0 && len(l.buf) > maxBatchWrite {
		// Write what the batch held, then keep this frame at the front.
		if err := l.write(l.buf[:start]); err != nil {
			return err
		}
		l.buf = l.buf[:copy(l.buf, frame)]
	}
	l.pending++
	if l.opt.SyncEvery > 0 {
		l.sinceSync++
		if l.sinceSync >= l.opt.SyncEvery {
			l.syncDue = true
		}
	}
	if l.size+int64(len(l.buf)) >= l.opt.MaxSegmentBytes {
		if err := l.flush(); err != nil {
			return err
		}
		return l.rotate()
	}
	if !l.batch {
		return l.flush()
	}
	return nil
}

// BeginBatch gathers the appends that follow in the ledger's buffer
// until Flush: they reach the active segment in writes of at most
// maxBatchWrite bytes, at a rotation, or at Flush, and a SyncEvery fsync
// that comes due waits for the rotation or Flush that follows. The
// files are the ones record-by-record appends would write.
func (l *Ledger) BeginBatch() { l.batch = true }

// Flush writes what a batch gathered, fsyncing if SyncEvery came due,
// and ends the batch.
func (l *Ledger) Flush() error {
	l.batch = false
	if l.active == nil {
		return nil
	}
	return l.flush()
}

// flush writes the buffered frames, then fsyncs if one is due.
func (l *Ledger) flush() error {
	if err := l.write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	if l.syncDue {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("ledger: sync: %w", err)
		}
		l.syncDue, l.sinceSync = false, 0
	}
	return nil
}

// write sends b — the pending frames, whole — to the active segment in
// writes of at most maxBatchWrite. A failed write drops every pending
// frame and cuts the segment back to its last whole frame, so the next
// append lands on a frame boundary instead of behind a torn one.
func (l *Ledger) write(b []byte) error {
	for off := 0; off < len(b); {
		n := min(len(b)-off, maxBatchWrite)
		if _, err := l.active.Write(b[off : off+n]); err != nil {
			dropped := l.pending
			l.buf, l.pending = l.buf[:0], 0
			err = fmt.Errorf("ledger: append: %w (%d records dropped)", err, dropped)
			if terr := l.active.Truncate(l.size); terr != nil {
				return errors.Join(err, fmt.Errorf("ledger: truncate segment %d: %w", l.seg, terr))
			}
			if _, serr := l.active.Seek(l.size, io.SeekStart); serr != nil {
				return errors.Join(err, fmt.Errorf("ledger: seek segment %d: %w", l.seg, serr))
			}
			return err
		}
		off += n
	}
	l.size += int64(len(b))
	l.sizes[l.seg] = l.size
	l.records += l.pending
	l.appends.Add(int64(l.pending))
	l.appendedB.Add(int64(len(b)))
	l.pending = 0
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

// Sync writes any buffered frames and flushes the active segment to
// stable storage.
func (l *Ledger) Sync() error {
	if l.active == nil {
		return errors.New("ledger: sync on closed ledger")
	}
	l.syncDue = true
	return l.flush()
}

// Close writes any buffered frames, syncs and closes the active
// segment. The ledger cannot be appended to afterwards; reopen with
// Open.
func (l *Ledger) Close() error {
	if l.active == nil {
		return nil
	}
	l.syncDue = true
	err := l.flush()
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
