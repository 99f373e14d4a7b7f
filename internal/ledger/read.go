package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/georep/georep/internal/wire"
)

// segScan is one segment's recovery outcome.
type segScan struct {
	records []Record
	// validBytes is the offset just past the last frame that decoded and
	// CRC-checked; appends and truncation resume here.
	validBytes int64
	// droppedBytes is how much trailing data the scan refused: a torn
	// final frame, a corrupted frame and everything after it.
	droppedBytes int64
	// corrupt names why the suffix was dropped ("" when the segment is
	// clean).
	corrupt string
}

// scanSegment reads one segment file, returning every valid record and
// the recovery bookkeeping. A missing or short magic header yields an
// error (the file is not a ledger segment); anything wrong after the
// header is recovered around, not failed on.
func scanSegment(path string) (*segScan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read segment: %w", err)
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("ledger: %s is not a ledger segment (bad magic)", path)
	}
	s := &segScan{validBytes: int64(len(segMagic))}
	for rest := b[len(segMagic):]; len(rest) > 0; {
		off := s.validBytes
		payload, next, err := wire.NextFrame(rest, maxFrameSize)
		if err != nil {
			s.stop(int64(len(b)), frameReason(err.(*wire.FrameError), off))
			return s, nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			s.stop(int64(len(b)), fmt.Sprintf("undecodable record at offset %d: %v", off, err))
			return s, nil
		}
		rest = next
		s.validBytes = int64(len(b) - len(rest))
		s.records = append(s.records, rec)
	}
	return s, nil
}

// frameReason words a refused frame the way Verify has always reported it.
func frameReason(e *wire.FrameError, off int64) string {
	switch e.Fault {
	case wire.ShortHeader:
		return "torn frame header at tail"
	case wire.OverLimit:
		return fmt.Sprintf("frame length %d exceeds limit at offset %d", e.Len, off)
	case wire.Torn:
		return fmt.Sprintf("truncated record at offset %d", off)
	default:
		return fmt.Sprintf("CRC mismatch at offset %d", off)
	}
}

// stop records that scanning gave up before end, dropping [validBytes, end).
func (s *segScan) stop(end int64, why string) {
	s.droppedBytes = end - s.validBytes
	s.corrupt = why
}

// ReadDir loads every recoverable record in the ledger directory,
// oldest-first. Torn or corrupted suffixes are silently skipped — use
// Verify to account for them.
func ReadDir(dir string) ([]Record, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, idx := range segs {
		s, err := scanSegment(segPath(dir, idx))
		if err != nil {
			return nil, err
		}
		out = append(out, s.records...)
	}
	return out, nil
}

// SegmentReport is one segment's verification outcome.
type SegmentReport struct {
	// Index is the segment number; Path its file.
	Index int
	Path  string
	// Records decoded cleanly; Bytes is the file size on disk.
	Records int
	Bytes   int64
	// DroppedBytes is trailing data recovery would discard; Corrupt names
	// why ("" when clean).
	DroppedBytes int64
	Corrupt      string
	// FirstEpoch / LastEpoch bound the epochs in the segment (0/0 when
	// empty).
	FirstEpoch int
	LastEpoch  int
}

// VerifyResult aggregates a ledger directory's verification.
type VerifyResult struct {
	Segments []SegmentReport
	// Records / Bytes total over all segments.
	Records int
	Bytes   int64
	// DroppedBytes totals unrecoverable data; Clean is true when zero.
	DroppedBytes int64
	Clean        bool
	// FirstEpoch / LastEpoch bound the whole ledger (0/0 when empty).
	FirstEpoch int
	LastEpoch  int
}

// Verify scans every segment, CRC-checking and decoding each record, and
// reports what a recovery would keep and drop — without modifying
// anything.
func Verify(dir string) (*VerifyResult, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("ledger: no segments in %s", dir)
	}
	res := &VerifyResult{Clean: true}
	for _, idx := range segs {
		path := segPath(dir, idx)
		s, err := scanSegment(path)
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("ledger: stat %s: %w", path, err)
		}
		rep := SegmentReport{
			Index:        idx,
			Path:         path,
			Records:      len(s.records),
			Bytes:        fi.Size(),
			DroppedBytes: s.droppedBytes,
			Corrupt:      s.corrupt,
		}
		if n := len(s.records); n > 0 {
			rep.FirstEpoch = s.records[0].Epoch
			rep.LastEpoch = s.records[n-1].Epoch
			if res.Records == 0 {
				res.FirstEpoch = rep.FirstEpoch
			}
			res.LastEpoch = rep.LastEpoch
		}
		res.Segments = append(res.Segments, rep)
		res.Records += rep.Records
		res.Bytes += rep.Bytes
		res.DroppedBytes += rep.DroppedBytes
		if rep.DroppedBytes > 0 {
			res.Clean = false
		}
	}
	return res, nil
}

// WriteJSONL streams records as JSON lines — the export format of
// `georepctl ledger -o jsonl`.
func WriteJSONL(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("ledger: export record %d: %w", i, err)
		}
	}
	return nil
}
