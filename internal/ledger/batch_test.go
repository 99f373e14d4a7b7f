package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// countingFile records the size of every write that reaches a segment.
type countingFile struct {
	segmentFile
	writes []int
}

func (f *countingFile) Write(b []byte) (int, error) {
	f.writes = append(f.writes, len(b))
	return f.segmentFile.Write(b)
}

// failingFile writes the first left bytes it is given, then fails: a
// short write, as a full disk leaves one.
type failingFile struct {
	segmentFile
	left int
}

func (f *failingFile) Write(b []byte) (int, error) {
	if len(b) <= f.left {
		f.left -= len(b)
		return f.segmentFile.Write(b)
	}
	n, _ := f.segmentFile.Write(b[:f.left])
	f.left = 0
	return n, errors.New("no space left on device")
}

// segmentFiles reads every file of a ledger directory by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// writeTicks appends ticks x perTick records, each tick as one batch or
// record by record, and returns the directory.
func writeTicks(t *testing.T, opt Options, ticks, perTick int, batch bool) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := 0
	for tick := 0; tick < ticks; tick++ {
		if batch {
			l.BeginBatch()
		}
		for i := 0; i < perTick; i++ {
			e++
			if err := l.Append(testRecord(e)); err != nil {
				t.Fatal(err)
			}
		}
		if batch {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got := l.Stats().AppendedRecords; got != e {
			t.Fatalf("tick %d: %d records written, want %d", tick, got, e)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBatchWritesRecordByRecordBytes pins that a tick's batch leaves the
// segment files a record-by-record run leaves: same names, same bytes —
// with rotation mid-tick, compaction, and an fsync per record.
func TestBatchWritesRecordByRecordBytes(t *testing.T) {
	frame := int64(len(encodeFrame(t, testRecord(1))))
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"defaults", Options{}},
		{"rotate mid-tick", Options{MaxSegmentBytes: 3*frame + 20}},
		{"rotate and compact", Options{MaxSegmentBytes: 2 * frame, MaxTotalBytes: 7 * frame}},
		{"sync every record", Options{SyncEvery: 1}},
		{"sync every 3, rotate", Options{SyncEvery: 3, MaxSegmentBytes: 4 * frame}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := segmentFiles(t, writeTicks(t, tc.opt, 4, 7, false))
			batched := segmentFiles(t, writeTicks(t, tc.opt, 4, 7, true))
			if len(one) != len(batched) {
				t.Fatalf("%d segments record by record, %d batched", len(one), len(batched))
			}
			for name, want := range one {
				if got, ok := batched[name]; !ok || !bytes.Equal(got, want) {
					t.Fatalf("segment %s differs: %d bytes batched, %d record by record", name, len(got), len(want))
				}
			}
		})
	}
}

func encodeFrame(t *testing.T, rec Record) []byte {
	t.Helper()
	payload, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(make([]byte, frameHeader), payload...)
}

// TestBatchWriteSizes pins the write pattern: a small tick is one write,
// a tick beyond maxBatchWrite goes out in writes of at most that, and an
// append outside a batch is one write per record.
func TestBatchWriteSizes(t *testing.T) {
	l, err := Open(t.TempDir(), Options{MaxSegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cf := &countingFile{segmentFile: l.active}
	l.active = cf
	frame := len(encodeFrame(t, testRecord(1)))

	l.BeginBatch()
	for e := 1; e <= 10; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	if len(cf.writes) != 0 {
		t.Fatalf("%d writes before Flush", len(cf.writes))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(cf.writes) != 1 || cf.writes[0] != 10*frame {
		t.Fatalf("a 10-record tick wrote %v, want one write of %d", cf.writes, 10*frame)
	}

	cf.writes = nil
	base := l.size
	n := 3*maxBatchWrite/frame + 5
	l.BeginBatch()
	for e := 0; e < n; e++ {
		if err := l.Append(testRecord(11 + e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(activeSegPath(t, l.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	boundary := make(map[int]bool)
	for _, end := range frameEnds(seg) {
		boundary[end] = true
	}
	off := int(base)
	for _, w := range cf.writes {
		off += w
		if w > maxBatchWrite || !boundary[off] {
			t.Fatalf("a write of %d bytes ending at %d: over %d or not on a frame boundary", w, off, maxBatchWrite)
		}
	}
	if off != len(seg) || len(cf.writes) != 4 {
		t.Fatalf("%d records went out as %d writes ending at %d, want 4 writes ending at %d", n, len(cf.writes), off, len(seg))
	}

	cf.writes = nil
	for e := 0; e < 3; e++ {
		if err := l.Append(testRecord(1 + e)); err != nil {
			t.Fatal(err)
		}
	}
	if len(cf.writes) != 3 {
		t.Fatalf("3 appends outside a batch made %d writes", len(cf.writes))
	}
}

// frameEnds returns the offset past every frame of a segment file.
func frameEnds(seg []byte) []int {
	var ends []int
	for off := len(segMagic); off+frameHeader <= len(seg); {
		off += frameHeader + int(binary.LittleEndian.Uint32(seg[off:]))
		ends = append(ends, off)
	}
	return ends
}

// TestBatchTornTailReopensToWholeRecords cuts the active segment at
// every byte offset inside the last tick's frames: each cut reopens to
// the records whose frames the cut left whole.
func TestBatchTornTailReopensToWholeRecords(t *testing.T) {
	const ticks, perTick = 3, 5
	dir := writeTicks(t, Options{}, ticks, perTick, true)
	seg, err := os.ReadFile(activeSegPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(seg)
	if len(ends) != ticks*perTick || ends[len(ends)-1] != len(seg) {
		t.Fatalf("%d frames ending at %d in a %d-byte segment", len(ends), ends[len(ends)-1], len(seg))
	}
	lastTick := ends[len(ends)-perTick-1]
	scratch := t.TempDir()
	path := filepath.Join(scratch, filepath.Base(activeSegPath(t, dir)))
	for cut := lastTick; cut < len(seg); cut++ {
		if err := os.WriteFile(path, seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for _, end := range ends {
			if end <= cut {
				whole++
			}
		}
		l, err := Open(scratch, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := l.Stats().AppendedRecords; got != whole {
			t.Fatalf("cut at %d: reopened with %d records, want %d", cut, got, whole)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadDir(scratch)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if rec.Epoch != i+1 {
				t.Fatalf("cut at %d: record %d is epoch %d", cut, i, rec.Epoch)
			}
		}
		if len(recs) != whole {
			t.Fatalf("cut at %d: %d records readable, want %d", cut, len(recs), whole)
		}
	}
}

// TestFailedWriteLandsNextAppendOnFrameBoundary makes a write fail part
// way, in a batch and outside one: the failed records are dropped with
// an error, the segment is cut back to its last whole frame, and the
// next append lands on that boundary — the ledger verifies clean.
func TestFailedWriteLandsNextAppendOnFrameBoundary(t *testing.T) {
	for _, batch := range []bool{true, false} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for e := 1; e <= 3; e++ {
				if err := l.Append(testRecord(e)); err != nil {
					t.Fatal(err)
				}
			}
			real := l.active
			l.active = &failingFile{segmentFile: real, left: 100}
			if batch {
				l.BeginBatch()
				for e := 4; e <= 6; e++ {
					if err := l.Append(testRecord(e)); err != nil {
						t.Fatal(err)
					}
				}
				err = l.Flush()
			} else {
				err = l.Append(testRecord(4))
			}
			if err == nil {
				t.Fatal("a failed write returned no error")
			}
			l.active = real
			if err := l.Append(testRecord(7)); err != nil {
				t.Fatal(err)
			}
			if got := l.Stats().AppendedRecords; got != 4 {
				t.Fatalf("%d records counted, want 4", got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			v, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Clean || v.Records != 4 || v.LastEpoch != 7 {
				t.Fatalf("after a failed write: clean=%v records=%d last epoch=%d, want clean, 4, 7", v.Clean, v.Records, v.LastEpoch)
			}
		})
	}
}
