package replog

import "fmt"

// Log is one member's copy of the replication log: a contiguous suffix
// of entries plus a snapshot boundary. Everything at or below SnapSeq
// has been compacted into the snapshot; entries[0], when present, has
// sequence SnapSeq+1.
//
// Compaction advances the head of entries by reslicing, so a log that
// compacts on every append (the daemon's bounded tail) pays for the
// retained tail only when append runs out of capacity and reallocates —
// once per O(retained) appends, amortised O(1) each.
type Log struct {
	snapSeq  uint64
	snapTerm uint64
	entries  []Entry
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Last returns the highest sequence the log holds (snapshot included).
func (l *Log) Last() uint64 {
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Seq
	}
	return l.snapSeq
}

// LastTerm returns the term of the highest entry (or the snapshot term).
func (l *Log) LastTerm() uint64 {
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Term
	}
	return l.snapTerm
}

// SnapSeq returns the snapshot boundary: the highest compacted sequence.
func (l *Log) SnapSeq() uint64 { return l.snapSeq }

// Len returns the number of uncompacted tail entries.
func (l *Log) Len() int { return len(l.entries) }

// Append adds e to the tail. The sequence must be contiguous.
func (l *Log) Append(e Entry) error {
	if e.Seq != l.Last()+1 {
		return fmt.Errorf("replog: non-contiguous append seq %d after %d", e.Seq, l.Last())
	}
	l.entries = append(l.entries, e)
	return nil
}

// TermAt returns the term of the entry at seq, and whether the log can
// answer (false when seq is compacted away or beyond the tail). The
// snapshot boundary itself answers with the snapshot term.
func (l *Log) TermAt(seq uint64) (uint64, bool) {
	if seq == l.snapSeq {
		return l.snapTerm, true
	}
	if seq < l.snapSeq || seq > l.Last() || seq == 0 {
		return 0, false
	}
	return l.entries[seq-l.snapSeq-1].Term, true
}

// EntriesFrom returns up to max entries starting at seq (aliasing the
// log's storage; callers must not mutate). ok is false when seq is
// already compacted — the caller needs a snapshot instead.
func (l *Log) EntriesFrom(seq uint64, max int) (es []Entry, ok bool) {
	if seq <= l.snapSeq {
		return nil, false
	}
	if seq > l.Last() {
		return nil, true
	}
	i := int(seq - l.snapSeq - 1)
	j := len(l.entries)
	if max > 0 && j-i > max {
		j = i + max
	}
	return l.entries[i:j], true
}

// TruncateFrom removes every entry with sequence >= seq, returning how
// many were dropped. Used to roll back a deposed leader's divergent,
// never-acked suffix.
func (l *Log) TruncateFrom(seq uint64) int {
	if seq <= l.snapSeq {
		seq = l.snapSeq + 1
	}
	if seq > l.Last() {
		return 0
	}
	i := int(seq - l.snapSeq - 1)
	n := len(l.entries) - i
	l.entries = l.entries[:i]
	return n
}

// CompactTo advances the snapshot boundary to seq, dropping compacted
// tail entries. A no-op when seq does not move the boundary forward;
// compaction past the tail is rejected.
func (l *Log) CompactTo(seq uint64) error {
	if seq <= l.snapSeq {
		return nil
	}
	if seq > l.Last() {
		return fmt.Errorf("replog: compact to %d beyond tail %d", seq, l.Last())
	}
	term, _ := l.TermAt(seq)
	l.entries = l.entries[seq-l.snapSeq:]
	l.snapSeq, l.snapTerm = seq, term
	return nil
}

// InstallSnapshot resets the log to an empty tail on top of the given
// snapshot boundary — the receiving side of a snapshot transfer.
func (l *Log) InstallSnapshot(seq, term uint64) {
	l.snapSeq, l.snapTerm = seq, term
	l.entries = l.entries[:0]
}
