package replog

import "testing"

func mustAppend(t *testing.T, l *Log, seq, term uint64) {
	t.Helper()
	if err := l.Append(Entry{Seq: seq, Term: term}); err != nil {
		t.Fatalf("Append(%d): %v", seq, err)
	}
}

func TestLogAppendContiguity(t *testing.T) {
	l := NewLog()
	mustAppend(t, l, 1, 1)
	mustAppend(t, l, 2, 1)
	if err := l.Append(Entry{Seq: 4, Term: 1}); err == nil {
		t.Fatalf("gap append accepted")
	}
	if err := l.Append(Entry{Seq: 2, Term: 1}); err == nil {
		t.Fatalf("duplicate append accepted")
	}
	if l.Last() != 2 {
		t.Fatalf("Last = %d, want 2", l.Last())
	}
}

func TestLogCompactAndSnapshot(t *testing.T) {
	l := NewLog()
	for s := uint64(1); s <= 10; s++ {
		term := uint64(1)
		if s > 6 {
			term = 2
		}
		mustAppend(t, l, s, term)
	}
	if err := l.CompactTo(6); err != nil {
		t.Fatalf("CompactTo: %v", err)
	}
	if l.SnapSeq() != 6 || l.Len() != 4 || l.Last() != 10 {
		t.Fatalf("after compact: snap=%d len=%d last=%d", l.SnapSeq(), l.Len(), l.Last())
	}
	if term, ok := l.TermAt(6); !ok || term != 1 {
		t.Fatalf("TermAt(snap boundary) = %d,%v", term, ok)
	}
	if _, ok := l.TermAt(3); ok {
		t.Fatalf("compacted seq should not answer TermAt")
	}
	if term, ok := l.TermAt(9); !ok || term != 2 {
		t.Fatalf("TermAt(9) = %d,%v want 2,true", term, ok)
	}
	if _, ok := l.EntriesFrom(4, 0); ok {
		t.Fatalf("EntriesFrom below snapshot should report not-ok")
	}
	es, ok := l.EntriesFrom(8, 2)
	if !ok || len(es) != 2 || es[0].Seq != 8 {
		t.Fatalf("EntriesFrom(8,2) = %v,%v", es, ok)
	}
	if err := l.CompactTo(99); err == nil {
		t.Fatalf("compact beyond tail accepted")
	}

	var f Log
	f.InstallSnapshot(6, 1)
	if f.Last() != 6 || f.SnapSeq() != 6 || f.Len() != 0 {
		t.Fatalf("snapshot install: last=%d snap=%d len=%d", f.Last(), f.SnapSeq(), f.Len())
	}
	mustAppend(t, &f, 7, 2)
}

func TestLogTruncateFrom(t *testing.T) {
	l := NewLog()
	for s := uint64(1); s <= 8; s++ {
		mustAppend(t, l, s, 1)
	}
	if n := l.TruncateFrom(6); n != 3 {
		t.Fatalf("TruncateFrom(6) dropped %d, want 3", n)
	}
	if l.Last() != 5 {
		t.Fatalf("Last = %d, want 5", l.Last())
	}
	if n := l.TruncateFrom(9); n != 0 {
		t.Fatalf("TruncateFrom beyond tail dropped %d", n)
	}
}

// TestLogCompactEveryAppend runs the daemon's bounded-tail policy — one
// compaction per append once the tail is full — through several
// reallocations of the entry storage and checks the log's whole surface
// after each step.
func TestLogCompactEveryAppend(t *testing.T) {
	const retain = 64
	l := NewLog()
	for s := uint64(1); s <= 40*retain; s++ {
		mustAppend(t, l, s, 1+s/1000)
		if l.Len() > retain {
			if err := l.CompactTo(l.Last() - retain); err != nil {
				t.Fatalf("CompactTo at %d: %v", s, err)
			}
		}
		if s <= retain {
			continue
		}
		if l.Len() != retain || l.SnapSeq() != s-retain || l.Last() != s {
			t.Fatalf("at %d: len=%d snap=%d last=%d", s, l.Len(), l.SnapSeq(), l.Last())
		}
		es, ok := l.EntriesFrom(l.SnapSeq()+1, 0)
		if !ok || len(es) != retain || es[0].Seq != s-retain+1 || es[retain-1].Seq != s {
			t.Fatalf("at %d: tail = %d entries, ok=%v", s, len(es), ok)
		}
		if term, ok := l.TermAt(s - retain); !ok || term != 1+(s-retain)/1000 {
			t.Fatalf("at %d: snapshot term = %d,%v", s, term, ok)
		}
		if _, ok := l.EntriesFrom(s-retain, 0); ok {
			t.Fatalf("at %d: compacted seq still served", s)
		}
	}
	// Truncation and re-append work on a resliced tail.
	last := l.Last()
	if n := l.TruncateFrom(last - 9); n != 10 {
		t.Fatalf("TruncateFrom dropped %d, want 10", n)
	}
	mustAppend(t, l, last-9, 99)
	if term, ok := l.TermAt(last - 9); !ok || term != 99 {
		t.Fatalf("re-appended entry term = %d,%v", term, ok)
	}
	if err := l.CompactTo(l.Last()); err != nil || l.Len() != 0 {
		t.Fatalf("compact to the tail: len=%d, %v", l.Len(), err)
	}
	mustAppend(t, l, l.Last()+1, 99)
}

// BenchmarkAppendCompact is one put's work on a full daemon log: append,
// then compact the tail back to the default 1024 retained entries.
func BenchmarkAppendCompact(b *testing.B) {
	const retain = 1024
	l := NewLog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(Entry{Seq: l.Last() + 1, Term: 1}); err != nil {
			b.Fatal(err)
		}
		if l.Len() > retain {
			if err := l.CompactTo(l.Last() - retain); err != nil {
				b.Fatal(err)
			}
		}
	}
}
