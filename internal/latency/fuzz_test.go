package latency

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead checks that arbitrary input never panics the native-format
// parser and that every successfully parsed matrix validates and
// round-trips.
func FuzzRead(f *testing.F) {
	f.Add("2\n0 10\n10 0\n")
	f.Add("3\n0 1 2\n1 0 3\n2 3 0\n")
	f.Add("")
	f.Add("x\n")
	f.Add("2\n0 -5\n-5 0\n")
	f.Add("1\n0\n")
	f.Add("2\n0 NaN\nNaN 0\n")
	f.Add("2\n0 Inf\nInf 0\n")
	f.Add("2\n0 -Inf\n-Inf 0\n")
	f.Add("2\n0 infinity\n1 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed matrix fails validation: %v", err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if back.N() != m.N() {
			t.Fatalf("round trip changed size: %d vs %d", back.N(), m.N())
		}
	})
}

// FuzzReadKing checks the king-format parser against arbitrary input:
// no panics, and successful parses yield valid complete matrices whose
// off-diagonal entries are all finite and positive.
func FuzzReadKing(f *testing.F) {
	f.Add("0 10000\n10000 0\n")
	f.Add("0 -1\n30000 0\n")
	f.Add("# comment\n0 1 2\n1 0 3\n2 3 0\n")
	f.Add("")
	f.Add("0")
	f.Add("0 NaN\nNaN 0\n")
	f.Add("0 Inf\nInf 0\n")
	f.Add("0 -Inf\n10 0\n")
	f.Add("0 10\ninfinity 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadKing(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("king matrix fails validation: %v", err)
		}
		for _, v := range m.OffDiagonal() {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("king repair left non-positive or non-finite RTT %v", v)
			}
		}
	})
}
