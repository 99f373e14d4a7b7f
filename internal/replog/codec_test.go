package replog

import (
	"bytes"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	e := Entry{Seq: 42, Term: 7, Client: 3, Object: -1, Bytes: 1536.5}
	b := AppendFrame(nil, e)
	if len(b) != FrameLen {
		t.Fatalf("frame length = %d, want %d", len(b), FrameLen)
	}
	got, rest, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes, want 0", len(rest))
	}
	if got != e {
		t.Fatalf("round trip = %+v, want %+v", got, e)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var es []Entry
	for i := 1; i <= 17; i++ {
		es = append(es, Entry{Seq: uint64(i), Term: 2, Client: int32(i % 5), Object: int32(i % 3), Bytes: float64(i) * 100})
	}
	wire := EncodeBatch(es)
	if len(wire) != len(es)*FrameLen {
		t.Fatalf("wire = %d bytes, want %d", len(wire), len(es)*FrameLen)
	}
	got, err := DecodeBatch(wire)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(es) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(es))
	}
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], es[i])
		}
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	b := AppendFrame(nil, Entry{Seq: 1, Term: 1})
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x40
		if _, _, err := DecodeFrame(mut); err == nil {
			// Flipping the length field to the same value is impossible
			// with a fixed xor; every flip must be caught.
			t.Fatalf("byte %d corruption not detected", i)
		}
	}
	if _, _, err := DecodeFrame(b[:FrameLen-3]); err == nil {
		t.Fatalf("torn frame not detected")
	}
	if _, _, err := DecodeFrame(b[:5]); err == nil {
		t.Fatalf("short header not detected")
	}
}

// FuzzReplogBatch: DecodeBatch takes ReplicateResponse.Frames straight
// off the network. It must not panic, and whatever it accepts must be
// exactly what EncodeBatch writes for the entries it returned — so a torn
// tail or a flipped bit (both seeded) can only be refused.
func FuzzReplogBatch(f *testing.F) {
	batch := EncodeBatch([]Entry{{Seq: 1, Term: 1, Client: 3, Object: 0, Bytes: 4096}, {Seq: 2, Term: 1, Client: -1, Object: 7, Bytes: 0.5}})
	f.Add(batch)
	f.Add(batch[:len(batch)-5]) // torn tail
	flipped := append([]byte(nil), batch...)
	flipped[4] ^= 1 // one bit of the first frame's CRC
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		es, err := DecodeBatch(in)
		if err != nil {
			return
		}
		if len(in) != len(es)*FrameLen {
			t.Fatalf("accepted %d bytes as %d entries", len(in), len(es))
		}
		if out := EncodeBatch(es); !bytes.Equal(out, in) {
			t.Fatalf("accepted %x, which encodes as %x", in, out)
		}
	})
}
