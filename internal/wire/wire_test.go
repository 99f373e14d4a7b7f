package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	b := []byte{0x7f}
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<63+5)
	b = AppendF64(b, -2.5)
	b = AppendBool(AppendBool(b, true), false)
	b = binary.AppendVarint(b, -300)
	b = binary.AppendUvarint(b, 300)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "obj-1")
	b = AppendBytes(b, nil)
	b = binary.AppendUvarint(b, 2)
	b = AppendF64s(b, []float64{1.5, math.Inf(-1)})

	r := NewReader(b)
	if v := r.U8(); v != 0x7f {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63+5 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.F64(); v != -2.5 {
		t.Errorf("F64 = %v", v)
	}
	if a, b := r.Bool(), r.Bool(); !a || b {
		t.Errorf("Bool, Bool = %v, %v", a, b)
	}
	if v := r.Varint(); v != -300 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.Str(); v != "obj-1" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if v := r.F64s(uint64(r.Count(8))); len(v) != 2 || v[0] != 1.5 || !math.IsInf(v[1], -1) {
		t.Errorf("F64s = %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// The first failure is the one reported, with its offset, and every read
// behind it returns a zero value without moving.
func TestReaderLatches(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	r.U8()
	if v := r.U64(); v != 0 {
		t.Fatalf("U64 past the end = %d", v)
	}
	if r.err == nil {
		t.Fatal("a read past the end did not latch")
	}
	if r.U8() != 0 || r.U32() != 0 || r.F64() != 0 || r.Bool() || r.Varint() != 0 || r.Uvarint() != 0 ||
		r.Count(1) != 0 || r.Fit(1, 1) != 0 || r.Take(1) != nil || r.Bytes() != nil || r.Str() != "" || r.F64s(1) != nil {
		t.Fatal("a read after the failure returned a value")
	}
	r.Failf("later")
	if err := r.Finish(); err == nil || err.Error() != "length 8 exceeds the 4 bytes that remain at byte 1" {
		t.Fatalf("Finish = %v, want the first failure at its offset", err)
	}
}

func TestReaderRefusals(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8() }, "1 trailing bytes"},
		{"bad bool", []byte{2}, func(r *Reader) { r.Bool() }, "bad bool 0x2 at byte 1"},
		{"unterminated varint", []byte{0x80}, func(r *Reader) { r.Varint() }, "bad varint at byte 0"},
		{"overlong uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "bad uvarint at byte 0"},
		{"count over the remainder", append(huge, 0, 0, 0), func(r *Reader) { r.Count(1) }, "exceeds the 3 bytes that remain at byte 9"},
		{"count by element size", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }, "length 2 exceeds the 3 bytes"},
		{"floats over the remainder", make([]byte, 15), func(r *Reader) { r.F64s(2) }, "length 2 exceeds the 15 bytes"},
		{"floats 2^61", make([]byte, 16), func(r *Reader) { r.F64s(1 << 61) }, "exceeds the 16 bytes"},
		{"bytes length lies", []byte{0xff, 0xff, 0xff, 0x7f, 1}, func(r *Reader) { r.Bytes() }, "length 2147483647 exceeds the 1 bytes that remain at byte 4"},
		{"negative take", []byte{1}, func(r *Reader) { r.Take(-1) }, "exceeds the 1 bytes that remain at byte 0"},
		{"caller's failure", []byte{9}, func(r *Reader) { r.U8(); r.Failf("bad marker (want %#x)", 0x81) }, "bad marker (want 0x81) at byte 1"},
	}
	for _, tc := range cases {
		r := NewReader(tc.in)
		tc.read(&r)
		if err := r.Finish(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// Take hands out the input's own bytes, capped: a decoded slice aliases
// the body, and appending to it cannot reach the field behind.
func TestTakeAliasesCapped(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	r := NewReader(in)
	got := r.Take(2)
	if &got[0] != &in[0] || cap(got) != 2 {
		t.Fatalf("Take(2): aliases=%v cap=%d, want the input's bytes capped at 2", &got[0] == &in[0], cap(got))
	}
	_ = append(got, 9)
	if in[2] != 3 {
		t.Fatal("appending to a taken slice overwrote the next field")
	}
	if empty := r.Take(0); empty == nil || len(empty) != 0 {
		t.Fatalf("Take(0) = %v, want empty and non-nil", empty)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	buf := []byte("prefix")
	at := len(buf)
	buf = BeginFrame(buf)
	buf = append(buf, "payload"...)
	EndFrame(buf, at)
	buf = append(buf, "rest"...)

	frame := buf[at:]
	if n := binary.LittleEndian.Uint32(frame); n != 7 {
		t.Fatalf("length field = %d", n)
	}
	payload, rest, err := NextFrame(frame, 7)
	if err != nil || string(payload) != "payload" || string(rest) != "rest" {
		t.Fatalf("NextFrame = %q, %q, %v", payload, rest, err)
	}
	if cap(payload) != len(payload) {
		t.Fatalf("payload cap %d reaches past its %d bytes", cap(payload), len(payload))
	}
	if string(buf[:at]) != "prefix" {
		t.Fatal("EndFrame wrote in front of the frame")
	}
}

// The four ways a frame is refused stay distinguishable: the ledger words
// each differently and truncates a torn tail but not a corrupt middle.
func TestNextFrameFaults(t *testing.T) {
	good := BeginFrame(nil)
	good = append(good, 1, 2, 3, 4)
	EndFrame(good, 0)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	cases := []struct {
		name  string
		in    []byte
		limit int
		fault FrameFault
		len   uint32
		msg   string
	}{
		{"short header", good[:5], 4, ShortHeader, 0, "short frame header (5 bytes)"},
		{"over limit", good, 3, OverLimit, 4, "frame length 4 exceeds limit 3"},
		{"over limit beats torn", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, 1 << 20, OverLimit, math.MaxUint32, "frame length 4294967295 exceeds limit 1048576"},
		{"torn", good[:10], 4, Torn, 4, "torn frame (10 of 12 bytes)"},
		{"bad crc", flipped, 4, BadCRC, 4, "frame CRC mismatch"},
	}
	for _, tc := range cases {
		payload, rest, err := NextFrame(tc.in, tc.limit)
		var fe *FrameError
		if !errors.As(err, &fe) || payload != nil || rest != nil {
			t.Errorf("%s: NextFrame = %v, %v, %v; want a *FrameError alone", tc.name, payload, rest, err)
			continue
		}
		if fe.Fault != tc.fault || fe.Len != tc.len || !strings.Contains(fe.Error(), tc.msg) {
			t.Errorf("%s: fault %d len %d %q, want fault %d len %d %q", tc.name, fe.Fault, fe.Len, fe, tc.fault, tc.len, tc.msg)
		}
	}
	if payload, rest, err := NextFrame(BeginFrame(nil), 0); err != nil || len(payload) != 0 || len(rest) != 0 {
		t.Errorf("empty frame: %v, %v, %v", payload, rest, err)
	}
}

// FuzzWireReader drives a reader with a script of reads over arbitrary
// bytes: no read panics, the cursor only moves forward and stays inside
// the input, nothing is returned once a read has failed, and no result is
// larger than the bytes that were left to back it — a length that lies
// cannot make the reader allocate.
func FuzzWireReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, []byte{1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 1})
	f.Add([]byte{7, 9}, binary.AppendUvarint(nil, 1<<62))
	f.Add([]byte{8, 10}, []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{11, 12}, append(binary.AppendUvarint(nil, 2), make([]byte, 16)...))
	f.Add([]byte{5, 6}, bytes.Repeat([]byte{0xff}, 12))
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader(data)
		for _, op := range script {
			before, failed := r.off, r.err != nil
			left := len(data) - before
			size := 0 // bytes the result holds
			zero := true
			switch op % 13 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U32() == 0
			case 2:
				zero = r.U64() == 0
			case 3:
				zero = math.Float64bits(r.F64()) == 0
			case 4:
				zero = !r.Bool()
			case 5:
				zero = r.Varint() == 0
			case 6:
				zero = r.Uvarint() == 0
			case 7:
				per := 1 + int(op/13)
				n := r.Count(per)
				size, zero = n*per, n == 0
			case 8:
				v := r.Bytes()
				size, zero = len(v), v == nil
			case 9:
				v := r.Str()
				size, zero = len(v), v == ""
			case 10:
				v := r.F64s(uint64(r.U32()))
				size, zero = 8*len(v), v == nil
			case 11:
				v := r.Take(int(op / 13))
				size, zero = len(v), v == nil
			case 12:
				v := r.F64s(r.Uvarint())
				size, zero = 8*len(v), v == nil
			}
			if r.off < before || r.off > len(data) {
				t.Fatalf("op %d moved the cursor from %d to %d of %d", op, before, r.off, len(data))
			}
			if size > left {
				t.Fatalf("op %d returned %d bytes with %d left", op, size, left)
			}
			if failed && r.off != before {
				t.Fatalf("op %d moved the cursor after a failure", op)
			}
			if r.err != nil && !zero {
				t.Fatalf("op %d failed and still returned a value", op)
			}
		}
		if err := r.Finish(); err == nil && r.off != len(data) {
			t.Fatalf("Finish accepted %d trailing bytes", len(data)-r.off)
		}
	})
}

// FuzzWireFrame: NextFrame never panics on arbitrary bytes and accepts
// only what BeginFrame/EndFrame produce — whatever it accepts re-frames
// to the bytes it was read from — and a frame built from the input comes
// back whole, while the same frame with a bit of its checksum or payload
// flipped, or cut short, is refused.
func FuzzWireFrame(f *testing.F) {
	seed := BeginFrame(nil)
	seed = append(seed, "a frame"...)
	EndFrame(seed, 0)
	f.Add(seed, uint16(3))
	f.Add(seed[:9], uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint16(77))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, in []byte, pick uint16) {
		limit := len(in)
		payload, rest, err := NextFrame(in, limit)
		if err == nil {
			if len(payload) > limit || FrameHeader+len(payload)+len(rest) != len(in) {
				t.Fatalf("accepted %d payload + %d rest bytes of %d", len(payload), len(rest), len(in))
			}
			again := append(BeginFrame(nil), payload...)
			EndFrame(again, 0)
			if !bytes.Equal(again, in[:len(again)]) {
				t.Fatalf("accepted %x, which frames as %x", in[:len(again)], again)
			}
		} else if _, ok := err.(*FrameError); !ok {
			t.Fatalf("error is a %T", err)
		}

		frame := append([]byte("xx"), 0)
		frame = append(BeginFrame(frame), in...)
		EndFrame(frame, 3)
		frame = frame[3:]
		got, rest, err := NextFrame(frame, len(in))
		if err != nil || !bytes.Equal(got, in) || len(rest) != 0 {
			t.Fatalf("own frame came back %x, %x, %v", got, rest, err)
		}
		bit := 32 + int(pick)%(8*(len(frame)-4)) // in the checksum or the payload: CRC-32 catches every single-bit error there
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := NextFrame(frame, len(in)); err == nil {
			t.Fatalf("bit %d flipped and the frame still passed", bit)
		}
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := NextFrame(frame[:len(frame)-1-int(pick)%len(frame)], len(in)); err == nil {
			t.Fatal("a cut frame passed")
		}
	})
}
