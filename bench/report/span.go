package report

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"
)

// Span is one timed call the harness made into a layer. IDs are 1-based
// positions in the recorder; Parent 0 marks a root. Spans of one
// operation or tick share Op. Start and End are nanoseconds since the
// recorder was created.
type Span struct {
	ID     int32
	Parent int32
	Op     int64
	Name   string
	Start  int64
	End    int64
}

// Recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs share the drivers' code path at the
// cost of one nil check per call site.
type Recorder struct {
	t0    time.Time
	spans []Span
	// Inner is the duration an empty span records (clock-read cost
	// inside the span); Outer the wall cost of a whole Begin/End pair.
	// Aggregate subtracts both so nanosecond-scale layers are not
	// reported as the cost of timing them.
	Inner, Outer float64
}

// NewRecorder returns a recorder with room for capacity spans before it
// has to grow, calibrated against this machine's clock.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{t0: time.Now(), spans: make([]Span, 0, capacity)}
	r.calibrate()
	return r
}

func (r *Recorder) calibrate() {
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		r.End(r.Begin("calibrate", 0, 0))
	}
	r.Outer = float64(time.Since(start)) / n
	var inner int64
	for _, s := range r.spans {
		inner += s.End - s.Start
	}
	r.Inner = float64(inner) / n
	r.spans = r.spans[:0]
}

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int32, op int64) int32 {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, Span{
		ID: int32(len(r.spans) + 1), Parent: parent, Op: op, Name: name,
	})
	s := &r.spans[len(r.spans)-1]
	s.Start = int64(time.Since(r.t0))
	return s.ID
}

// End closes the span Begin returned.
func (r *Recorder) End(id int32) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// Timed runs f inside a span and returns f's wall time, which it
// measures on a nil recorder too: the drivers time every call the same
// way whether or not the run is traced.
func (r *Recorder) Timed(name string, parent int32, op int64, f func()) time.Duration {
	sp := r.Begin(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	r.End(sp)
	return d
}

// Spans returns the recorded spans (nil on a nil recorder).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SpanStat summarizes the spans of one name.
type SpanStat struct {
	Count int
	// SelfNs sums durations minus the part of each interval its child
	// spans cover.
	SelfNs float64
}

// MeanSelfNs is the mean self time per span.
func (s SpanStat) MeanSelfNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SelfNs / float64(s.Count)
}

// SelfTimes returns, per span id-1, the span's duration minus the part
// of its interval covered by its direct children (overlapping children
// are counted once; children are clipped to the parent).
func SelfTimes(spans []Span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		var covered int64
		cur := s.Start
		for _, k := range ks {
			lo, hi := k.lo, k.hi
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = dur - covered
	}
	return self
}

// Aggregate groups spans by name, correcting each duration for the
// recorder's own clock cost (never below zero).
func Aggregate(spans []Span, inner, outer float64) map[string]SpanStat {
	self := SelfTimes(spans)
	nkids := make(map[int32]int)
	for _, s := range spans {
		if s.Parent != 0 {
			nkids[s.Parent]++
		}
	}
	out := make(map[string]SpanStat)
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.SelfNs += nonNeg(float64(self[i]) - inner - float64(nkids[s.ID])*(outer-inner))
		out[s.Name] = st
	}
	return out
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// WriteSpans writes spans as JSON lines:
// {"id":1,"parent":0,"op":7,"name":"client.get","start_ns":..,"end_ns":..}
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, s.Op, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
