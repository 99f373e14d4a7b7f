package cluster

import (
	"math"
	"testing"
)

// FuzzDecodeMicros feeds arbitrary bytes to the summary decoder: it must
// reject or accept without panicking, and accepted summaries must be
// structurally sound.
func FuzzDecodeMicros(f *testing.F) {
	// Seed with a real encoding.
	s, err := NewSummarizer(4, 3)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Observe([]float64{float64(i), 1, 2}, 1); err != nil {
			f.Fatal(err)
		}
	}
	enc, err := EncodeMicros(s.Clusters())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, in []byte) {
		ms, err := DecodeMicros(in)
		if err != nil {
			return
		}
		for i := range ms {
			if ms[i].Count < 0 || ms[i].Weight < 0 {
				t.Fatal("decoder accepted negative mass")
			}
			if w := ms[i].Weight; math.IsNaN(w) || math.IsInf(w, 0) || !ms[i].Sum.IsFinite() || !ms[i].Sum2.IsFinite() {
				t.Fatalf("decoder accepted a non-finite micro: %+v", ms[i])
			}
			if ms[i].Sum.Dim() != ms[i].Sum2.Dim() {
				t.Fatal("decoder accepted inconsistent dimensions")
			}
			// Derived quantities must not panic.
			_ = ms[i].Centroid()
			_ = ms[i].StdDev()
		}
	})
}
