package faults

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNilInjectorDeliversEverything(t *testing.T) {
	var in *Injector
	if v := in.Verdict(0, 1); v.Drop || v.ExtraMs != 0 {
		t.Fatalf("nil injector injected %+v", v)
	}
	if in.NodeDown(3) || in.Partitioned(1, 2) {
		t.Fatal("nil injector reported faults")
	}
	in.SetEpoch(9)
	if in.AdvanceEpoch() != 0 {
		t.Fatal("nil injector tracked an epoch")
	}
}

func TestCrashWindow(t *testing.T) {
	in, err := NewInjector(&Plan{Crashes: []Crash{{Node: 2, From: 5, To: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		epoch int
		down  bool
	}{{4, false}, {5, true}, {8, true}, {9, false}} {
		in.SetEpoch(tc.epoch)
		if got := in.NodeDown(2); got != tc.down {
			t.Errorf("epoch %d: NodeDown(2)=%v want %v", tc.epoch, got, tc.down)
		}
		// Both directions drop while down.
		if got := in.Verdict(2, 0).Drop; got != tc.down {
			t.Errorf("epoch %d: Verdict(2,0).Drop=%v want %v", tc.epoch, got, tc.down)
		}
		if got := in.Verdict(0, 2).Drop; got != tc.down {
			t.Errorf("epoch %d: Verdict(0,2).Drop=%v want %v", tc.epoch, got, tc.down)
		}
	}
	if in.NodeDown(0) {
		t.Error("uncrashed node reported down")
	}
}

func TestPartitionSemantics(t *testing.T) {
	// Explicit two-group partition.
	in, err := NewInjector(&Plan{Partitions: []Partition{
		{A: []int{0, 1}, B: []int{2, 3}, From: 1, To: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	in.SetEpoch(1)
	if !in.Partitioned(0, 3) || !in.Partitioned(2, 1) {
		t.Error("cross-group traffic not partitioned")
	}
	if in.Partitioned(0, 1) || in.Partitioned(2, 3) {
		t.Error("intra-group traffic partitioned")
	}
	if in.Partitioned(0, 9) {
		t.Error("outsider partitioned from explicit groups")
	}
	in.SetEpoch(3)
	if in.Partitioned(0, 3) {
		t.Error("partition outlived its window")
	}

	// Minority-cut: A vs rest of the world.
	in2, err := NewInjector(&Plan{Partitions: []Partition{{A: []int{5}, From: 0, To: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !in2.Partitioned(5, 0) || !in2.Partitioned(7, 5) {
		t.Error("minority cut not applied")
	}
	if in2.Partitioned(1, 2) {
		t.Error("majority side self-partitioned")
	}
}

func TestDropDeterminismAndRate(t *testing.T) {
	plan := &Plan{Seed: 42, Links: []LinkFault{
		{Src: 0, Dst: 1, From: 0, To: 0, DropProb: 0.3},
	}}
	sample := func() []bool {
		in, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 2000)
		for i := range out {
			out[i] = in.Verdict(0, 1).Drop
		}
		return out
	}
	a, b := sample(), sample()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coin flip %d differs between identical runs", i)
		}
		if a[i] {
			drops++
		}
	}
	rate := float64(drops) / float64(len(a))
	if math.Abs(rate-0.3) > 0.05 {
		t.Errorf("drop rate %.3f far from configured 0.3", rate)
	}

	// A different seed yields a different sequence.
	plan2 := *plan
	plan2.Seed = 43
	in2, err := NewInjector(&plan2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if in2.Verdict(0, 1).Drop == a[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seed change did not change the coin-flip sequence")
	}
}

func TestLatencySpikeAndWildcards(t *testing.T) {
	in, err := NewInjector(&Plan{Links: []LinkFault{
		{Src: 1, Dst: Wild, From: 2, To: 9, ExtraMs: 40},
		{Src: Wild, Dst: 3, From: 2, To: 9, ExtraMs: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	in.SetEpoch(5)
	if v := in.Verdict(1, 0); v.ExtraMs != 40 {
		t.Errorf("1->0 extra %v want 40", v.ExtraMs)
	}
	if v := in.Verdict(1, 3); v.ExtraMs != 50 { // both faults stack
		t.Errorf("1->3 extra %v want 50", v.ExtraMs)
	}
	if v := in.Verdict(0, 2); v.ExtraMs != 0 {
		t.Errorf("unaffected link delayed by %v", v.ExtraMs)
	}
	in.SetEpoch(1)
	if v := in.Verdict(1, 3); v.ExtraMs != 0 {
		t.Errorf("spike active before its window: %v", v.ExtraMs)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := "crash 2@5-8; partition 0,1|2,3@3-6; partition 4@7; drop 0>3:0.2@1-10; slow 1>*:40@2-9"
	p, err := Parse(7, src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Crashes) != 1 || len(p.Partitions) != 2 || len(p.Links) != 2 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Crashes[0] != (Crash{Node: 2, From: 5, To: 8}) {
		t.Errorf("crash parsed as %+v", p.Crashes[0])
	}
	if p.Links[1].Src != 1 || p.Links[1].Dst != Wild || p.Links[1].ExtraMs != 40 {
		t.Errorf("slow parsed as %+v", p.Links[1])
	}
	// The rendering reparses to the same plan.
	p2, err := Parse(7, p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Errorf("round trip changed plan: %q vs %q", p.String(), p2.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"crash x@1-2",
		"crash 1",
		"drop 0>1:1.5@0-2",
		"drop 0:0.2@1",
		"slow 0>1:-3@1",
		"partition @1-2",
		"teleport 3@1-2",
		"crash 2@8-5",
	} {
		if _, err := Parse(1, bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Empty plans are fine.
	p, err := Parse(1, "  ")
	if err != nil || !p.Empty() {
		t.Errorf("blank plan: %v %+v", err, p)
	}
}

// TestParseStringPropertyRoundTrip is the DSL's property test: for
// randomized plans, rendering and reparsing must be the identity — both
// at the String level and structurally. This pins the grammar against
// drift as directives grow (a renderer that emits something Parse
// rejects, or normalizes differently, fails here first).
func TestParseStringPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	epochRange := func() (int, int) {
		from := r.Intn(20)
		return from, from + r.Intn(10)
	}
	node := func() int {
		if r.Intn(6) == 0 {
			return Wild
		}
		return r.Intn(12)
	}
	for trial := 0; trial < 300; trial++ {
		p := &Plan{Seed: int64(trial)}
		for i, nc := 0, r.Intn(4); i < nc; i++ {
			from, to := epochRange()
			p.Crashes = append(p.Crashes, Crash{Node: r.Intn(12), From: from, To: to})
		}
		for i, np := 0, r.Intn(3); i < np; i++ {
			perm := r.Perm(12)
			na, nb := 1+r.Intn(3), r.Intn(3)
			from, to := epochRange()
			// Parse normalizes node lists to ascending order; generate
			// them sorted so structural identity holds.
			a, b := perm[:na], perm[na:na+nb]
			sort.Ints(a)
			sort.Ints(b)
			pt := Partition{A: a, From: from, To: to}
			if nb > 0 {
				pt.B = b
			}
			p.Partitions = append(p.Partitions, pt)
		}
		for i, nl := 0, r.Intn(4); i < nl; i++ {
			from, to := epochRange()
			lf := LinkFault{Src: node(), Dst: node(), From: from, To: to}
			// One effect per link: String renders a dual-effect fault as
			// two directives, which reparses to an equivalent but not
			// structurally identical plan.
			if r.Intn(2) == 0 {
				lf.DropProb = 0.05 + 0.9*r.Float64()
			} else {
				lf.ExtraMs = 1 + 99*r.Float64()
			}
			p.Links = append(p.Links, lf)
		}
		if p.Empty() {
			continue
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid plan: %v\n%+v", trial, err, p)
		}
		s := p.String()
		q, err := Parse(p.Seed, s)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, s, err)
		}
		if got := q.String(); got != s {
			t.Fatalf("trial %d: round trip changed rendering:\n%q\nvs\n%q", trial, s, got)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("trial %d: round trip changed plan for %q:\n%+v\nvs\n%+v", trial, s, p, q)
		}
	}
}
