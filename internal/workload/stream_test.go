package workload

import (
	"math"
	"math/rand"
	"testing"
)

func mustStream(t testing.TB, clients, regions int, mutate func(*StreamSpec)) *Stream {
	t.Helper()
	spec := StreamSpec{
		Clients:         clients,
		Regions:         regions,
		Objects:         64,
		ZipfExponent:    0.9,
		MeanObjectBytes: 1500,
		BatchSize:       256,
		Rate:            2048,
		Churn:           0.02,
		DiurnalPeriod:   24,
		DiurnalFloor:    0.1,
	}
	if mutate != nil {
		mutate(&spec)
	}
	nodes := make([]int, 32)
	nodeRegions := make([]int, 32)
	for i := range nodes {
		nodes[i] = i
		nodeRegions[i] = i % regions
	}
	cs, err := SynthClients(rand.New(rand.NewSource(5)), clients, nodes, nodeRegions)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(spec, cs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamSpecValidateRejects: every malformed field of a stream spec
// is refused by name before a stream is built.
func TestStreamSpecValidateRejects(t *testing.T) {
	base := StreamSpec{
		Clients: 1000, Regions: 4, Objects: 64, ZipfExponent: 0.9,
		MeanObjectBytes: 1500, BatchSize: 256, Rate: 2048, Churn: 0.02,
		DiurnalPeriod: 24, DiurnalFloor: 0.1,
		Flash: []FlashCrowd{{Region: 2, Start: 3, Duration: 2, Mult: 5}},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec: %v", err)
	}
	cases := map[string]func(*StreamSpec){
		"nan zipf":         func(s *StreamSpec) { s.ZipfExponent = math.NaN() },
		"inf bytes":        func(s *StreamSpec) { s.MeanObjectBytes = math.Inf(1) },
		"negative churn":   func(s *StreamSpec) { s.Churn = -0.5 },
		"churn above one":  func(s *StreamSpec) { s.Churn = 1.5 },
		"zero regions":     func(s *StreamSpec) { s.Regions = 0 },
		"zero clients":     func(s *StreamSpec) { s.Clients = 0 },
		"zero batch":       func(s *StreamSpec) { s.BatchSize = 0 },
		"zero rate":        func(s *StreamSpec) { s.Rate = 0 },
		"writes above one": func(s *StreamSpec) { s.WriteFraction = 1.5 },
		"flash oob":        func(s *StreamSpec) { s.Flash[0].Region = 9 },
		"flash neg mult":   func(s *StreamSpec) { s.Flash[0].Mult = -2 },
	}
	for name, mutate := range cases {
		spec := base
		spec.Flash = append([]FlashCrowd(nil), base.Flash...)
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSynthClients(t *testing.T) {
	nodes := []int{7, 11, 13}
	regions := []int{0, 1, 1}
	cs, err := SynthClients(rand.New(rand.NewSource(1)), 10, nodes, regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 10 {
		t.Fatalf("got %d clients", len(cs))
	}
	for i, c := range cs {
		if c.Node != nodes[i%3] || c.Region != regions[i%3] {
			t.Fatalf("client %d mapped to %+v", i, c)
		}
		if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
			t.Fatalf("client %d rate %v", i, c.Rate)
		}
	}
	if _, err := SynthClients(rand.New(rand.NewSource(1)), 0, nodes, regions); err == nil {
		t.Error("accepted zero clients")
	}
	if _, err := SynthClients(rand.New(rand.NewSource(1)), 5, nodes, regions[:2]); err == nil {
		t.Error("accepted mismatched regions")
	}
}

func TestStreamDeterminism(t *testing.T) {
	run := func(seed int64) string {
		s := mustStream(t, 1000, 4, nil)
		s.Seed(seed)
		d, err := StreamDigest(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if run(42) != run(42) {
		t.Fatal("same seed produced different streams")
	}
	if run(42) == run(43) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestStreamGolden pins the exact byte stream of a seeded 100k-client
// run. If an intentional generator change lands, rerun with -update-like
// care: copy the new hash from the failure message and justify it in
// the PR.
func TestStreamGolden(t *testing.T) {
	const want = "f8ba4d92426884733ed479bbc1fecb251a0cacd6b1a179b8a034ae35d0ab1b00"
	s := mustStream(t, 100000, 8, func(spec *StreamSpec) {
		spec.Rate = 8192
		spec.Flash = []FlashCrowd{{Region: 3, Start: 2, Duration: 2, Mult: 6}}
	})
	s.Seed(20260808)
	got, err := StreamDigest(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stream digest drifted:\n got %s\nwant %s", got, want)
	}
}

func TestStreamFlashCrowdShiftsLoad(t *testing.T) {
	const flashRegion = 2
	count := func(withFlash bool) int {
		s := mustStream(t, 2000, 4, func(spec *StreamSpec) {
			spec.DiurnalPeriod = 0
			spec.Churn = 0
			if withFlash {
				spec.Flash = []FlashCrowd{{Region: flashRegion, Start: 1, Duration: 3, Mult: 20}}
			}
		})
		s.Seed(9)
		batch := make([]Access, 512)
		if err := s.Advance(); err != nil { // enter the flash window
			t.Fatal(err)
		}
		regionOfNode := func(n int) int { return n % 4 }
		hits := 0
		for b := 0; b < 8; b++ {
			for _, a := range s.Next(batch) {
				if regionOfNode(a.Client) == flashRegion {
					hits++
				}
			}
		}
		return hits
	}
	base, flash := count(false), count(true)
	if flash < 2*base {
		t.Fatalf("flash crowd did not shift load: %d hits with flash vs %d without", flash, base)
	}
}

func TestStreamChurnConservesMass(t *testing.T) {
	s := mustStream(t, 1000, 4, func(spec *StreamSpec) {
		spec.DiurnalPeriod = 0
		spec.Churn = 0.1
	})
	var before float64
	for _, m := range s.curMass {
		before += m
	}
	for i := 0; i < 50; i++ {
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	var after float64
	for _, m := range s.curMass {
		after += m
	}
	if math.Abs(after-before) > 1e-6*before {
		t.Fatalf("churn leaked mass: %v -> %v", before, after)
	}
	// And it actually moved something.
	if s.curMass[0] == s.baseMass[0] {
		t.Fatal("churn did not drift any mass")
	}
}

func TestStreamNextZeroAlloc(t *testing.T) {
	s := mustStream(t, 5000, 4, nil)
	s.Seed(3)
	batch := make([]Access, 512)
	s.Next(batch) // warm up
	allocs := testing.AllocsPerRun(200, func() {
		s.Next(batch)
	})
	if allocs > 0 {
		t.Fatalf("Next allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Advance allocates %.1f/op, want 0", allocs)
	}
}

func TestStreamRejectsEmptyRegion(t *testing.T) {
	spec := StreamSpec{
		Clients: 4, Regions: 3, Objects: 4, BatchSize: 4, Rate: 16,
	}
	clients := []ClientSpec{
		{Node: 0, Region: 0, Rate: 1},
		{Node: 1, Region: 0, Rate: 1},
		{Node: 2, Region: 1, Rate: 1},
		{Node: 3, Region: 1, Rate: 1},
	}
	if _, err := NewStream(spec, clients); err == nil {
		t.Fatal("accepted a spec with an empty region")
	}
	clients[3].Region = 2
	clients[3].Rate = math.NaN()
	if _, err := NewStream(spec, clients); err == nil {
		t.Fatal("accepted a NaN client rate")
	}
}

func TestStreamWriteFraction(t *testing.T) {
	// A mixed stream marks roughly the requested share of writes.
	s := mustStream(t, 1000, 4, func(sp *StreamSpec) { sp.WriteFraction = 0.25 })
	batch := make([]Access, 256)
	writes, total := 0, 0
	for b := 0; b < 32; b++ {
		for _, a := range s.Next(batch) {
			total++
			if a.Write {
				writes++
			}
		}
	}
	got := float64(writes) / float64(total)
	if got < 0.2 || got > 0.3 {
		t.Fatalf("write share = %.3f, want ≈0.25", got)
	}

	// A read-only stream marks nothing — and its draw sequence is
	// untouched by the write path (the golden test pins the digest).
	s0 := mustStream(t, 1000, 4, nil)
	for _, a := range s0.Next(batch) {
		if a.Write {
			t.Fatalf("read-only stream emitted a write: %+v", a)
		}
	}
}
