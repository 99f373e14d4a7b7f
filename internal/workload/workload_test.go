package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func basicSpec() Spec {
	return Spec{
		Clients: []ClientSpec{
			{Node: 0, Region: 0, Rate: 1},
			{Node: 1, Region: 0, Rate: 1},
			{Node: 2, Region: 1, Rate: 1},
		},
		Objects:         10,
		ZipfExponent:    1,
		MeanObjectBytes: 1000,
	}
}

func TestSpecValidate(t *testing.T) {
	good := basicSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no clients", func(s *Spec) { s.Clients = nil }},
		{"negative rate", func(s *Spec) { s.Clients[0].Rate = -1 }},
		{"no objects", func(s *Spec) { s.Objects = 0 }},
		{"negative zipf", func(s *Spec) { s.ZipfExponent = -1 }},
		{"negative size", func(s *Spec) { s.MeanObjectBytes = -1 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			s := basicSpec()
			tt.mut(&s)
			if err := s.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNewGeneratorRejectsBadSpec(t *testing.T) {
	s := basicSpec()
	s.Objects = 0
	if _, err := NewGenerator(rand.New(rand.NewSource(1)), s); err == nil {
		t.Error("want error")
	}
}

func TestEpochBasics(t *testing.T) {
	g, err := NewGenerator(rand.New(rand.NewSource(2)), basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	accesses, err := g.EpochInto(r, 1000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(accesses) != 1000 {
		t.Fatalf("got %d accesses", len(accesses))
	}
	clientSeen := make(map[int]int)
	for _, a := range accesses {
		if a.Client < 0 || a.Client > 2 {
			t.Fatalf("unknown client %d", a.Client)
		}
		if a.Object < 0 || a.Object >= 10 {
			t.Fatalf("unknown object %d", a.Object)
		}
		if a.Bytes <= 0 {
			t.Fatalf("non-positive bytes %v", a.Bytes)
		}
		if a.Bytes != g.objBytes[a.Object] {
			t.Fatalf("bytes %v do not match object size %v", a.Bytes, g.objBytes[a.Object])
		}
		clientSeen[a.Client]++
	}
	// Uniform rates: each client gets roughly a third.
	for c, n := range clientSeen {
		if n < 250 || n > 420 {
			t.Errorf("client %d drew %d/1000 accesses, want ~333", c, n)
		}
	}
}

func TestEpochZipfSkew(t *testing.T) {
	g, err := NewGenerator(rand.New(rand.NewSource(4)), basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	accesses, err := g.EpochInto(rand.New(rand.NewSource(5)), 5000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for _, a := range accesses {
		counts[a.Object]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("object popularity not skewed: %v", counts)
	}
}

func TestEpochActivityModulation(t *testing.T) {
	g, err := NewGenerator(rand.New(rand.NewSource(6)), basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Region 1 is 10x as active as region 0.
	activity := func(region int) float64 {
		if region == 1 {
			return 10
		}
		return 1
	}
	accesses, err := g.EpochInto(rand.New(rand.NewSource(7)), 3000, activity, nil)
	if err != nil {
		t.Fatal(err)
	}
	var region1 int
	for _, a := range accesses {
		if a.Client == 2 {
			region1++
		}
	}
	// Expected share: 10 / (1+1+10) = 5/6.
	frac := float64(region1) / 3000
	if frac < 0.78 || frac > 0.9 {
		t.Errorf("region-1 share %v, want ~0.83", frac)
	}
}

func TestEpochErrors(t *testing.T) {
	g, err := NewGenerator(rand.New(rand.NewSource(8)), basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	if _, err := g.EpochInto(r, -1, nil, nil); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := g.EpochInto(r, 10, func(int) float64 { return 0 }, nil); err == nil {
		t.Error("all-zero activity should fail")
	}
	if _, err := g.EpochInto(r, 10, func(int) float64 { return -1 }, nil); err == nil {
		t.Error("negative activity should fail")
	}
}

func TestEpochZeroAccesses(t *testing.T) {
	g, err := NewGenerator(rand.New(rand.NewSource(10)), basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.EpochInto(rand.New(rand.NewSource(11)), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("want empty epoch, got %d", len(got))
	}
}

func TestDiurnalRotation(t *testing.T) {
	d := Diurnal{
		Period: 24,
		PhaseByRegion: map[int]float64{
			0: 0,   // peaks at t=0
			1: 0.5, // peaks at t=12
		},
	}
	at0, err := d.At(0)
	if err != nil {
		t.Fatal(err)
	}
	at12, err := d.At(12)
	if err != nil {
		t.Fatal(err)
	}
	if at0(0) <= at0(1) {
		t.Errorf("at t=0 region 0 (%v) should out-activate region 1 (%v)", at0(0), at0(1))
	}
	if at12(1) <= at12(0) {
		t.Errorf("at t=12 region 1 (%v) should out-activate region 0 (%v)", at12(1), at12(0))
	}
	// Floor keeps everyone alive.
	if at0(1) < 0.1 {
		t.Errorf("floor violated: %v", at0(1))
	}
}

func TestDiurnalValidation(t *testing.T) {
	d := Diurnal{Period: 0}
	if _, err := d.At(0); err == nil {
		t.Error("zero period should fail")
	}
}

func TestDiurnalPeriodicity(t *testing.T) {
	d := Diurnal{Period: 10, PhaseByRegion: map[int]float64{3: 0.25}}
	a, err := d.At(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.At(12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a(3)-b(3)) > 1e-9 {
		t.Errorf("activity not periodic: %v vs %v", a(3), b(3))
	}
}

func TestUniformClients(t *testing.T) {
	cs, err := UniformClients([]int{4, 7}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Node != 4 || cs[0].Region != 1 || cs[0].Rate != 1 {
		t.Errorf("client 0 = %+v", cs[0])
	}
	if cs[1].Node != 7 || cs[1].Region != 2 {
		t.Errorf("client 1 = %+v", cs[1])
	}
	if _, err := UniformClients([]int{1, 2}, []int{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	cs, err = UniformClients([]int{5}, nil)
	if err != nil || cs[0].Region != 0 {
		t.Errorf("nil regions should default to 0: %+v, %v", cs, err)
	}
}

// Property: epochs draw only known clients/objects and respect rate
// ratios within statistical bounds.
func TestQuickEpochWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nClients := 1 + r.Intn(10)
		spec := Spec{Objects: 1 + r.Intn(20), ZipfExponent: r.Float64() * 2}
		for i := 0; i < nClients; i++ {
			spec.Clients = append(spec.Clients, ClientSpec{
				Node: i, Region: r.Intn(3), Rate: 0.1 + r.Float64(),
			})
		}
		g, err := NewGenerator(r, spec)
		if err != nil {
			return false
		}
		accesses, err := g.EpochInto(r, 200, nil, nil)
		if err != nil {
			return false
		}
		for _, a := range accesses {
			if a.Client < 0 || a.Client >= nClients {
				return false
			}
			if a.Object < 0 || a.Object >= spec.Objects {
				return false
			}
			if a.Bytes <= 0 || math.IsNaN(a.Bytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
