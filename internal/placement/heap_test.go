package placement

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/testenv"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/vec"
)

// maxObjectHeapBytes bounds the live heap one fleet-shaped object holds
// after warm-up: the measured figure plus 10 %. DESIGN.md §13 lists
// what the bytes are.
const maxObjectHeapBytes = 6_000

// maxTickAllocsPerObject bounds the steady-state heap allocations of one
// object-tick with every sink on: 40 % of the 38.0 measured before the
// span buffers were recycled, the ledger batched and the per-micro pass
// shared.
const maxTickAllocsPerObject = 15.2

// testFleet is a Service shaped like the fleet benchmark's (k=3, m=24,
// 20 candidates among 84 nodes, three demand classes, 10 accesses per
// object per epoch) with metrics, a flight-recorder tracer, a ledger
// and provenance on.
type testFleet struct {
	svc    *Service
	objs   []*Object
	coords []coord.Coordinate
	pops   []int
	r      *rand.Rand
	epoch  int
}

const (
	fleetArc       = 21
	fleetPerObject = 10
)

func newTestFleet(t testing.TB, objects int) *testFleet {
	const (
		nodes = 84
		cands = 20
	)
	r := rand.New(rand.NewSource(1))
	coords := make([]coord.Coordinate, nodes)
	for i := range coords {
		coords[i] = coord.Coordinate{Pos: vec.Vec{r.Float64() * 200, r.Float64() * 200, r.Float64() * 200}, Height: r.Float64()}
	}
	var candidates, pops []int
	for i := 0; i < nodes; i++ {
		if i%4 == 0 && len(candidates) < cands {
			candidates = append(candidates, i)
		} else {
			pops = append(pops, i)
		}
	}
	led, err := ledger.Open(t.TempDir(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	cfg := ServiceConfig{
		Object: replica.Config{
			K: 3, M: 24, Dims: 3,
			Migration:  replica.MigrationPolicy{MinRelativeGain: 0.05},
			Metrics:    metrics.NewRegistry(),
			Tracer:     trace.New(trace.NewFlightRecorder(0, 0), "coordinator", trace.WithRand(rand.New(rand.NewSource(2)))),
			Ledger:     led,
			Provenance: true,
		},
		Candidates:     candidates,
		Coords:         coords,
		GroupEpsilon:   0.25,
		DriftThreshold: 0.05,
		WarmStart:      true,
		Seed:           1,
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{svc: svc, objs: make([]*Object, objects), coords: coords, pops: pops, r: r}
	for i := range f.objs {
		if f.objs[i], err = svc.Register(fmt.Sprintf("obj-%05d", i), fmt.Sprintf("class-%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// feed records one epoch of accesses: object i reads from an arc of
// PoPs that its class selects and that slides one PoP per epoch.
func (f *testFleet) feed(t testing.TB) {
	for i, o := range f.objs {
		start := (i%3)*fleetArc + f.epoch
		for a := 0; a < fleetPerObject; a++ {
			if _, err := o.Record(f.coords[f.pops[(start+f.r.Intn(fleetArc))%len(f.pops)]], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.epoch++
}

func (f *testFleet) tick(t testing.TB) {
	if _, err := f.svc.EndEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetObjectHeap gates what one object of a fleet holds: 2 000
// fleet-shaped objects, three warm ticks, then a full collection. State
// every object would hold an identical copy of lives once per Service,
// so the per-object figure is the object's own summaries, placement and
// decision record.
func TestFleetObjectHeap(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const objects = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := newTestFleet(t, objects)
	for e := 0; e < 3; e++ {
		f.feed(t)
		f.tick(t)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)

	perObj := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / objects
	t.Logf("%d B of live heap per object (%d objects, %d ticks)", perObj, objects, 3)
	if perObj > maxObjectHeapBytes {
		t.Errorf("one fleet object holds %d B, want <= %d", perObj, maxObjectHeapBytes)
	}
}

// TestFleetTickAllocs gates the steady-state allocations of a fleet tick
// with every sink on, per object-tick: 300 objects, eight warm ticks,
// then eight measured ones. The accesses are fed off the count; what is
// counted is EndEpoch — collection, grouping, solves, completion, span
// trees, ledger frames and provenance capture.
func TestFleetTickAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		objects = 300
		warm    = 8
		ticks   = 8
	)
	f := newTestFleet(t, objects)
	for e := 0; e < warm; e++ {
		f.feed(t)
		f.tick(t)
	}
	var mallocs uint64
	for e := 0; e < ticks; e++ {
		f.feed(t)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f.tick(t)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	per := float64(mallocs) / float64(objects*ticks)
	t.Logf("%.1f allocations per object-tick (%d objects, %d ticks)", per, objects, ticks)
	if per > maxTickAllocsPerObject {
		t.Errorf("a fleet tick allocates %.1f per object, want <= %.1f", per, maxTickAllocsPerObject)
	}
}

// BenchmarkFleetTick prices one all-sinks-on fleet tick of 2 000
// objects; the accesses are fed off the clock.
func BenchmarkFleetTick(b *testing.B) {
	f := newTestFleet(b, 2000)
	for e := 0; e < 3; e++ {
		f.feed(b)
		f.tick(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.feed(b)
		b.StartTimer()
		f.tick(b)
	}
}
