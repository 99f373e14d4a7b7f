package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fixedRTT builds a latency oracle from a symmetric map keyed by the
// smaller node ID first.
func fixedRTT(pairs map[[2]NodeID]float64) LatencyFunc {
	return func(a, b NodeID) float64 {
		if a > b {
			a, b = b, a
		}
		return pairs[[2]NodeID{a, b}]
	}
}

func TestSendDeliversAfterHalfRTT(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 100}))
	var arrivedAt float64 = -1
	var got Message
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	err := s.AddNode(2, func(sim *Simulator, m Message) {
		arrivedAt = sim.Now()
		got = m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SendBatch(1, 2, 1, "hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if arrivedAt != 50 {
		t.Errorf("arrival at %v ms, want 50", arrivedAt)
	}
	if got.From != 1 || got.To != 2 || got.Payload != "hello" {
		t.Errorf("message = %+v", got)
	}
}

func TestCallMeasuresFullRTT(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 80}))
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	err := s.AddNode(2, nil, func(sim *Simulator, from NodeID, req any) any {
		return req.(int) * 2
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotResp any
	var gotRTT float64
	if err := s.Call(1, 2, 21, func(resp any, rtt float64) {
		gotResp, gotRTT = resp, rtt
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotResp != 42 {
		t.Errorf("response = %v, want 42", gotResp)
	}
	if gotRTT != 80 {
		t.Errorf("measured RTT = %v, want 80", gotRTT)
	}
}

func TestSelfCallIsInstant(t *testing.T) {
	s := New(fixedRTT(nil))
	if err := s.AddNode(1, nil, func(sim *Simulator, from NodeID, req any) any { return "ok" }); err != nil {
		t.Fatal(err)
	}
	var rtt float64 = -1
	if err := s.Call(1, 1, nil, func(resp any, r float64) { rtt = r }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if rtt != 0 {
		t.Errorf("self RTT = %v, want 0", rtt)
	}
}

func TestUnknownNodesRejected(t *testing.T) {
	s := New(fixedRTT(nil))
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SendBatch(1, 9, 1, nil); err == nil {
		t.Error("unknown destination should fail")
	}
	if err := s.SendBatch(9, 1, 1, nil); err == nil {
		t.Error("unknown sender should fail")
	}
	if err := s.Call(9, 1, nil, nil); err == nil {
		t.Error("unknown caller should fail")
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	s := New(fixedRTT(nil))
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(1, nil, nil); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestBadLatencyOracle(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		s := New(func(a, b NodeID) float64 { return bad })
		if err := s.AddNode(1, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.AddNode(2, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.SendBatch(1, 2, 1, nil); err == nil {
			t.Errorf("latency %v should be rejected", bad)
		}
	}
}

func TestAfterValidation(t *testing.T) {
	s := New(fixedRTT(nil))
	if err := s.After(-1, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
	if err := s.After(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay should fail")
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	s := New(fixedRTT(nil))
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := s.After(10, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestClockMonotone(t *testing.T) {
	s := New(fixedRTT(nil))
	var times []float64
	for _, d := range []float64{30, 10, 20} {
		if err := s.After(d, func() { times = append(times, s.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if times[0] != 10 || times[1] != 20 || times[2] != 30 {
		t.Errorf("fire times = %v", times)
	}
}

func TestEventBudget(t *testing.T) {
	s := New(fixedRTT(nil))
	var bomb func()
	bomb = func() {
		_ = s.After(1, bomb) // endless chain
	}
	if err := s.After(1, bomb); err != nil {
		t.Fatal(err)
	}
	n, err := s.Run(100)
	if err == nil {
		t.Error("budget exhaustion should error")
	}
	if n != 100 {
		t.Errorf("processed %d events, want 100", n)
	}
}

func TestNestedSchedulingFromHandlers(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 10, {2, 3}: 10, {1, 3}: 10}))
	var path []NodeID
	relay := func(next NodeID) MessageHandler {
		return func(sim *Simulator, m Message) {
			path = append(path, m.To)
			if next != 0 {
				if err := sim.SendBatch(m.To, next, 1, m.Payload); err != nil {
					t.Errorf("relay send: %v", err)
				}
			}
		}
	}
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, relay(3), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(3, relay(0), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SendBatch(1, 2, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != 2 || path[1] != 3 {
		t.Errorf("path = %v", path)
	}
	if s.Now() != 10 { // two hops × 5ms one-way
		t.Errorf("final clock = %v, want 10", s.Now())
	}
}

func TestCallToNodeWithoutHandlerDropsSilently(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 10}))
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := s.Call(1, 2, nil, func(any, float64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("reply callback ran although destination has no handler")
	}
}

// Property: for random topologies and traffic, the simulator clock never
// moves backwards and all RPC RTT measurements equal the oracle's value.
func TestQuickRPCMeasurement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		rtts := make(map[[2]NodeID]float64)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				rtts[[2]NodeID{NodeID(i), NodeID(j)}] = 1 + r.Float64()*200
			}
		}
		s := New(fixedRTT(rtts))
		for i := 0; i < n; i++ {
			id := NodeID(i)
			if err := s.AddNode(id, nil, func(sim *Simulator, from NodeID, req any) any { return req }); err != nil {
				return false
			}
		}
		type obs struct {
			want float64
			got  float64
		}
		var results []obs
		for q := 0; q < 20; q++ {
			a := NodeID(r.Intn(n))
			b := NodeID(r.Intn(n))
			want := 0.0
			if a != b {
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				want = rtts[[2]NodeID{lo, hi}]
			}
			o := &obs{want: want, got: -1}
			results = append(results, *o)
			idx := len(results) - 1
			if err := s.Call(a, b, q, func(resp any, rtt float64) {
				results[idx].got = rtt
			}); err != nil {
				return false
			}
		}
		if _, err := s.Run(0); err != nil {
			return false
		}
		for _, o := range results {
			if math.Abs(o.got-o.want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
