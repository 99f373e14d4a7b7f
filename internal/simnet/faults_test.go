package simnet

import (
	"testing"

	"github.com/georep/georep/internal/faults"
)

func TestFaultDropLosesSend(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 10}))
	delivered := false
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, func(*Simulator, Message) { delivered = true }, nil); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(func(from, to NodeID) (bool, float64) { return true, 0 })
	if err := s.SendBatch(1, 2, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("dropped message was delivered")
	}
	if s.DroppedLegs() != 1 {
		t.Errorf("DroppedLegs = %d, want 1", s.DroppedLegs())
	}
}

func TestFaultDropOnEitherCallLegSilencesReply(t *testing.T) {
	// Leg selection: first drop the request (handler never runs), then
	// drop only the response (handler runs, callback still never fires).
	for _, dropReply := range []bool{false, true} {
		s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 10}))
		handled, replied := false, false
		if err := s.AddNode(1, nil, nil); err != nil {
			t.Fatal(err)
		}
		err := s.AddNode(2, nil, func(*Simulator, NodeID, any) any {
			handled = true
			return "ok"
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetFaults(func(from, to NodeID) (bool, float64) {
			// The reply leg runs 2->1; the request leg 1->2.
			if dropReply {
				return from == 2, 0
			}
			return from == 1, 0
		})
		if err := s.Call(1, 2, nil, func(any, float64) { replied = true }); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if handled != dropReply {
			t.Errorf("dropReply=%v: handler ran = %v", dropReply, handled)
		}
		if replied {
			t.Errorf("dropReply=%v: reply callback fired despite drop", dropReply)
		}
		if s.DroppedLegs() != 1 {
			t.Errorf("dropReply=%v: DroppedLegs = %d, want 1", dropReply, s.DroppedLegs())
		}
	}
}

func TestFaultExtraLatencyLengthensRTT(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 80}))
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, nil, func(*Simulator, NodeID, any) any { return "ok" }); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(func(from, to NodeID) (bool, float64) {
		if from == 1 { // request leg only
			return false, 25
		}
		return false, 0
	})
	var rtt float64 = -1
	if err := s.Call(1, 2, nil, func(_ any, r float64) { rtt = r }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if rtt != 105 { // 40 + 25 out, 40 back
		t.Errorf("measured RTT = %v, want 105", rtt)
	}
}

func TestFaultRemovalRestoresDelivery(t *testing.T) {
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 10}))
	count := 0
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, func(*Simulator, Message) { count++ }, nil); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(func(from, to NodeID) (bool, float64) { return true, 0 })
	if err := s.SendBatch(1, 2, 1, "lost"); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(nil)
	if err := s.SendBatch(1, 2, 1, "kept"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("delivered %d messages, want 1 (second send only)", count)
	}
}

// injectorFaults adapts a faults.Injector to the simulator's hook,
// matching how experiments wire the two together.
func injectorFaults(inj *faults.Injector) FaultFunc {
	return func(from, to NodeID) (bool, float64) {
		v := inj.Verdict(int(from), int(to))
		return v.Drop, v.ExtraMs
	}
}

func TestInjectorBackedRunIsDeterministic(t *testing.T) {
	plan, err := faults.Parse(42, "drop 1>2:0.5@0-9; slow 2>1:15@0-9")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (replies, dropped uint64, clock float64) {
		inj, err := faults.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 20}))
		if err := s.AddNode(1, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.AddNode(2, nil, func(*Simulator, NodeID, any) any { return "ok" }); err != nil {
			t.Fatal(err)
		}
		s.SetFaults(injectorFaults(inj))
		for i := 0; i < 50; i++ {
			if err := s.Call(1, 2, i, func(any, float64) { replies++ }); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		return replies, s.DroppedLegs(), s.Now()
	}
	d1, x1, c1 := run()
	d2, x2, c2 := run()
	if d1 != d2 || x1 != x2 || c1 != c2 {
		t.Errorf("runs diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, x1, c1, d2, x2, c2)
	}
	if x1 == 0 {
		t.Error("0.5 drop probability over 50 calls dropped nothing")
	}
	if d1 == 0 {
		t.Error("every call dropped; expected some deliveries")
	}
}

func TestInjectorCrashWindowBlocksBothDirections(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Crashes: []faults.Crash{{Node: 2, From: 3, To: 5}}}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fixedRTT(map[[2]NodeID]float64{{1, 2}: 10}))
	replies := 0
	if err := s.AddNode(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, nil, func(*Simulator, NodeID, any) any { return "ok" }); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(injectorFaults(inj))
	for epoch := 0; epoch < 8; epoch++ {
		inj.SetEpoch(epoch)
		if err := s.Call(1, 2, epoch, func(any, float64) { replies++ }); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if replies != 5 { // epochs 0,1,2,6,7 succeed; 3..5 crashed
		t.Errorf("replies = %d, want 5", replies)
	}
	if s.DroppedLegs() != 3 {
		t.Errorf("DroppedLegs = %d, want 3", s.DroppedLegs())
	}
}
