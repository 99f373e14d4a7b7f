package replog

import (
	"errors"
	"fmt"
	"testing"

	"github.com/georep/georep/internal/faults"
)

func TestFailoverElectsMostCaughtUpDeterministically(t *testing.T) {
	g, reg := newTestGroup(t, Config{Members: []int{0, 1, 2, 3}, Leader: 0})
	writeN(t, g, 6)
	// Only follower 2 receives the tail: drop leader→1 and leader→3.
	partial := Link(func(from, to int) faults.Verdict {
		return faults.Verdict{Drop: from == 0 && (to == 1 || to == 3)}
	})
	g.ReplicateRound(partial)
	if g.AppliedSeq(2) != 6 || g.AppliedSeq(1) != 0 {
		t.Fatalf("setup: applied 2=%d 1=%d", g.AppliedSeq(2), g.AppliedSeq(1))
	}
	ackedBefore := g.AckedSeq() // 6: leader + follower 2 hold it
	if ackedBefore != 6 {
		t.Fatalf("acked = %d, want 6", ackedBefore)
	}
	g.Crash(0)
	nl, ok := g.Failover()
	if !ok || nl != 2 {
		t.Fatalf("failover elected %d,%v — want most-caught-up member 2", nl, ok)
	}
	if g.Term() != 2 {
		t.Fatalf("term = %d, want 2", g.Term())
	}
	// The new leader holds every acked write; catch-up completes with
	// zero acked loss and zero duplicate application.
	rounds, conv := g.RunToConvergence(nil, 16)
	if !conv {
		t.Fatalf("no convergence after failover (%d rounds)", rounds)
	}
	for _, n := range []int{1, 2, 3} {
		if g.AppliedSeq(n) != 6 {
			t.Fatalf("member %d applied %d, want 6", n, g.AppliedSeq(n))
		}
	}
	if g.AckedSeq() < ackedBefore {
		t.Fatalf("acked regressed: %d < %d", g.AckedSeq(), ackedBefore)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if v := reg.Counter("replog_failovers_total").Value(); v != 1 {
		t.Fatalf("failovers = %d", v)
	}
	// Tie-break determinism: equal logs elect the lowest node id.
	g2, _ := newTestGroup(t, Config{Members: []int{5, 3, 9}, Leader: 5})
	for i := 0; i < 4; i++ {
		if _, err := g2.Append(1, 1, 10); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	g2.ReplicateRound(nil)
	g2.Crash(5)
	if nl, ok := g2.Failover(); !ok || nl != 3 {
		t.Fatalf("tie-break elected %d,%v — want 3", nl, ok)
	}
}

func TestZombieLeaderIsFencedAndRolledBack(t *testing.T) {
	g, reg := newTestGroup(t, Config{Members: []int{0, 1, 2}, Leader: 0})
	writeN(t, g, 4)
	g.ReplicateRound(nil)
	// Partition isolates the leader; the survivors fail over.
	g.Crash(0)
	if nl, ok := g.Failover(); !ok || nl < 1 {
		t.Fatalf("failover: %d %v", nl, ok)
	}
	g.Restart(0) // partition heals: node 0 is back, still believing term 1
	// The zombie accepts a local append under its stale term...
	ze, err := g.AppendAs(0, 9, 1, 32)
	if err != nil {
		t.Fatalf("zombie append: %v", err)
	}
	if ze.Term != 1 || ze.Seq != 5 {
		t.Fatalf("zombie entry = %+v", ze)
	}
	// ...but replication out of the zombie is fenced by the new term,
	// and the fencing deposes it.
	if err := g.ReplicateFrom(0, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("ReplicateFrom(zombie) = %v, want ErrFenced", err)
	}
	if v := reg.Counter("replog_appends_fenced_total").Value(); v != 1 {
		t.Fatalf("fenced counter = %d", v)
	}
	// New-term writes overwrite the zombie's divergent suffix on rejoin.
	ne, err := g.Append(7, 1, 64)
	if err != nil {
		t.Fatalf("append at new leader: %v", err)
	}
	if ne.Seq != 5 || ne.Term != 2 {
		t.Fatalf("new-term entry = %+v, want seq 5 term 2", ne)
	}
	if _, ok := g.RunToConvergence(nil, 16); !ok {
		t.Fatalf("no convergence after zombie rejoin")
	}
	if v := reg.Counter("replog_rollback_entries_total").Value(); v != 1 {
		t.Fatalf("rollback counter = %d, want 1 (the zombie suffix)", v)
	}
	if term, _ := g.members[0].log.TermAt(5); term != 2 {
		t.Fatalf("seq 5 on ex-zombie has term %d, want 2", term)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestFailoverSequenceAccounting is the acceptance invariant: with a
// fixed fault seed, leader crash → election + catch-up completes with
// zero acked-write loss and zero duplicate application, reproducibly.
func TestFailoverSequenceAccounting(t *testing.T) {
	run := func(seed int64) string {
		plan, err := faults.Parse(seed, "crash 1@4-6; drop 1>2:0.3@1-10")
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		inj, err := faults.NewInjector(plan)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		g, _ := newTestGroup(t, Config{Members: []int{0, 1, 2}, Leader: 1, Retain: 16})
		link := InjectorLink(inj)
		var events []byte
		maxAcked := uint64(0)
		for epoch := 1; epoch <= 12; epoch++ {
			inj.SetEpoch(epoch)
			g.SyncFaults(inj)
			for i := 0; i < 5; i++ {
				if e, err := g.Append(int32(epoch), 1, 64); err == nil {
					g.NoteWrite(int32(epoch), e.Seq)
				}
			}
			g.ReplicateRound(link)
			g.ReplicateRound(link)
			if a := g.AckedSeq(); a < maxAcked {
				t.Fatalf("epoch %d: acked regressed %d → %d", epoch, maxAcked, a)
			} else {
				maxAcked = a
			}
			events = append(events, []byte(fmt.Sprintf("e%d:t%d:l%d:a%d;", epoch, g.Term(), g.Leader(), g.AckedSeq()))...)
		}
		// Heal and converge, then audit the accounting.
		g.SyncFaults(nil)
		if _, ok := g.RunToConvergence(nil, 64); !ok {
			t.Fatalf("no convergence after healing")
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		// Zero acked loss: every member holds the full acked prefix.
		for _, n := range g.Members() {
			if g.AppliedSeq(n) < maxAcked {
				t.Fatalf("member %d applied %d < acked %d", n, g.AppliedSeq(n), maxAcked)
			}
		}
		if g.Failovers() == 0 {
			t.Fatalf("fault plan crashed the leader but no failover ran")
		}
		return string(events)
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	// A different seed must also satisfy the accounting invariants.
	run(7)
}

// ackedOnOneFollower builds the state both election schedules start
// from: three members, leader 0, one write that reached follower 2 but
// not follower 1. Leader and follower 2 make the quorum of two, so the
// write is acked while member 1's log is empty.
func ackedOnOneFollower(t *testing.T) *Group {
	t.Helper()
	g, _ := newTestGroup(t, Config{Members: []int{0, 1, 2}, Leader: 0, Retain: 2})
	writeN(t, g, 1)
	g.ReplicateRound(func(from, to int) faults.Verdict { return faults.Verdict{Drop: to == 1} })
	if g.AckedSeq() != 1 || g.AppliedSeq(1) != 0 || g.AppliedSeq(2) != 1 {
		t.Fatalf("setup: acked %d, applied 1=%d 2=%d", g.AckedSeq(), g.AppliedSeq(1), g.AppliedSeq(2))
	}
	return g
}

// wantAckedKept heals the group, converges it and checks that every
// member applied the acked write.
func wantAckedKept(t *testing.T, g *Group) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after the election: %v", err)
	}
	g.SyncFaults(nil)
	if _, ok := g.RunToConvergence(nil, 16); !ok {
		t.Fatal("no convergence after healing")
	}
	for _, n := range g.Members() {
		if got := g.AppliedSeq(n); got != 1 {
			t.Fatalf("member %d applied %d after healing: the acked write is lost", n, got)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

// TestFailoverRefusesCandidateWithoutAckedEntry: with the only member
// that holds the acked write besides the leader crashed, Failover has no
// candidate it may elect. It refuses rather than elect member 1, whose
// empty log would roll the acked write back on every member.
func TestFailoverRefusesCandidateWithoutAckedEntry(t *testing.T) {
	g := ackedOnOneFollower(t)
	g.Crash(2)
	if nl, ok := g.Failover(); ok {
		t.Fatalf("failover elected %d, which lacks acked seq 1", nl)
	}
	if g.Leader() != 0 || g.Term() != 1 || g.Failovers() != 0 {
		t.Fatalf("a refused election moved leader %d term %d failovers %d", g.Leader(), g.Term(), g.Failovers())
	}
	wantAckedKept(t, g)
}

// TestSyncFaultsElectionKeepsAckedWrite is the same schedule on the
// production path: a plan crashes member 2 and cuts leader 0 off from
// member 1. The isolated leader counts as down, and the election that
// SyncFaults runs must refuse member 1 as Failover does.
func TestSyncFaultsElectionKeepsAckedWrite(t *testing.T) {
	g := ackedOnOneFollower(t)
	plan, err := faults.Parse(1, "crash 2@1; partition 0|1@1")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	inj.SetEpoch(1)
	g.SyncFaults(inj)
	if g.Leader() != 0 || g.Failovers() != 0 {
		t.Fatalf("SyncFaults elected %d, which lacks acked seq 1", g.Leader())
	}
	wantAckedKept(t, g)
}
