package replog

// Session is one client's causal context: the highest sequence it has
// written and the highest applied sequence it has observed on a read.
// Async replication makes two anomalies possible without it — a client
// failing to read its own write, and a client seeing time flow backwards
// across two reads (DDIA's read-your-writes and monotonic-reads).
type Session struct {
	// LastWriteSeq is the highest sequence this client wrote.
	LastWriteSeq uint64
	// LastReadSeq is the highest applied sequence this client observed.
	LastReadSeq uint64
}

// ReadMode selects the staleness contract of a read.
type ReadMode int

// Available read modes.
const (
	// ReadNearest serves from the first live replica in proximity order
	// with no staleness guarantee. Violations are counted, not avoided.
	ReadNearest ReadMode = iota
	// ReadLeader pins the read to the leader: always fresh, never near.
	ReadLeader
	// ReadSession serves from the nearest live replica that satisfies
	// the session (read-your-writes + monotonic reads), falling back to
	// the leader. When faults make the contract unsatisfiable the read
	// degrades to the nearest live replica and the violation is counted.
	ReadSession
	// ReadBounded serves from the nearest live replica within the given
	// staleness bound (entries behind the leader), leader fallback.
	ReadBounded
)

// ReadResult describes where a read was served and what it observed.
type ReadResult struct {
	// Node is the serving replica (-1 when no live replica exists).
	Node int
	// AppliedSeq is the replica's applied sequence at serve time.
	AppliedSeq uint64
	// LagEntries is how far the replica trailed the leader.
	LagEntries uint64
	// RYWViolation is set when the read missed the session's own write.
	RYWViolation bool
	// MonotonicViolation is set when the read went backwards in time
	// relative to the session's previous read.
	MonotonicViolation bool
	// Degraded is set when the requested staleness contract was
	// unsatisfiable (faults) and the read fell back to a stale replica.
	Degraded bool
}

// NoteWrite records a client's acked-or-pending write in its session,
// so subsequent session reads honor read-your-writes.
func (g *Group) NoteWrite(client int32, seq uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.sessionLocked(client)
	if seq > s.LastWriteSeq {
		s.LastWriteSeq = seq
	}
}

// SessionOf returns a copy of the client's session state.
func (g *Group) SessionOf(client int32) Session {
	g.mu.Lock()
	defer g.mu.Unlock()
	return *g.sessionLocked(client)
}

func (g *Group) sessionLocked(client int32) *Session {
	s := g.sessions[client]
	if s == nil {
		s = &Session{}
		g.sessions[client] = s
	}
	return s
}

// Read routes one read for client under the given mode. order is the
// client's proximity-ordered preference over group members (unknown
// nodes are skipped); bound is the staleness bound in entries for
// ReadBounded. Violation and degradation counters feed the metrics
// registry; per-session state advances so later reads see this one.
func (g *Group) Read(client int32, mode ReadMode, order []int, bound uint64) ReadResult {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.m.reads.Inc()
	sess := g.sessionLocked(client)
	llog := g.members[g.leader].log
	lead := llog.Last()

	pick := -1
	degraded := false
	switch mode {
	case ReadLeader:
		if !g.members[g.leader].crashed {
			pick = g.leader
		}
	case ReadSession:
		need := sess.LastWriteSeq
		if sess.LastReadSeq > need {
			need = sess.LastReadSeq
		}
		pick = g.firstLiveLocked(order, func(m *memberState) bool {
			return m.log.Last() >= need
		})
		if pick < 0 {
			// Contract unsatisfiable (leader down or partitioned away):
			// degrade to any live replica rather than failing the read.
			pick = g.firstLiveLocked(order, nil)
			degraded = pick >= 0
		}
	case ReadBounded:
		pick = g.firstLiveLocked(order, func(m *memberState) bool {
			return lead-min64(m.log.Last(), lead) <= bound
		})
		if pick < 0 {
			pick = g.firstLiveLocked(order, nil)
			degraded = pick >= 0
		}
	default: // ReadNearest
		pick = g.firstLiveLocked(order, nil)
	}
	if pick < 0 {
		return ReadResult{Node: -1}
	}
	applied := g.members[pick].log.Last()
	res := ReadResult{
		Node:       pick,
		AppliedSeq: applied,
		LagEntries: lead - min64(applied, lead),
		Degraded:   degraded,
	}
	if applied < sess.LastWriteSeq {
		res.RYWViolation = true
		g.m.ryw.Inc()
	}
	if applied < sess.LastReadSeq {
		res.MonotonicViolation = true
		g.m.monotonic.Inc()
	}
	if degraded {
		g.m.degraded.Inc()
	}
	if applied > sess.LastReadSeq {
		sess.LastReadSeq = applied
	}
	return res
}

// firstLiveLocked returns the first live member in order passing the
// filter (nil filter accepts any live member), falling back to scanning
// all members in id order when order misses everyone.
func (g *Group) firstLiveLocked(order []int, okFn func(*memberState) bool) int {
	for _, n := range order {
		m := g.members[n]
		if m == nil || m.crashed {
			continue
		}
		if okFn == nil || okFn(m) {
			return n
		}
	}
	if order != nil {
		return -1
	}
	for _, n := range g.order {
		m := g.members[n]
		if m.crashed {
			continue
		}
		if okFn == nil || okFn(m) {
			return n
		}
	}
	return -1
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
