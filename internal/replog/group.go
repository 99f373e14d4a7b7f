package replog

import (
	"fmt"
	"sort"
	"sync"

	"github.com/georep/georep/internal/faults"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/trace"
)

// Link rules one replication leg. The zero verdict delivers; Drop loses
// the message (the sender retries next round). A nil Link delivers
// everything.
type Link func(from, to int) faults.Verdict

// InjectorLink adapts a seeded fault injector into a replication Link.
// A nil injector delivers everything.
func InjectorLink(inj *faults.Injector) Link {
	if inj == nil {
		return nil
	}
	return func(from, to int) faults.Verdict { return inj.Verdict(from, to) }
}

// Config configures a replication group.
type Config struct {
	// Members are the replica DC node ids (the placement).
	Members []int
	// Leader is the initial leader; must be a member.
	Leader int
	// AckQuorum is how many members (leader included) must hold a write
	// before it is acked. Default 2; clamped to len(Members). With 2,
	// any single-node fault preserves every acked write.
	AckQuorum int
	// Retain is how many acked tail entries the leader keeps before
	// compacting them behind the snapshot boundary. Followers that fall
	// behind the boundary need a snapshot transfer. Default 64.
	Retain int
	// BatchMax caps entries shipped to one follower per round. Default 32.
	BatchMax int
	// SnapEntryBytes is the accounted transfer size per compacted entry
	// in a snapshot. Default FrameLen.
	SnapEntryBytes int
	// Metrics receives replication counters; nil disables.
	Metrics *metrics.Registry
	// Tracer records failover spans; nil disables.
	Tracer *trace.Tracer
}

// memberState is one member's durable replication state. The log
// survives crashes (a crash is loss of availability, not of storage).
type memberState struct {
	node    int
	log     *Log
	term    uint64 // highest fencing term this member has heard
	crashed bool
	lag     *metrics.Gauge
}

// Group is the replication state machine for one object's replica set.
// All methods are safe for concurrent use; replication progress is
// driven by explicit ReplicateRound calls so tests and experiments stay
// deterministic.
type Group struct {
	mu      sync.Mutex
	cfg     Config
	term    uint64
	leader  int
	members map[int]*memberState
	order   []int // sorted member ids: deterministic iteration
	// match is the leader's replication cursor per follower: the highest
	// sequence the leader knows the follower holds (advanced by acks).
	match    map[int]uint64
	acked    uint64         // highest quorum-acked sequence, monotone
	leaderOf map[uint64]int // term → leader, for zombie fencing checks
	sessions map[int32]*Session
	rounds   uint64
	// ackedTerm is the term of the entry at acked: an election candidate
	// must hold that entry, same sequence and same term.
	ackedTerm uint64
	// recovery tracking: set at failover, cleared when live members catch up.
	recoverTarget uint64
	recoverStart  uint64
	failovers     uint64

	m groupMetrics
}

type groupMetrics struct {
	writes      *metrics.Counter
	writesAcked *metrics.Counter
	writesFail  *metrics.Counter
	fenced      *metrics.Counter
	replicated  *metrics.Counter
	duplicates  *metrics.Counter
	bytes       *metrics.Counter
	catchup     *metrics.Counter
	snapshots   *metrics.Counter
	rollbacks   *metrics.Counter
	resyncs     *metrics.Counter
	failovers   *metrics.Counter
	recovery    *metrics.Histogram
	lagHist     *metrics.Histogram
	reads       *metrics.Counter
	ryw         *metrics.Counter
	monotonic   *metrics.Counter
	degraded    *metrics.Counter
	ackedSeq    *metrics.Gauge
	termGauge   *metrics.Gauge
	leaderGauge *metrics.Gauge
}

// lagBuckets are histogram bounds for replication lag in entries.
func lagBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// NewGroup builds a replication group over the given placement.
func NewGroup(cfg Config) (*Group, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("replog: group needs at least one member")
	}
	if cfg.AckQuorum <= 0 {
		cfg.AckQuorum = 2
	}
	if cfg.AckQuorum > len(cfg.Members) {
		cfg.AckQuorum = len(cfg.Members)
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 32
	}
	if cfg.SnapEntryBytes <= 0 {
		cfg.SnapEntryBytes = FrameLen
	}
	g := &Group{
		cfg:      cfg,
		term:     1,
		leader:   cfg.Leader,
		members:  make(map[int]*memberState, len(cfg.Members)),
		match:    make(map[int]uint64, len(cfg.Members)),
		leaderOf: make(map[uint64]int),
		sessions: make(map[int32]*Session),
	}
	for _, n := range cfg.Members {
		if _, dup := g.members[n]; dup {
			return nil, fmt.Errorf("replog: duplicate member %d", n)
		}
		g.members[n] = &memberState{
			node: n,
			log:  NewLog(),
			term: 1,
			lag:  cfg.Metrics.Gauge(fmt.Sprintf("replog_lag_entries_node_%d", n)),
		}
		g.order = append(g.order, n)
	}
	sort.Ints(g.order)
	if _, ok := g.members[cfg.Leader]; !ok {
		return nil, fmt.Errorf("replog: leader %d is not a member", cfg.Leader)
	}
	g.leaderOf[1] = cfg.Leader
	r := cfg.Metrics
	g.m = groupMetrics{
		writes:      r.Counter("replog_writes_total"),
		writesAcked: r.Counter("replog_writes_acked_total"),
		writesFail:  r.Counter("replog_writes_failed_total"),
		fenced:      r.Counter("replog_appends_fenced_total"),
		replicated:  r.Counter("replog_entries_replicated_total"),
		duplicates:  r.Counter("replog_entries_duplicate_total"),
		bytes:       r.Counter("replog_bytes_replicated_total"),
		catchup:     r.Counter("replog_catchup_bytes_total"),
		snapshots:   r.Counter("replog_snapshots_total"),
		rollbacks:   r.Counter("replog_rollback_entries_total"),
		resyncs:     r.Counter("replog_resyncs_total"),
		failovers:   r.Counter("replog_failovers_total"),
		recovery:    r.Histogram("replog_failover_recovery_rounds", lagBuckets()),
		lagHist:     r.Histogram("replog_replication_lag_entries", lagBuckets()),
		reads:       r.Counter("replog_reads_total"),
		ryw:         r.Counter("replog_ryw_violations_total"),
		monotonic:   r.Counter("replog_monotonic_violations_total"),
		degraded:    r.Counter("replog_stale_reads_degraded_total"),
		ackedSeq:    r.Gauge("replog_acked_seq"),
		termGauge:   r.Gauge("replog_term"),
		leaderGauge: r.Gauge("replog_leader"),
	}
	g.m.termGauge.Set(1)
	g.m.leaderGauge.Set(float64(cfg.Leader))
	return g, nil
}

// Members returns the member node ids in ascending order.
func (g *Group) Members() []int {
	out := make([]int, len(g.order))
	copy(out, g.order)
	return out
}

// Leader returns the current-term leader.
func (g *Group) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// Term returns the current fencing term.
func (g *Group) Term() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.term
}

// LastSeq returns the leader log's highest sequence.
func (g *Group) LastSeq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[g.leader].log.Last()
}

// AckedSeq returns the highest quorum-acked sequence.
func (g *Group) AckedSeq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.acked
}

// AppliedSeq returns the highest sequence node has applied.
func (g *Group) AppliedSeq(node int) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.members[node]; m != nil {
		return m.log.Last()
	}
	return 0
}

// LagEntries returns how many entries node trails the leader by.
func (g *Group) LagEntries(node int) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lagLocked(node)
}

func (g *Group) lagLocked(node int) uint64 {
	m := g.members[node]
	if m == nil {
		return 0
	}
	last := g.members[g.leader].log.Last()
	if got := m.log.Last(); got < last {
		return last - got
	}
	return 0
}

// Failovers returns how many leader elections the group has run.
func (g *Group) Failovers() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failovers
}

// Crash marks node unavailable. Its log is durable: nothing is lost,
// the node just stops serving and replicating until Restart.
func (g *Group) Crash(node int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.members[node]; m != nil {
		m.crashed = true
	}
}

// Restart brings a crashed node back; it rejoins with its durable log
// and catches up from its last applied sequence on following rounds.
func (g *Group) Restart(node int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.members[node]; m != nil {
		m.crashed = false
	}
}

// Crashed reports whether node is marked unavailable.
func (g *Group) Crashed(node int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[node]
	return m != nil && m.crashed
}

// WriteAvailable reports whether the current leader can take writes.
func (g *Group) WriteAvailable() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.members[g.leader].crashed
}

// Append routes one write to the current leader. It fails with
// ErrUnavailable while the leader is crashed (callers should drive
// failover — see SyncFaults / Failover — and retry).
func (g *Group) Append(client, object int32, bytes float64) (Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.appendAsLocked(g.leader, client, object, bytes)
}

// AppendAs issues a write at a specific member, as a client that still
// believes node is the leader would. A deposed zombie leader (an older
// term's leader that has not yet heard the new term) accepts the append
// into its local log — producing a divergent, never-acked suffix that
// re-join rolls back. Members that were never leaders reject with
// ErrNotLeader.
func (g *Group) AppendAs(node int, client, object int32, bytes float64) (Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.appendAsLocked(node, client, object, bytes)
}

func (g *Group) appendAsLocked(node int, client, object int32, bytes float64) (Entry, error) {
	m := g.members[node]
	if m == nil {
		return Entry{}, fmt.Errorf("replog: no such member %d", node)
	}
	if m.crashed {
		g.m.writesFail.Inc()
		return Entry{}, ErrUnavailable
	}
	if !(node == g.leader && m.term == g.term) {
		// Not the current-term leader. A zombie — the leader of the
		// stale term it still believes in — appends locally; anyone
		// else is simply not a leader.
		if g.leaderOf[m.term] != node {
			g.m.writesFail.Inc()
			return Entry{}, ErrNotLeader
		}
	}
	e := Entry{Seq: m.log.Last() + 1, Term: m.term, Client: client, Object: object, Bytes: bytes}
	if err := m.log.Append(e); err != nil {
		return Entry{}, err
	}
	g.m.writes.Inc()
	return e, nil
}

// SyncFaults folds a seeded fault plan into the group: members go down
// and come back per the injector's crash schedule, and a crashed or
// majority-isolated leader triggers deterministic failover. Call once
// per epoch (after Injector.SetEpoch) or per round. A nil injector
// restores every member.
func (g *Group) SyncFaults(inj *faults.Injector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range g.order {
		m := g.members[n]
		if inj == nil {
			m.crashed = false
			continue
		}
		m.crashed = inj.NodeDown(n)
	}
	if inj == nil {
		return
	}
	lead := g.members[g.leader]
	down := lead.crashed
	if !down && len(g.order) > 1 {
		// A live leader partitioned from a majority of its peers cannot
		// replicate or ack: treat it as deposed (it becomes a zombie).
		reach, peers := 0, 0
		for _, n := range g.order {
			if n == g.leader || g.members[n].crashed {
				continue
			}
			peers++
			if !inj.Partitioned(g.leader, n) {
				reach++
			}
		}
		down = peers > 0 && reach*2 < peers
	}
	if down {
		g.failoverLocked()
	}
}

// Failover forces a leader election among live members, excluding the
// current leader. Returns the new leader and true, or false when no
// live candidate exists (writes stay unavailable).
func (g *Group) Failover() (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failoverLocked()
}

// failoverLocked elects the most-caught-up live member: highest last
// term, then highest last sequence, then lowest node id — so a zombie's
// stale-term suffix never wins and the election is deterministic. A
// member without the acked entry is no candidate: electing it would roll
// acked writes back on every member. With no candidate left the election
// fails and the old leader stays.
func (g *Group) failoverLocked() (int, bool) {
	best, ok := -1, false
	var bestTerm, bestSeq uint64
	for _, n := range g.order {
		m := g.members[n]
		if n == g.leader || m.crashed || !g.holdsAckedLocked(m) {
			continue
		}
		t, s := m.log.LastTerm(), m.log.Last()
		if !ok || t > bestTerm || (t == bestTerm && (s > bestSeq || (s == bestSeq && n < best))) {
			best, bestTerm, bestSeq, ok = n, t, s, true
		}
	}
	if !ok {
		return -1, false
	}
	g.term++
	g.leader = best
	g.leaderOf[g.term] = best
	nm := g.members[best]
	nm.term = g.term
	// The new leader's replication cursors are unknown; rounds resync
	// them from follower state.
	for _, n := range g.order {
		g.match[n] = 0
	}
	g.failovers++
	g.m.failovers.Inc()
	g.m.termGauge.Set(float64(g.term))
	g.m.leaderGauge.Set(float64(best))
	g.recoverTarget = nm.log.Last()
	g.recoverStart = g.rounds
	if tr := g.cfg.Tracer; tr.Enabled() {
		sp := tr.StartRoot("replog.failover", trace.KindFailover)
		sp.SetAttr("term", fmt.Sprintf("%d", g.term))
		sp.SetAttr("leader", fmt.Sprintf("%d", best))
		sp.MarkAnomalous("leader failover")
		sp.End()
	}
	return best, true
}

// holdsAckedLocked reports whether m's log holds the acked entry. An
// entry below m's snapshot boundary counts as held: only acked entries
// are ever compacted.
func (g *Group) holdsAckedLocked(m *memberState) bool {
	if g.acked == 0 || g.acked < m.log.SnapSeq() {
		return true
	}
	t, ok := m.log.TermAt(g.acked)
	return ok && t == g.ackedTerm
}

// RoundStats summarizes one replication round.
type RoundStats struct {
	// Delivered is how many new entries followers applied.
	Delivered int
	// Duplicates is how many re-shipped entries followers skipped.
	Duplicates int
	// Snapshots is how many snapshot transfers ran.
	Snapshots int
	// Bytes is the wire bytes shipped (frames plus snapshots).
	Bytes int
	// Misses is how many follower legs the fault plan dropped.
	Misses int
}

// ReplicateRound streams the leader's log one round toward every live
// follower: at most BatchMax entries each (or a snapshot transfer when
// the follower is behind the leader's truncation point), with both the
// request and the ack leg subject to the link's verdict. A dropped ack
// leaves the leader's cursor stale, so the next round re-ships entries
// the follower dup-skips — exactly-once application is the follower's
// contiguity check, not the network's kindness.
func (g *Group) ReplicateRound(link Link) RoundStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rounds++
	var st RoundStats
	lead := g.members[g.leader]
	if lead.crashed || lead.term != g.term {
		return st
	}
	llog := lead.log
	for _, n := range g.order {
		if n == g.leader {
			continue
		}
		f := g.members[n]
		if f.crashed {
			g.observeLag(f, llog)
			continue
		}
		if link != nil {
			if v := link(g.leader, n); v.Drop {
				st.Misses++
				g.observeLag(f, llog)
				continue
			}
		}
		// Request leg delivered: the follower adopts the leader's term
		// and rolls back any divergent suffix (a deposed zombie's
		// never-acked appends).
		if f.term < g.term {
			f.term = g.term
		}
		g.rollbackLocked(f, llog)
		cursor := g.match[n]
		if cursor > f.log.Last() {
			// The cursor outran the follower (rollback, or a fresh
			// leader's zeroed cursor resyncing upward): repair it from
			// the follower's reply and ship on the next round.
			g.match[n] = f.log.Last()
			g.m.resyncs.Inc()
			g.observeLag(f, llog)
			continue
		}
		if f.log.Last() < llog.SnapSeq() {
			// Fallen behind the truncation point: snapshot transfer.
			gap := llog.SnapSeq() - f.log.Last()
			bytes := int(gap) * g.cfg.SnapEntryBytes
			f.log.InstallSnapshot(llog.SnapSeq(), llog.snapTerm)
			st.Snapshots++
			st.Bytes += bytes
			g.m.snapshots.Inc()
			g.m.catchup.Add(int64(bytes))
			g.m.bytes.Add(int64(bytes))
		} else {
			from := cursor + 1
			if from <= llog.SnapSeq() {
				// Compacted entries below a stale cursor but the
				// follower already holds them: resync the cursor.
				from = f.log.Last() + 1
				g.m.resyncs.Inc()
			}
			batch, ok := llog.EntriesFrom(from, g.cfg.BatchMax)
			if ok && len(batch) > 0 {
				// Ship real CRC-framed bytes so transfer accounting and
				// the codec are exercised end to end.
				wire := EncodeBatch(batch)
				st.Bytes += len(wire)
				g.m.bytes.Add(int64(len(wire)))
				decoded, err := DecodeBatch(wire)
				if err != nil {
					// A framing bug, not a runtime condition.
					panic(err)
				}
				for _, e := range decoded {
					if e.Seq <= f.log.Last() {
						st.Duplicates++
						g.m.duplicates.Inc()
						continue
					}
					if err := f.log.Append(e); err != nil {
						panic(err)
					}
					st.Delivered++
					g.m.replicated.Inc()
				}
			}
		}
		// Ack leg: on success the leader advances its cursor.
		if link != nil {
			if v := link(n, g.leader); v.Drop {
				st.Misses++
				g.observeLag(f, llog)
				continue
			}
		}
		g.match[n] = f.log.Last()
		g.observeLag(f, llog)
	}
	g.advanceAckedLocked()
	g.compactLocked()
	g.checkRecoveredLocked()
	return st
}

// ReplicateFrom attempts a replication round originating at node rather
// than the current leader. A deposed zombie leader calling this is
// fenced: every follower that has heard a newer term rejects the stale
// appends, and the zombie steps down (adopts the newer term). Its
// divergent suffix is rolled back when the real leader next reaches it.
func (g *Group) ReplicateFrom(node int, link Link) error {
	g.mu.Lock()
	m := g.members[node]
	if m == nil {
		g.mu.Unlock()
		return fmt.Errorf("replog: no such member %d", node)
	}
	if node == g.leader && m.term == g.term {
		g.mu.Unlock()
		g.ReplicateRound(link)
		return nil
	}
	defer g.mu.Unlock()
	// Stale term: fenced by the first live peer with a newer term.
	for _, n := range g.order {
		if n == node || g.members[n].crashed {
			continue
		}
		if link != nil {
			if v := link(node, n); v.Drop {
				continue
			}
		}
		if g.members[n].term > m.term {
			g.m.fenced.Inc()
			// Seeing the higher term deposes the zombie for good.
			m.term = g.members[n].term
			return ErrFenced
		}
	}
	return ErrFenced
}

// RunToConvergence drives replication rounds until every live member
// has the leader's full log (or maxRounds elapses). Returns the rounds
// used and whether convergence was reached.
func (g *Group) RunToConvergence(link Link, maxRounds int) (int, bool) {
	for i := 0; i < maxRounds; i++ {
		g.ReplicateRound(link)
		if g.Converged() {
			return i + 1, true
		}
	}
	return maxRounds, g.Converged()
}

// Converged reports whether every live member has applied the leader's
// full log.
func (g *Group) Converged() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	last := g.members[g.leader].log.Last()
	for _, n := range g.order {
		m := g.members[n]
		if m.crashed {
			continue
		}
		if m.log.Last() != last || m.term != g.term {
			return false
		}
	}
	return true
}

// rollbackLocked truncates f's divergent suffix: entries that conflict
// with the authoritative log by term, or that extend past a shorter
// authoritative log with a stale term. Rolled-back entries were never
// acked (acked entries are quorum-replicated under the authoritative
// term); the rollback counter is the "lost un-acked writes" ledger.
func (g *Group) rollbackLocked(f *memberState, llog *Log) {
	fl := f.log
	if fl.Last() <= fl.SnapSeq() {
		return
	}
	// Find the highest sequence where the two logs agree.
	s := fl.Last()
	if l := llog.Last(); s > l {
		s = l
	}
	for s > fl.SnapSeq() {
		ft, fok := fl.TermAt(s)
		lt, lok := llog.TermAt(s)
		if fok && lok && ft == lt {
			break
		}
		if !lok && s <= llog.SnapSeq() {
			// Compacted on the leader: below the snapshot boundary
			// everything is, by construction, acked and agreed.
			break
		}
		s--
	}
	if dropped := fl.TruncateFrom(s + 1); dropped > 0 {
		g.m.rollbacks.Add(int64(dropped))
	}
}

// advanceAckedLocked recomputes the quorum-acked floor from the
// leader's cursors. Acked only moves forward.
func (g *Group) advanceAckedLocked() {
	heights := make([]uint64, 0, len(g.order))
	for _, n := range g.order {
		if n == g.leader {
			heights = append(heights, g.members[n].log.Last())
			continue
		}
		heights = append(heights, g.match[n])
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] > heights[j] })
	if len(heights) < g.cfg.AckQuorum {
		return
	}
	if got := heights[g.cfg.AckQuorum-1]; got > g.acked {
		g.m.writesAcked.Add(int64(got - g.acked))
		g.acked = got
		g.ackedTerm, _ = g.members[g.leader].log.TermAt(got)
		g.m.ackedSeq.Set(float64(got))
	}
}

// compactLocked advances the leader's snapshot boundary, keeping Retain
// acked tail entries. Never compacts past the acked floor: un-acked
// entries must stay inspectable for rollback.
func (g *Group) compactLocked() {
	llog := g.members[g.leader].log
	last := llog.Last()
	if last <= uint64(g.cfg.Retain) {
		return
	}
	target := last - uint64(g.cfg.Retain)
	if target > g.acked {
		target = g.acked
	}
	if target > llog.SnapSeq() {
		if err := llog.CompactTo(target); err != nil {
			panic(err)
		}
	}
}

func (g *Group) checkRecoveredLocked() {
	if g.recoverTarget == 0 {
		return
	}
	for _, n := range g.order {
		m := g.members[n]
		if m.crashed {
			continue
		}
		if m.log.Last() < g.recoverTarget || m.term != g.term {
			return
		}
	}
	g.m.recovery.Observe(float64(g.rounds - g.recoverStart))
	g.recoverTarget, g.recoverStart = 0, 0
}

func (g *Group) observeLag(f *memberState, llog *Log) {
	lag := uint64(0)
	if l, got := llog.Last(), f.log.Last(); got < l {
		lag = l - got
	}
	g.m.lagHist.Observe(float64(lag))
	f.lag.Set(float64(lag))
}

// CheckInvariants verifies the sequence-accounting contract: every live
// member's log is a contiguous, term-consistent prefix of the
// authoritative log, and the quorum-acked prefix is present on at least
// AckQuorum members. Returns the first violation found.
func (g *Group) CheckInvariants() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	llog := g.members[g.leader].log
	if g.acked > llog.Last() {
		return fmt.Errorf("replog: acked %d beyond leader log %d", g.acked, llog.Last())
	}
	holders := 0
	for _, n := range g.order {
		m := g.members[n]
		// Contiguity and exactly-once: sequences strictly increase by 1.
		want := m.log.SnapSeq() + 1
		for _, e := range m.log.entries {
			if e.Seq != want {
				return fmt.Errorf("replog: member %d log gap/dup at seq %d (want %d)", n, e.Seq, want)
			}
			want++
		}
		if m.term > g.term {
			return fmt.Errorf("replog: member %d term %d beyond group term %d", n, m.term, g.term)
		}
		if m.log.Last() >= g.acked {
			holders++
		}
		if m.crashed || n == g.leader {
			continue
		}
		// Term consistency with the authoritative log over the overlap
		// — only meaningful once the member has adopted the current
		// term (a zombie's divergent suffix is legal until rollback).
		if m.term == g.term {
			lo := m.log.SnapSeq() + 1
			if l := llog.SnapSeq() + 1; l > lo {
				lo = l
			}
			hi := m.log.Last()
			if l := llog.Last(); l < hi {
				return fmt.Errorf("replog: synced member %d log %d ahead of leader %d", n, hi, l)
			}
			for s := lo; s <= hi; s++ {
				mt, _ := m.log.TermAt(s)
				lt, _ := llog.TermAt(s)
				if mt != lt {
					return fmt.Errorf("replog: member %d diverges from leader at seq %d (term %d vs %d)", n, s, mt, lt)
				}
			}
		}
	}
	if holders < g.cfg.AckQuorum {
		return fmt.Errorf("replog: acked prefix %d held by %d members (quorum %d)", g.acked, holders, g.cfg.AckQuorum)
	}
	return nil
}
