// Package simnet is a deterministic discrete-event network simulator. It
// reproduces the paper's evaluation methodology: node-to-node
// communication is emulated on top of a measured (or synthetic) RTT
// matrix, with a virtual clock in milliseconds. Events with equal
// timestamps fire in scheduling order, so a run is a pure function of its
// inputs.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
)

// NodeID identifies a simulated node; it indexes the latency matrix.
type NodeID int

// Message is a one-way payload delivery between nodes.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
}

// MessageHandler reacts to a delivered message. It runs at the message's
// arrival time and may schedule further traffic via the simulator.
type MessageHandler func(s *Simulator, m Message)

// RequestHandler serves an RPC: it receives a request payload and returns
// the response payload, which the simulator delivers back to the caller
// half an RTT later.
type RequestHandler func(s *Simulator, from NodeID, req any) (resp any)

// node is the per-node registration record.
type node struct {
	onMessage MessageHandler
	onRequest RequestHandler
}

// event is one scheduled occurrence.
type event struct {
	at  float64 // virtual ms
	seq uint64  // tie-break: FIFO among equal timestamps
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// LatencyFunc returns the RTT in milliseconds between two nodes. It may
// be non-deterministic (e.g. a noisy sampler); the simulator itself adds
// no randomness.
type LatencyFunc func(from, to NodeID) float64

// FaultFunc rules on one one-way leg at send time: drop loses the
// message entirely (the destination handler never runs; for a Call the
// completion callback never fires — timeouts are the caller's concern),
// extraMs delays delivery on top of the propagation latency. It is
// typically backed by a seeded faults.Injector so the same scenario
// replays identically, but any function works.
type FaultFunc func(from, to NodeID) (drop bool, extraMs float64)

// Simulator owns the virtual clock and event queue. It is single-
// threaded by design: handlers run inline during Run.
type Simulator struct {
	rtt     LatencyFunc
	faults  FaultFunc
	nodes   map[NodeID]*node
	queue   eventHeap
	clock   float64
	seq     uint64
	dropped uint64
	running bool
}

// New creates a simulator over the given RTT oracle.
func New(rtt LatencyFunc) *Simulator {
	return &Simulator{rtt: rtt, nodes: make(map[NodeID]*node)}
}

// AddNode registers a node. Either handler may be nil if the node never
// receives that kind of traffic.
func (s *Simulator) AddNode(id NodeID, onMessage MessageHandler, onRequest RequestHandler) error {
	if _, dup := s.nodes[id]; dup {
		return fmt.Errorf("simnet: node %d already registered", id)
	}
	s.nodes[id] = &node{onMessage: onMessage, onRequest: onRequest}
	return nil
}

// SetFaults installs (or, with nil, removes) the fault hook consulted
// for every one-way leg. Faults apply from the next send; messages
// already in flight are unaffected.
func (s *Simulator) SetFaults(f FaultFunc) { s.faults = f }

// Now returns the current virtual time in milliseconds.
func (s *Simulator) Now() float64 { return s.clock }

// DroppedLegs returns the number of one-way legs lost to injected
// faults so far.
func (s *Simulator) DroppedLegs() uint64 { return s.dropped }

// After schedules fn to run delay milliseconds from now.
func (s *Simulator) After(delay float64, fn func()) error {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("simnet: invalid delay %v", delay)
	}
	s.push(s.clock+delay, fn)
	return nil
}

func (s *Simulator) push(at float64, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// SendBatch delivers one aggregated frame carrying count logical
// messages from one node to another, after half the pair's RTT. This is
// how high-rate access streams traverse the simulator without one event
// per access: the sender coalesces an epoch's worth of traffic per
// destination into a single frame, so the event queue scales with the
// number of (source, destination) pairs, not the access rate. Fault
// injection rules once on the whole frame — a dropped frame loses every
// message in it, like a lost jumbo datagram. A destination without a
// MessageHandler drops the frame silently, modelling an unreachable host.
func (s *Simulator) SendBatch(from, to NodeID, count int, payload any) error {
	if count <= 0 {
		return fmt.Errorf("simnet: batch of %d messages", count)
	}
	oneWay, err := s.oneWay(from, to)
	if err != nil {
		return err
	}
	if s.faults != nil {
		drop, extra := s.faults(from, to)
		if drop {
			s.dropped++
			return nil
		}
		oneWay += extra
	}
	s.push(s.clock+oneWay, func() {
		if n, ok := s.nodes[to]; ok && n.onMessage != nil {
			n.onMessage(s, Message{From: from, To: to, Payload: payload})
		}
	})
	return nil
}

// Reply is the completion callback of Call: resp is the responder's
// payload and rttMs the full measured round-trip time.
type Reply func(resp any, rttMs float64)

// Call performs a simulated RPC from one node to another: the request
// arrives after half an RTT, the destination's RequestHandler produces a
// response, and done runs at the caller after the second half. If the
// destination has no request handler, done never runs (a timeout is the
// caller's concern; the paper's algorithms only contact live replicas).
// Injected faults rule on each leg independently, at the virtual time
// that leg starts: a dropped request or a dropped response both leave
// the caller waiting forever, exactly like a lost packet.
func (s *Simulator) Call(from, to NodeID, req any, done Reply) error {
	oneWay, err := s.oneWay(from, to)
	if err != nil {
		return err
	}
	base := oneWay
	sendTime := s.clock
	if s.faults != nil {
		drop, extra := s.faults(from, to)
		if drop {
			s.dropped++
			return nil
		}
		oneWay += extra
	}
	s.push(s.clock+oneWay, func() {
		n, ok := s.nodes[to]
		if !ok || n.onRequest == nil {
			return
		}
		resp := n.onRequest(s, from, req)
		back := base
		if s.faults != nil {
			drop, extra := s.faults(to, from)
			if drop {
				s.dropped++
				return
			}
			back += extra
		}
		s.push(s.clock+back, func() {
			if done != nil {
				done(resp, s.clock-sendTime)
			}
		})
	})
	return nil
}

func (s *Simulator) oneWay(from, to NodeID) (float64, error) {
	if _, ok := s.nodes[from]; !ok {
		return 0, fmt.Errorf("simnet: unknown sender %d", from)
	}
	if _, ok := s.nodes[to]; !ok {
		return 0, fmt.Errorf("simnet: unknown destination %d", to)
	}
	if from == to {
		return 0, nil
	}
	rtt := s.rtt(from, to)
	if rtt < 0 || math.IsNaN(rtt) || math.IsInf(rtt, 0) {
		return 0, fmt.Errorf("simnet: latency oracle returned %v for (%d,%d)", rtt, from, to)
	}
	return rtt / 2, nil
}

// Run processes events until the queue drains or maxEvents fire,
// returning the number of events processed. maxEvents <= 0 means
// unlimited (the queue must drain on its own).
func (s *Simulator) Run(maxEvents int) (int, error) {
	if s.running {
		return 0, fmt.Errorf("simnet: Run re-entered from a handler")
	}
	s.running = true
	defer func() { s.running = false }()

	processed := 0
	for len(s.queue) > 0 {
		if maxEvents > 0 && processed >= maxEvents {
			return processed, fmt.Errorf("simnet: event budget %d exhausted at t=%.1fms", maxEvents, s.clock)
		}
		e := heap.Pop(&s.queue).(*event)
		if e.at < s.clock {
			return processed, fmt.Errorf("simnet: time went backwards: %v < %v", e.at, s.clock)
		}
		s.clock = e.at
		e.fn()
		processed++
	}
	return processed, nil
}
