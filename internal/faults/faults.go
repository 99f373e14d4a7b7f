// Package faults is a deterministic, seedable fault-injection plan for
// the replica-placement system. One Plan describes node crashes,
// network partitions, and per-link degradation (drop probability,
// latency spikes) over a schedule of epochs; an Injector evaluates the
// plan at the current epoch and answers, for any directed link, whether
// a message is delivered, dropped, or delayed.
//
// The same plan drives both runtimes: the discrete-event simulator
// (internal/simnet) consults the injector for every simulated leg, and
// the real TCP transport (internal/transport) consults it through a
// server-side hook. Decisions are pure functions of (seed, epoch, link,
// per-link attempt counter), so a scenario replays identically given
// the same traffic order — there is no global RNG to race on.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Wild is the wildcard node index in a LinkFault: it matches any node.
const Wild = -1

// External is a pseudo-node for an observer outside every partition
// group (e.g. a coordinator process). Partitioned(External, n) is true
// exactly when n sits inside a rest-of-world partition's named group —
// the nodes such a coordinator cannot reach.
const External = -2

// Crash takes one node fully offline for an inclusive epoch range: it
// answers nothing and its links drop everything in both directions.
type Crash struct {
	Node     int
	From, To int // inclusive epoch range
}

// Partition separates two node groups for an inclusive epoch range:
// traffic between a node in A and a node in B is dropped in both
// directions. An empty B means "everyone not in A" — the classic
// minority-cut scenario.
type Partition struct {
	A, B     []int
	From, To int // inclusive epoch range
}

// LinkFault degrades one directed link (Src -> Dst, either may be Wild)
// for an inclusive epoch range: each traversal is dropped with
// probability DropProb and otherwise delayed by ExtraMs.
type LinkFault struct {
	Src, Dst int // node indices, Wild matches any
	From, To int // inclusive epoch range
	DropProb float64
	ExtraMs  float64
}

// Plan is a complete seeded fault scenario. The zero value (and nil)
// injects nothing.
type Plan struct {
	Seed       int64
	Crashes    []Crash
	Partitions []Partition
	Links      []LinkFault
}

// Validate checks ranges and probabilities.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, c := range p.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("faults: crash of negative node %d", c.Node)
		}
		if c.To < c.From || c.From < 0 {
			return fmt.Errorf("faults: crash epochs %d-%d invalid", c.From, c.To)
		}
	}
	for _, pt := range p.Partitions {
		if len(pt.A) == 0 {
			return fmt.Errorf("faults: partition with empty first group")
		}
		if pt.To < pt.From || pt.From < 0 {
			return fmt.Errorf("faults: partition epochs %d-%d invalid", pt.From, pt.To)
		}
	}
	for _, l := range p.Links {
		if l.Src < Wild || l.Dst < Wild {
			return fmt.Errorf("faults: link nodes %d>%d invalid", l.Src, l.Dst)
		}
		if l.To < l.From || l.From < 0 {
			return fmt.Errorf("faults: link epochs %d-%d invalid", l.From, l.To)
		}
		if l.DropProb < 0 || l.DropProb > 1 {
			return fmt.Errorf("faults: drop probability %v out of [0,1]", l.DropProb)
		}
		if l.ExtraMs < 0 {
			return fmt.Errorf("faults: negative latency spike %vms", l.ExtraMs)
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Partitions) == 0 && len(p.Links) == 0)
}

// Verdict is the injector's ruling on one message traversal.
type Verdict struct {
	// Drop means the message is lost (or, on a real transport, the
	// server goes silent — the client sees a stall, not an error).
	Drop bool
	// ExtraMs delays delivery when not dropped.
	ExtraMs float64
}

// Injector evaluates a Plan at a moving epoch. It is safe for
// concurrent use; a nil Injector delivers everything untouched.
type Injector struct {
	plan Plan

	mu      sync.Mutex
	epoch   int
	attempt map[[2]int]uint64 // per-link coin-flip counter
}

// NewInjector builds an injector over a validated plan; a nil plan
// yields a nil injector, which is fully usable and injects nothing.
func NewInjector(p *Plan) (*Injector, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: *p, attempt: make(map[[2]int]uint64)}, nil
}

// SetEpoch moves the injector to an absolute epoch.
func (in *Injector) SetEpoch(e int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.epoch = e
	in.mu.Unlock()
}

// AdvanceEpoch increments the epoch and returns the new value.
func (in *Injector) AdvanceEpoch() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.epoch++
	return in.epoch
}

// NodeDown reports whether a node is crashed at the current epoch.
func (in *Injector) NodeDown(node int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nodeDownLocked(node)
}

func (in *Injector) nodeDownLocked(node int) bool {
	for _, c := range in.plan.Crashes {
		if c.Node == node && c.From <= in.epoch && in.epoch <= c.To {
			return true
		}
	}
	return false
}

// Partitioned reports whether the current epoch separates two nodes.
func (in *Injector) Partitioned(a, b int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partitionedLocked(a, b)
}

func (in *Injector) partitionedLocked(a, b int) bool {
	for _, p := range in.plan.Partitions {
		if in.epoch < p.From || in.epoch > p.To {
			continue
		}
		aInA, bInA := contains(p.A, a), contains(p.A, b)
		if len(p.B) == 0 {
			// A vs rest of the world.
			if aInA != bInA {
				return true
			}
			continue
		}
		if (aInA && contains(p.B, b)) || (bInA && contains(p.B, a)) {
			return true
		}
	}
	return false
}

// Verdict rules on one traversal from src to dst at the current epoch.
// Pass Wild for an unknown endpoint (only wildcard link faults and the
// known endpoint's crash state then apply). Each call consumes one
// per-link coin flip, so repeated traversals of a flaky link see
// independent — but replayable — outcomes.
func (in *Injector) Verdict(src, dst int) Verdict {
	if in == nil {
		return Verdict{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if (src != Wild && in.nodeDownLocked(src)) || (dst != Wild && in.nodeDownLocked(dst)) {
		return Verdict{Drop: true}
	}
	if src != Wild && dst != Wild && in.partitionedLocked(src, dst) {
		return Verdict{Drop: true}
	}
	var extra float64
	for _, l := range in.plan.Links {
		if in.epoch < l.From || in.epoch > l.To {
			continue
		}
		if (l.Src != Wild && l.Src != src) || (l.Dst != Wild && l.Dst != dst) {
			continue
		}
		if l.DropProb > 0 {
			key := [2]int{src, dst}
			n := in.attempt[key]
			in.attempt[key] = n + 1
			if coin(in.plan.Seed, in.epoch, src, dst, n) < l.DropProb {
				return Verdict{Drop: true}
			}
		}
		extra += l.ExtraMs
	}
	return Verdict{ExtraMs: extra}
}

// coin derives a replayable uniform [0,1) sample from the fault seed,
// epoch, link, and per-link attempt number (splitmix64 finalizer).
func coin(seed int64, epoch, src, dst int, attempt uint64) float64 {
	h := mix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = mix(h ^ uint64(int64(epoch)+1))
	h = mix(h ^ uint64(int64(src)+2))
	h = mix(h ^ uint64(int64(dst)+3))
	h = mix(h ^ attempt)
	return float64(h>>11) / (1 << 53)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Parse reads the compact fault-plan DSL used by the CLI flags:
// semicolon-separated directives, each scoped to an inclusive epoch
// range with @from-to (or @e for a single epoch).
//
//	crash 2@5-8              node 2 offline during epochs 5..8
//	partition 0,1|2,3@3-6    groups {0,1} and {2,3} cannot reach each other
//	partition 0,1@3-6        nodes {0,1} cut off from everyone else
//	drop 0>3:0.2@1-10        link 0->3 loses 20% of traffic
//	drop *>3:0.5@4           any source to node 3 loses half, epoch 4 only
//	slow 1>*:40@2-9          everything node 1 sends is 40ms slower
//
// seed fixes the coin-flip sequence for probabilistic drops.
func Parse(seed int64, s string) (*Plan, error) {
	p := &Plan{Seed: seed}
	for _, raw := range strings.Split(s, ";") {
		d := strings.TrimSpace(raw)
		if d == "" {
			continue
		}
		verb, rest, ok := strings.Cut(d, " ")
		if !ok {
			return nil, fmt.Errorf("faults: directive %q has no argument", d)
		}
		rest = strings.TrimSpace(rest)
		body, from, to, err := splitEpochs(rest)
		if err != nil {
			return nil, fmt.Errorf("faults: directive %q: %w", d, err)
		}
		switch verb {
		case "crash":
			node, err := strconv.Atoi(body)
			if err != nil {
				return nil, fmt.Errorf("faults: crash node %q: %w", body, err)
			}
			p.Crashes = append(p.Crashes, Crash{Node: node, From: from, To: to})
		case "partition":
			aPart, bPart, _ := strings.Cut(body, "|")
			a, err := parseNodeList(aPart)
			if err != nil {
				return nil, fmt.Errorf("faults: partition %q: %w", body, err)
			}
			var b []int
			if bPart != "" {
				if b, err = parseNodeList(bPart); err != nil {
					return nil, fmt.Errorf("faults: partition %q: %w", body, err)
				}
			}
			p.Partitions = append(p.Partitions, Partition{A: a, B: b, From: from, To: to})
		case "drop", "slow":
			link, valStr, ok := strings.Cut(body, ":")
			if !ok {
				return nil, fmt.Errorf("faults: %s %q needs link:value", verb, body)
			}
			srcStr, dstStr, ok := strings.Cut(link, ">")
			if !ok {
				return nil, fmt.Errorf("faults: link %q needs src>dst", link)
			}
			src, err := parseNode(srcStr)
			if err != nil {
				return nil, err
			}
			dst, err := parseNode(dstStr)
			if err != nil {
				return nil, err
			}
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %s value %q: %w", verb, valStr, err)
			}
			lf := LinkFault{Src: src, Dst: dst, From: from, To: to}
			if verb == "drop" {
				lf.DropProb = val
			} else {
				lf.ExtraMs = val
			}
			p.Links = append(p.Links, lf)
		default:
			return nil, fmt.Errorf("faults: unknown directive %q", verb)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan back into the DSL Parse accepts (modulo
// directive order, which is normalized to crash, partition, drop, slow).
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var parts []string
	for _, c := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash %d@%s", c.Node, epochs(c.From, c.To)))
	}
	for _, pt := range p.Partitions {
		s := "partition " + nodeList(pt.A)
		if len(pt.B) > 0 {
			s += "|" + nodeList(pt.B)
		}
		parts = append(parts, s+"@"+epochs(pt.From, pt.To))
	}
	for _, l := range p.Links {
		if l.DropProb > 0 {
			parts = append(parts, fmt.Sprintf("drop %s>%s:%v@%s",
				nodeStr(l.Src), nodeStr(l.Dst), l.DropProb, epochs(l.From, l.To)))
		}
		if l.ExtraMs > 0 {
			parts = append(parts, fmt.Sprintf("slow %s>%s:%v@%s",
				nodeStr(l.Src), nodeStr(l.Dst), l.ExtraMs, epochs(l.From, l.To)))
		}
	}
	return strings.Join(parts, "; ")
}

func splitEpochs(s string) (body string, from, to int, err error) {
	body, rng, ok := strings.Cut(s, "@")
	if !ok {
		return "", 0, 0, fmt.Errorf("missing @epoch range")
	}
	fromStr, toStr, ranged := strings.Cut(rng, "-")
	if from, err = strconv.Atoi(strings.TrimSpace(fromStr)); err != nil {
		return "", 0, 0, fmt.Errorf("epoch %q: %w", fromStr, err)
	}
	to = from
	if ranged {
		if to, err = strconv.Atoi(strings.TrimSpace(toStr)); err != nil {
			return "", 0, 0, fmt.Errorf("epoch %q: %w", toStr, err)
		}
	}
	return strings.TrimSpace(body), from, to, nil
}

func parseNode(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return Wild, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("faults: node %q: %w", s, err)
	}
	return n, nil
}

func parseNodeList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("node %q: %w", f, err)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

func nodeStr(n int) string {
	if n == Wild {
		return "*"
	}
	return strconv.Itoa(n)
}

func nodeList(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func epochs(from, to int) string {
	if from == to {
		return strconv.Itoa(from)
	}
	return fmt.Sprintf("%d-%d", from, to)
}
