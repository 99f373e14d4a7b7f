package e2e

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
	"github.com/georep/georep/internal/workload"
)

// LiveHooks receives each traced live operation's inputs right after the
// real call returned, off the client-observed clock, so the layer walk
// can replay the same operation through the layers one by one.
type LiveHooks interface {
	// Preload mirrors the cluster's initial contents.
	Preload(object string, data []byte, version uint64)
	Get(op int64, client int, coord []float64, object string)
	Put(op int64, object string, data []byte, version uint64)
	// Leg marks one coordinator leg (summary export, decay, catch-up).
	Leg(op int64)
}

// liveSizes are the knobs that differ between the two live workloads
// and the quick pass.
type liveSizes struct {
	clients   int
	objects   int
	objBytes  int
	writeFrac float64
	warmOps   int
	legEvery  int // 0 = no coordinator legs
	burst     int // calls in the ping / allocation bursts of a traced run
}

func liveSizesFor(workloadName string, quick bool) liveSizes {
	s := liveSizes{clients: 10_000, objects: 64, objBytes: 128, warmOps: 4000, burst: 2000}
	if workloadName == LiveMixed {
		s.objBytes, s.writeFrac, s.legEvery = 4096, 0.3, 2000
	}
	if quick {
		s.clients, s.warmOps, s.burst = 500, 200, 100
		if s.legEvery > 0 {
			s.legEvery = 100
		}
	}
	return s
}

// liveNodes is the number of storage nodes of the live cluster.
const liveNodes = 3

// payloadHeader is version (8 bytes) + object index (4 bytes); the rest
// of a payload is a per-object pattern whose CRC the reader checks.
const payloadHeader = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// liveCluster is a dialed three-node cluster, in-process or remote.
type liveCluster struct {
	nodes   []*daemon.Node // empty when remote
	clients []*daemon.Client
	pos     [][]float64 // node coordinates as the coord RPC reports them
	height  []float64
	ids     []int
	reg     *metrics.Registry // client-side transport metrics
}

func (c *liveCluster) close() {
	for _, cl := range c.clients {
		if cl != nil {
			_ = cl.Close() // teardown: nothing to do about a failed close
		}
	}
	for _, n := range c.nodes {
		if n != nil {
			_ = n.Close()
		}
	}
}

// startCluster starts three in-process nodes configured as georepd
// configures one by default (m=10, dims=3, unsharded, flight recorder
// on) at three of the world's candidate sites, or dials addrs.
func startCluster(w *world, writeRatio float64, addrs []string) (*liveCluster, error) {
	c := &liveCluster{reg: metrics.NewRegistry()}
	if len(addrs) == 0 {
		for i := 0; i < liveNodes; i++ {
			site := w.cands[i*len(w.cands)/liveNodes]
			n, err := daemon.NewNode(daemon.Config{
				ID:            site,
				MicroClusters: 10,
				Dims:          len(w.Coords[site].Pos),
				Coordinate:    w.Coords[site].Pos,
				Height:        w.Coords[site].Height,
				WriteRatio:    writeRatio,
				Trace:         trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous),
			})
			if err != nil {
				c.close()
				return nil, err
			}
			c.nodes = append(c.nodes, n)
			if err := n.Start("127.0.0.1:0"); err != nil {
				c.close()
				return nil, err
			}
			addrs = append(addrs, n.Addr())
		}
	}
	for _, addr := range addrs {
		cl, err := daemon.DialNode(addr, 5*time.Second, transport.WithClientMetrics(c.reg))
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
		cr, err := cl.Coord()
		if err != nil {
			c.close()
			return nil, err
		}
		if len(cr.Pos) == 0 {
			c.close()
			return nil, fmt.Errorf("node %s reports no coordinate (start georepd with -coord)", addr)
		}
		c.pos = append(c.pos, cr.Pos)
		c.height = append(c.height, cr.Height)
		c.ids = append(c.ids, cr.Node)
	}
	return c, nil
}

// snapshots fetches every node's registry through the metrics RPC — the
// same surface for in-process and remote nodes.
func (c *liveCluster) snapshots() ([]metrics.Snapshot, error) {
	out := make([]metrics.Snapshot, len(c.clients))
	for i, cl := range c.clients {
		s, err := cl.Metrics()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// liveState is one built fixture: world, cluster, stream, payloads.
type liveState struct {
	name    string
	sz      liveSizes
	w       *world
	cl      *liveCluster
	stream  *workload.Stream
	specs   []workload.ClientSpec
	spec    workload.StreamSpec
	names   []string
	data    [][]byte // current payload per object (header rewritten per put)
	bodyCRC []uint32
	acked   []uint64 // last version acked by all nodes, per object
	nearest []int    // world node -> index of coordinate-closest cluster node
	applied []uint64 // per node: highest write-log sequence verified
	batch   []workload.Access

	snap0 []metrics.Snapshot
	// Totals since snap0, across warm-up and both windows.
	gets, puts, legs int64
	failures
	hooks LiveHooks
}

func buildLive(workloadName string, p Params) (*liveState, error) {
	s := &liveState{name: workloadName, sz: liveSizesFor(workloadName, p.Quick), hooks: p.LiveHooks}
	var err error
	if s.w, err = buildWorld(p.Quick); err != nil {
		return nil, err
	}
	s.specs, err = workload.SynthClients(rand.New(rand.NewSource(p.Seed)), s.sz.clients, s.w.pops, s.w.popRegion)
	if err != nil {
		return nil, err
	}
	s.spec = workload.StreamSpec{
		Clients:         s.sz.clients,
		Regions:         s.w.regions,
		Objects:         s.sz.objects,
		ZipfExponent:    0.8,
		MeanObjectBytes: float64(s.sz.objBytes),
		BatchSize:       256,
		Rate:            64 * 256,
		WriteFraction:   s.sz.writeFrac,
	}
	if s.stream, err = workload.NewStream(s.spec, s.specs); err != nil {
		return nil, err
	}
	s.stream.Seed(p.Seed)
	s.batch = make([]workload.Access, s.spec.BatchSize)

	if s.cl, err = startCluster(s.w, s.sz.writeFrac, p.Nodes); err != nil {
		return nil, err
	}
	if s.snap0, err = s.cl.snapshots(); err != nil {
		s.cl.close()
		return nil, err
	}
	// Remote logs may already hold entries: start verifying at the tail.
	s.applied = make([]uint64, len(s.cl.clients))
	for i := range s.applied {
		s.applied[i] = uint64(s.snap0[i].Gauges["replog_last_seq"])
	}

	// Route every world node to its coordinate-closest cluster node, as
	// georepctl read does for a client coordinate.
	s.nearest = make([]int, len(s.w.Coords))
	for node := range s.nearest {
		best, bestD := 0, math.Inf(1)
		for i := range s.cl.pos {
			if d := s.predicted(node, i); d < bestD {
				best, bestD = i, d
			}
		}
		s.nearest[node] = best
	}

	// Preload every object on every node through the put RPC.
	pr := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	base := uint64(time.Now().UnixNano()) // above any version a reused remote node holds
	if len(p.Nodes) == 0 {
		base = 0
	}
	for o := 0; o < s.sz.objects; o++ {
		d := make([]byte, s.sz.objBytes)
		pr.Read(d[payloadHeader:])
		binary.LittleEndian.PutUint32(d[8:12], uint32(o))
		s.names = append(s.names, fmt.Sprintf("obj-%03d", o))
		s.data = append(s.data, d)
		s.bodyCRC = append(s.bodyCRC, crc32.Checksum(d[payloadHeader:], castagnoli))
		s.acked = append(s.acked, base)
		if !s.put(o) {
			s.cl.close()
			return nil, fmt.Errorf("preload %s: %s", s.names[o], s.first)
		}
		if s.hooks != nil {
			s.hooks.Preload(s.names[o], s.data[o], s.acked[o])
		}
	}

	// Warm-up: connection buffers, gob type caches, summarizers at budget.
	for done := 0; done < s.sz.warmOps; {
		for _, a := range s.stream.Next(s.batch) {
			s.op(a, 0, nil)
			done++
		}
	}
	if s.failed > 0 {
		s.cl.close()
		return nil, fmt.Errorf("warm-up: %s", s.first)
	}
	return s, nil
}

// put writes the next version of object o to every node, as georepctl
// put does, and reports whether all of them acked.
func (s *liveState) put(o int) bool {
	v := s.acked[o] + 1
	binary.LittleEndian.PutUint64(s.data[o][0:8], v)
	s.puts++
	for _, cl := range s.cl.clients {
		if err := cl.Put(s.names[o], s.data[o], v); err != nil {
			s.fail("put %s v%d: %v", s.names[o], v, err)
			return false
		}
	}
	s.acked[o] = v
	return true
}

// get reads object o for a client at world node `node` from its
// closest cluster node, returns the client-observed duration of the
// call, and then verifies the answer off that clock.
func (s *liveState) get(o, node int, op int64, rec *report.Recorder) time.Duration {
	s.gets++
	var (
		resp daemon.GetResponse
		err  error
	)
	took := rec.Timed("client.get", 0, op, func() {
		resp, _, err = s.cl.clients[s.nearest[node]].Get(node, s.w.Coords[node].Pos, s.names[o])
	})
	if err != nil {
		s.fail("get %s: %v", s.names[o], err)
		return took
	}
	d := resp.Data
	switch {
	case len(d) != s.sz.objBytes:
		s.fail("get %s: %d bytes, want %d", s.names[o], len(d), s.sz.objBytes)
	case resp.Version < s.acked[o]:
		s.fail("get %s: version %d below acked %d", s.names[o], resp.Version, s.acked[o])
	case binary.LittleEndian.Uint64(d[0:8]) != resp.Version || binary.LittleEndian.Uint32(d[8:12]) != uint32(o):
		s.fail("get %s: payload header does not match version %d", s.names[o], resp.Version)
	case crc32.Checksum(d[payloadHeader:], castagnoli) != s.bodyCRC[o]:
		s.fail("get %s: payload checksum mismatch", s.names[o])
	}
	return took
}

// op issues one stream access; returns whether it was a put and the
// client-observed duration.
func (s *liveState) op(a workload.Access, op int64, rec *report.Recorder) (isPut bool, d time.Duration) {
	if a.Write {
		var ok bool
		d = rec.Timed("client.put", 0, op, func() { ok = s.put(a.Object) })
		if ok && rec != nil && s.hooks != nil {
			s.hooks.Put(op, s.names[a.Object], s.data[a.Object], s.acked[a.Object])
		}
		return true, d
	}
	d = s.get(a.Object, a.Client, op, rec)
	if rec != nil && s.hooks != nil {
		s.hooks.Get(op, a.Client, s.w.Coords[a.Client].Pos, s.names[a.Object])
	}
	return false, d
}

// catchUp drains node i's write log past the verified position,
// checking that sequences are contiguous (frames are CRC-checked by the
// client's decode). It returns the number of replicate calls made.
func (s *liveState) catchUp(i int, op int64, rec *report.Recorder) (calls int, d time.Duration) {
	for {
		var (
			resp    daemon.ReplicateResponse
			entries []replog.Entry
			err     error
		)
		d += rec.Timed("client.replicate", 0, op, func() {
			resp, entries, err = s.cl.clients[i].Replicate(s.applied[i], 0)
		})
		calls++
		if err != nil {
			s.fail("replicate node %d: %v", i, err)
			return calls, d
		}
		if resp.Snapshot {
			s.applied[i] = resp.SnapSeq
			continue
		}
		for j, e := range entries {
			if e.Seq != s.applied[i]+1+uint64(j) {
				s.fail("replicate node %d: entry %d has seq %d, want %d", i, j, e.Seq, s.applied[i]+1+uint64(j))
				return calls, d
			}
		}
		s.applied[i] += uint64(len(entries))
		if s.applied[i] >= resp.Last || len(entries) == 0 {
			return calls, d
		}
	}
}

// leg runs one coordinator leg on every node: export the summary, age
// it, catch up on the write log. Returns calls made and their total
// client-observed time.
func (s *liveState) leg(op int64, rec *report.Recorder) (calls int, d time.Duration) {
	s.legs++
	for i, cl := range s.cl.clients {
		var err error
		d += rec.Timed("client.micros", 0, op, func() { _, _, err = cl.Micros() })
		if err != nil {
			s.fail("micros node %d: %v", i, err)
		}
		d += rec.Timed("client.decay", 0, op, func() { err = cl.Decay(0.5) })
		if err != nil {
			s.fail("decay node %d: %v", i, err)
		}
		calls += 2
		n, dd := s.catchUp(i, op, rec)
		calls += n
		d += dd
	}
	if rec != nil && s.hooks != nil {
		s.hooks.Leg(op)
	}
	return calls, d
}

// liveSlice is the length of one slice of a live window: long enough
// to hold a few thousand operations and several collections of the
// shared heap, short enough that a quarter of them falls between a
// neighbour's bursts (see report.Quiet).
const liveSlice = 100 * time.Millisecond

// livePhase is what one measured window produced. Latencies go into
// fixed-size histograms, not slices: the nodes share this process's
// heap, and with a few megabytes live and hundreds of MB/s allocated by
// gob, a latency slice that doubles mid-run changes how often the GC
// runs — runs that grew theirs measured 15 % more throughput.
type livePhase struct {
	getLat, putLat report.Histogram
	// slices cuts the window into liveSlice stretches: operations
	// completed, time taken, median get.
	slices        []report.Slice
	ops           int64
	failedAtStart int64
	elapsed       time.Duration
	genNs         int64 // time inside stream.Next
	genAccesses   int64
	rpcNs         int64 // client-observed time of every call-bearing op
	rpcCalls      int64
	rttSum        float64 // Σ true RTT (ms) client node -> serving node
	rttN          int64
}

func (s *liveState) runPhase(seconds float64, rec *report.Recorder, opBase int64) *livePhase {
	ph := &livePhase{
		failedAtStart: s.failed,
		slices:        make([]report.Slice, 0, int(seconds/liveSlice.Seconds())+1),
	}
	win := startWindow(seconds)
	sinceLeg := 0
	var (
		sliceLat   report.Histogram
		sliceOps   float64
		sliceStart = win.start
	)
	for win.open() {
		g0 := time.Now()
		batch := s.stream.Next(s.batch)
		ph.genNs += int64(time.Since(g0))
		ph.genAccesses += int64(len(batch))
		for _, a := range batch {
			if !win.open() {
				break
			}
			ph.ops++
			isPut, d := s.op(a, opBase+ph.ops, rec)
			ph.rpcNs += int64(d)
			if isPut {
				ph.putLat.Record(int64(d))
				ph.rpcCalls += int64(len(s.cl.clients))
			} else {
				ph.getLat.Record(int64(d))
				sliceLat.Record(int64(d))
				ph.rpcCalls++
				ph.rttSum += s.trueRTT(a.Client, s.nearest[a.Client])
				ph.rttN++
			}
			sinceLeg++
			if s.sz.legEvery > 0 && sinceLeg >= s.sz.legEvery {
				sinceLeg = 0
				calls, d := s.leg(opBase+ph.ops, rec)
				ph.rpcCalls += int64(calls)
				ph.rpcNs += int64(d)
			}
			sliceOps++
			if took := time.Since(sliceStart); took >= liveSlice {
				ph.slices = append(ph.slices, report.Slice{Work: sliceOps, Ns: float64(took), Latency: sliceLat.Quantile(0.5)})
				sliceLat, sliceOps = report.Histogram{}, 0
				sliceStart = time.Now() // closing a slice is on no slice's clock
			}
		}
	}
	ph.elapsed = time.Since(win.start)
	return ph
}

// predicted is the coordinate-predicted RTT from a client at world node
// `node` (clients carry no height) to cluster node i.
func (s *liveState) predicted(node, i int) float64 {
	var d2 float64
	for k, x := range s.w.Coords[node].Pos {
		dx := x - s.cl.pos[i][k]
		d2 += dx * dx
	}
	return math.Sqrt(d2) + s.cl.height[i]
}

// trueRTT is the ground-truth RTT between a client's PoP and cluster
// node i when that node sits in the benchmark's world; for foreign
// nodes (-nodes) only the coordinate prediction is known.
func (s *liveState) trueRTT(node, i int) float64 {
	if len(s.cl.nodes) > 0 {
		return s.w.Matrix.RTT(node, s.cl.ids[i])
	}
	return s.predicted(node, i)
}

func runLive(workloadName string, p Params) (*report.Result, error) {
	return runFixture(p,
		func() (*liveState, error) { return buildLive(workloadName, p) },
		func(s *liveState, res *report.Result) error { return s.measure(res, p) },
		func(s *liveState) { s.cl.close() })
}

// measure runs the windows on the built fixture and checks the outcome.
func (s *liveState) measure(res *report.Result, p Params) error {
	u := s.runPhase(p.Seconds, nil, 0)
	addPeakRSS(res)
	s.addEndToEnd(res, u)
	if p.TraceSeconds > 0 {
		if err := s.tracedPhase(res, p, u); err != nil {
			return err
		}
	}
	return s.finalChecks(res, p)
}

// addLatency reports a latency histogram's median in microseconds and,
// when the ten-samples-beyond rule allows it, its p99.
func addLatency(res *report.Result, h *report.Histogram, p50Name, p99Name string) {
	if h.Count() == 0 {
		return
	}
	res.Add(p50Name, "us", h.Quantile(0.5)/1e3, h.Count())
	if p99Name != "" && report.HasTail(h.Count(), 0.99) {
		res.Add(p99Name, "us", h.Quantile(0.99)/1e3, h.Count())
	}
}

// addEndToEnd reports the untraced window.
func (s *liveState) addEndToEnd(res *report.Result, u *livePhase) {
	quiet := report.Quiet(u.slices)
	res.Add("throughput_per_s", "1/s", report.Rate(quiet), len(quiet))
	res.Add("op_p50_us", "us", report.MedianLatency(quiet)/1e3, len(quiet))
	res.Add("ops_per_s", "1/s", float64(u.ops)/u.elapsed.Seconds(), int(u.ops))
	addLatency(res, &u.getLat, "get_p50_us", "get_p99_us")
	addLatency(res, &u.putLat, "put_p50_us", "put_p99_us")
	if u.rttN > 0 {
		res.Add("mean_access_ms", "ms", u.rttSum/float64(u.rttN), int(u.rttN))
	}
	attempted := u.ops
	failed := s.failed - u.failedAtStart
	res.Add("error_rate", "ratio", finite(float64(failed)/float64(attempted)), int(attempted))
	res.Add("workload.generator_share", "ratio", float64(u.genNs)/float64(u.elapsed), int(u.genAccesses))
	res.Add("workload.next_ns_per_access", "ns", finite(float64(u.genNs)/float64(u.genAccesses)), int(u.genAccesses))
}

// histDelta sums a histogram's count and sum across nodes, after minus
// before.
func histDelta(before, after []metrics.Snapshot, name string) (count int64, sum float64) {
	for i := range after {
		h, b := after[i].Histograms[name], before[i].Histograms[name]
		count += h.Count - b.Count
		sum += h.Sum - b.Sum
	}
	return count, sum
}

func counterDelta(before, after []metrics.Snapshot, name string) int64 {
	var d int64
	for i := range after {
		d += after[i].Counters[name] - before[i].Counters[name]
	}
	return d
}

// usPerCall converts a histogram delta in milliseconds to a mean in
// microseconds.
func usPerCall(count int64, sumMs float64) float64 {
	if count == 0 {
		return 0
	}
	return sumMs * 1000 / float64(count)
}

// tracedPhase runs the traced window and derives the per-layer numbers
// the program's own registries give: client transport histograms,
// server handle histograms, per-method handler histograms, counters.
func (s *liveState) tracedPhase(res *report.Result, p Params, u *livePhase) error {
	srv0, err := s.cl.snapshots()
	if err != nil {
		return err
	}
	cli0 := []metrics.Snapshot{s.cl.reg.Snapshot()}
	t := s.runPhase(p.TraceSeconds, p.Rec, 1<<32)
	cli1 := []metrics.Snapshot{s.cl.reg.Snapshot()}
	srv1, err := s.cl.snapshots()
	if err != nil {
		return err
	}

	encN, encMs := histDelta(cli0, cli1, "transport_client_encode_ms")
	decN, decMs := histDelta(cli0, cli1, "transport_client_decode_ms")
	rttN, rttMs := histDelta(cli0, cli1, "transport_client_rtt_ms")
	hN, hMs := histDelta(srv0, srv1, "transport_server_handle_ms")
	// The closing snapshots' own metrics calls were handled after cli1
	// was taken but are in srv1; they are three calls in tens of
	// thousands and are left in.
	calls := counterDelta(cli0, cli1, "transport_client_calls_total")
	res.Add("transport.calls", "count", float64(calls), 0)
	res.Add("transport.errors", "count", float64(counterDelta(cli0, cli1, "transport_client_errors_total")), 0)
	res.Add("transport.retries", "count", float64(counterDelta(cli0, cli1, "transport_client_retries_total")), 0)
	res.Add("transport.redials", "count", float64(counterDelta(cli0, cli1, "transport_client_redials_total")), 0)
	res.Add("transport.encode_us", "us", usPerCall(encN, encMs), int(encN))
	res.Add("transport.decode_us", "us", usPerCall(decN, decMs), int(decN))
	res.Add("transport.rtt_us", "us", usPerCall(rttN, rttMs), int(rttN))
	res.Add("transport.server_handle_us", "us", usPerCall(hN, hMs), int(hN))
	res.Add("transport.wire_us", "us", usPerCall(rttN, rttMs)-usPerCall(hN, hMs), int(rttN))
	if calls > 0 {
		res.Add("transport.req_body_bytes", "B", float64(counterDelta(cli0, cli1, "transport_client_bytes_out_total"))/float64(calls), int(calls))
		res.Add("transport.resp_body_bytes", "B", float64(counterDelta(cli0, cli1, "transport_client_bytes_in_total"))/float64(calls), int(calls))
	}
	for _, m := range []struct{ method, name string }{
		{daemon.MethodGet, "daemon.get_handle_us"},
		{daemon.MethodPut, "daemon.put_handle_us"},
		{daemon.MethodMicros, "daemon.micros_us"},
		{daemon.MethodDecay, "daemon.decay_us"},
		{daemon.MethodReplicate, "daemon.replicate_us"},
	} {
		n, ms := histDelta(srv0, srv1, "daemon_rpc_"+m.method+"_ms")
		if n > 0 {
			res.Add(m.name, "us", usPerCall(n, ms), int(n))
		}
	}
	if n, sum := histDelta(srv0, srv1, "daemon_summary_bytes"); n > 0 {
		res.Add("daemon.summary_bytes", "B", sum/float64(n), int(n))
	}
	res.Add("replog.appends", "count", float64(counterDelta(srv0, srv1, "replog_appends_total")), 0)
	res.Add("replog.compactions", "count", float64(counterDelta(srv0, srv1, "replog_compactions_total")), 0)

	// The budget: what the client observed per call against what the
	// transport's own histograms account for (encode + round trip +
	// decode); the rest is client-side glue the layers do not time.
	if t.rpcCalls > 0 {
		e2eUs := float64(t.rpcNs) / float64(t.rpcCalls) / 1e3
		attr := (encMs + rttMs + decMs) * 1000 / float64(t.rpcCalls)
		res.Add("rpc.end_to_end_us", "us", e2eUs, int(t.rpcCalls))
		res.Add("rpc.attributed_us", "us", attr, int(t.rpcCalls))
		res.Add("rpc.unattributed_us", "us", e2eUs-attr, int(t.rpcCalls))
		res.Add("rpc.budget_coverage", "ratio", finite(attr/e2eUs), int(t.rpcCalls))
	}
	addLatency(res, &t.getLat, "traced.get_p50_us", "")
	um, tm := report.MedianLatency(report.Quiet(u.slices)), report.MedianLatency(report.Quiet(t.slices))
	res.Add("trace.harness_overhead_pct", "%", finite(100*(tm-um)/um), t.getLat.Count())

	// Bursts on the warmed-up cluster: an empty-body call prices the
	// transport alone; the allocation count is the whole loopback call,
	// both ends, as the process sees it.
	cl := s.cl.clients[0]
	var pings report.Histogram
	for i := 0; i < s.sz.burst; i++ {
		var err error
		pings.Record(int64(p.Rec.Timed("client.ping", 0, 0, func() { _, err = cl.Ping() })))
		if err != nil {
			s.fail("ping: %v", err)
		}
	}
	res.Add("transport.ping_us", "us", pings.Mean()/1e3, pings.Count())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < s.sz.burst; i++ {
		s.get(i%s.sz.objects, s.w.pops[i%len(s.w.pops)], 0, nil)
	}
	runtime.ReadMemStats(&m1)
	res.Add("transport.allocs_per_call", "count", float64(m1.Mallocs-m0.Mallocs)/float64(s.sz.burst), s.sz.burst)
	res.Add("transport.alloc_bytes_per_call", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(s.sz.burst), s.sz.burst)
	return nil
}

// finalChecks compares what the harness sent against what the nodes
// counted, and verifies the stream the run drew from.
func (s *liveState) finalChecks(res *report.Result, p Params) error {
	for i := range s.cl.clients {
		if s.sz.legEvery > 0 {
			s.catchUp(i, 0, nil)
		}
	}
	end, err := s.cl.snapshots()
	if err != nil {
		return err
	}
	res.Attempted = s.gets + s.puts + s.legs
	res.Failed = s.failed
	res.Check("operations", int(s.failed), s.first)

	mismatch := func(name string, got, want int64) {
		res.CheckOK(name, got == want, fmt.Sprintf("nodes counted %d, harness sent %d", got, want))
	}
	mismatch("daemon_rpc_get_total", counterDelta(s.snap0, end, "daemon_rpc_get_total"), s.gets)
	// Gets a node answered with an error are counted but not summarized.
	mismatch("daemon_summarized_accesses_total", counterDelta(s.snap0, end, "daemon_summarized_accesses_total"),
		s.gets-counterDelta(s.snap0, end, "daemon_rpc_get_errors_total"))
	if s.sz.writeFrac > 0 {
		bad, detail := 0, ""
		for i := range end {
			got := end[i].Counters["replog_appends_total"] - s.snap0[i].Counters["replog_appends_total"]
			if got != s.puts {
				bad++
				detail = fmt.Sprintf("node %d appended %d entries for %d acked puts", i, got, s.puts)
			}
			if last := int64(end[i].Gauges["replog_last_seq"]); uint64(last) != s.applied[i] {
				bad++
				detail = fmt.Sprintf("node %d log tail %d, verified through %d", i, last, s.applied[i])
			}
		}
		res.Check("replog_appends_total", bad, detail)
	}

	shadow, err := workload.NewStream(s.spec, s.specs)
	if err != nil {
		return err
	}
	shadow.Seed(p.Seed)
	digest, err := workload.StreamDigest(shadow, 1)
	if err != nil {
		return err
	}
	checkDigest(res, s.name, digest, p)
	return nil
}
