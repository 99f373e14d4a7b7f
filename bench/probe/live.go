// Package probe is the layer walk of traced runs: it replays the inputs
// of the operations the end-to-end drivers just issued through the
// layers' exported functions, one span per call, in the order the
// program calls them. It is the only part of the benchmark that knows
// what is inside a layer; the end-to-end numbers never depend on it.
package probe

import (
	"fmt"

	"github.com/georep/georep/bench/report"
	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/transport"
	"github.com/georep/georep/internal/vec"
)

// walkEvery thins the walk: one traced operation in walkEvery is
// replayed. Every client call still gets its own span; the walk only
// needs enough samples for a mean and must not grow the span file
// without bound.
const walkEvery = 4

// writeLogRetain mirrors the daemon's default write-log tail bound, so
// the walked log compacts as a node's does.
const writeLogRetain = 1024

// LiveWalk replays live operations against its own store, summarizer
// and write log, set up as a default node has them (m=10). It
// implements e2e.LiveHooks.
type LiveWalk struct {
	rec   *report.Recorder
	store *store.Store
	sum   *cluster.Summarizer
	log   *replog.Log
	frame []byte
	seen  int64
	// batchEntries counts the entries the batch codec spans covered.
	batchEntries int
	// Err is the first error a walked call returned; the walk replays
	// inputs that already succeeded end to end, so any error is a
	// finding, reported as a failed check.
	Err error
}

// NewLiveWalk builds a walk over dims-dimensional client coordinates.
func NewLiveWalk(rec *report.Recorder, dims int) (*LiveWalk, error) {
	sum, err := cluster.NewSummarizer(10, dims)
	if err != nil {
		return nil, err
	}
	return &LiveWalk{rec: rec, store: store.New(), sum: sum, log: replog.NewLog()}, nil
}

func (w *LiveWalk) note(err error) {
	if err != nil && w.Err == nil {
		w.Err = err
	}
}

// Preload mirrors the cluster's initial contents.
func (w *LiveWalk) Preload(object string, data []byte, version uint64) {
	w.note(w.store.Put(store.Object{ID: store.ObjectID(object), Data: append([]byte(nil), data...), Version: version}))
}

// Get replays one read: request codec, store lookup, summarizer fold,
// response codec — the steps of the node's get handler, in order.
func (w *LiveWalk) Get(op int64, client int, coord []float64, object string) {
	if w.seen++; w.seen%walkEvery != 0 {
		return
	}
	rec := w.rec
	root := rec.Begin("walk.get", 0, op)

	sp := rec.Begin("transport.marshal_get", root, op)
	body, err := transport.Marshal(daemon.GetRequest{Client: client, ClientCoord: coord, Object: object})
	rec.End(sp)
	w.note(err)

	var req daemon.GetRequest
	sp = rec.Begin("daemon.unmarshal_get", root, op)
	err = transport.Unmarshal(body, &req)
	rec.End(sp)
	w.note(err)

	sp = rec.Begin("store.get", root, op)
	obj, err := w.store.Get(store.ObjectID(req.Object))
	rec.End(sp)
	w.note(err)

	sp = rec.Begin("cluster.observe", root, op)
	err = w.sum.Observe(vec.Vec(req.ClientCoord), float64(len(obj.Data)))
	rec.End(sp)
	w.note(err)

	sp = rec.Begin("daemon.marshal_get", root, op)
	out, err := transport.Marshal(daemon.GetResponse{Data: obj.Data, Version: obj.Version})
	rec.End(sp)
	w.note(err)

	var resp daemon.GetResponse
	sp = rec.Begin("transport.unmarshal_get", root, op)
	err = transport.Unmarshal(out, &resp)
	rec.End(sp)
	w.note(err)

	rec.End(root)
}

// Put replays one write on one node: request codec, store write,
// write-log append with its tail bound, and the entry's wire frame.
func (w *LiveWalk) Put(op int64, object string, data []byte, version uint64) {
	// Every put is applied so the walked store never serves a version
	// the cluster has moved past; only a share of them is timed.
	w.seen++
	timed := w.seen%walkEvery == 0
	rec := w.rec
	if !timed {
		rec = nil
	}
	root := rec.Begin("walk.put", 0, op)

	sp := rec.Begin("transport.marshal_put", root, op)
	body, err := transport.Marshal(daemon.PutRequest{Object: object, Data: data, Version: version})
	rec.End(sp)
	w.note(err)

	var req daemon.PutRequest
	sp = rec.Begin("daemon.unmarshal_put", root, op)
	err = transport.Unmarshal(body, &req)
	rec.End(sp)
	w.note(err)

	sp = rec.Begin("store.put", root, op)
	err = w.store.Put(store.Object{ID: store.ObjectID(req.Object), Data: req.Data, Version: req.Version})
	rec.End(sp)
	w.note(err)

	e := replog.Entry{Seq: w.log.Last() + 1, Term: 1, Client: -1, Object: int32(len(req.Object)), Bytes: float64(len(req.Data))}
	sp = rec.Begin("replog.append", root, op)
	err = w.log.Append(e)
	if err == nil && w.log.Len() > writeLogRetain {
		err = w.log.CompactTo(w.log.Last() - writeLogRetain)
	}
	rec.End(sp)
	w.note(err)

	sp = rec.Begin("replog.frame", root, op)
	w.frame = replog.AppendFrame(w.frame[:0], e)
	rec.End(sp)

	rec.End(root)
}

// Leg replays one node's share of a coordinator leg: summary export
// codec, decay, and the catch-up batch codec over the retained tail.
func (w *LiveWalk) Leg(op int64) {
	rec := w.rec
	root := rec.Begin("walk.leg", 0, op)

	sp := rec.Begin("cluster.encode_micros", root, op)
	enc, err := cluster.EncodeMicros(w.sum.Clusters())
	rec.End(sp)
	w.note(err)

	sp = rec.Begin("cluster.decode_micros", root, op)
	_, err = cluster.DecodeMicros(enc)
	rec.End(sp)
	w.note(err)

	w.note(w.sum.Decay(0.5))

	if es, ok := w.log.EntriesFrom(w.log.SnapSeq()+1, 0); ok && len(es) > 0 {
		sp = rec.Begin("replog.encode_batch", root, op)
		frames := replog.EncodeBatch(es)
		rec.End(sp)
		sp = rec.Begin("replog.decode_batch", root, op)
		_, err = replog.DecodeBatch(frames)
		rec.End(sp)
		w.note(err)
		w.batchEntries += len(es)
	}
	rec.End(root)
}

// AddMetrics derives the live per-layer metrics from the recorded
// spans and, with the registry-derived handler time the driver already
// reported, the handler's own share.
func (w *LiveWalk) AddMetrics(res *report.Result) {
	agg := report.Aggregate(w.rec.Spans(), w.rec.Inner, w.rec.Outer)
	ns := func(metric, span string) float64 {
		st := agg[span]
		if st.Count == 0 {
			return 0
		}
		res.Add(metric, "ns", st.MeanSelfNs(), st.Count)
		return st.MeanSelfNs()
	}
	ns("transport.marshal_get_ns", "transport.marshal_get")
	ns("transport.unmarshal_get_ns", "transport.unmarshal_get")
	unmarshalReq := ns("daemon.unmarshal_get_ns", "daemon.unmarshal_get")
	get := ns("store.get_ns", "store.get")
	observe := ns("cluster.observe_ns", "cluster.observe")
	marshalResp := ns("daemon.marshal_get_ns", "daemon.marshal_get")
	ns("store.put_ns", "store.put")
	ns("replog.append_ns", "replog.append")
	ns("replog.frame_ns", "replog.frame")
	ns("cluster.encode_micros_ns", "cluster.encode_micros")
	ns("cluster.decode_micros_ns", "cluster.decode_micros")
	if w.batchEntries > 0 {
		for _, m := range []struct{ metric, span string }{
			{"replog.encode_batch_ns_per_entry", "replog.encode_batch"},
			{"replog.decode_batch_ns_per_entry", "replog.decode_batch"},
		} {
			res.Add(m.metric, "ns", agg[m.span].SelfNs/float64(w.batchEntries), w.batchEntries)
		}
	}
	if h, ok := res.Get("daemon.get_handle_us"); ok && agg["store.get"].Count > 0 {
		walked := (unmarshalReq + get + observe + marshalResp) / 1e3
		res.Add("daemon.handler_self_us", "us", h.Value-walked, h.Samples)
	}
	res.CheckOK("layer_walk", w.Err == nil, fmt.Sprint(w.Err))
}
