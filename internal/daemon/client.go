package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replog"
	"github.com/georep/georep/internal/slo"
	"github.com/georep/georep/internal/trace"
	"github.com/georep/georep/internal/transport"
)

// Client talks the daemon protocol to one node.
type Client struct {
	c    *transport.Client
	addr string
}

// IdempotentMethods lists the daemon methods safe to retry on transport
// failure: every method except decay, whose repeated application would
// age the summary twice.
func IdempotentMethods() []string {
	return []string{MethodGet, MethodPut, MethodDelete, MethodMicros,
		MethodStats, MethodPing, MethodCoord, MethodList, MethodMetrics,
		MethodTrace, MethodSLO, MethodReplicate, MethodExplain}
}

// DialNode connects to a daemon. Additional transport options (retry
// policy, call timeout, circuit breaker) apply on top of the defaults;
// the protocol's idempotent methods are pre-marked so a retry policy
// takes effect without further configuration.
func DialNode(addr string, timeout time.Duration, opts ...transport.ClientOption) (*Client, error) {
	all := append([]transport.ClientOption{
		transport.WithIdempotent(IdempotentMethods()...),
	}, opts...)
	c, err := transport.Dial(addr, timeout, all...)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, addr: addr}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// Ping checks liveness and returns the measured RTT — the signal a
// coordinate system would feed on.
func (c *Client) Ping() (time.Duration, error) {
	return c.c.Call(MethodPing, nil, nil)
}

// Get reads an object on behalf of a client node, returning the payload
// and the observed RTT (including any emulated wide-area delay).
func (c *Client) Get(client int, clientCoord []float64, object string) (GetResponse, time.Duration, error) {
	return c.GetCtx(context.Background(), client, clientCoord, object)
}

// GetCtx is Get with trace propagation: a span context carried by ctx
// travels in the request frame (see transport.CallContext).
func (c *Client) GetCtx(ctx context.Context, client int, clientCoord []float64, object string) (GetResponse, time.Duration, error) {
	var resp GetResponse
	rtt, err := c.c.CallContext(ctx, MethodGet, GetRequest{
		Client:      client,
		ClientCoord: clientCoord,
		Object:      object,
	}, &resp)
	if err != nil {
		return GetResponse{}, rtt, fmt.Errorf("daemon: get %s from %s: %w", object, c.addr, err)
	}
	return resp, rtt, nil
}

// Put stores an object version.
func (c *Client) Put(object string, data []byte, version uint64) error {
	return c.PutCtx(context.Background(), object, data, version)
}

// PutCtx is Put with trace propagation.
func (c *Client) PutCtx(ctx context.Context, object string, data []byte, version uint64) error {
	if _, err := c.c.CallContext(ctx, MethodPut, PutRequest{Object: object, Data: data, Version: version}, nil); err != nil {
		return fmt.Errorf("daemon: put %s to %s: %w", object, c.addr, err)
	}
	return nil
}

// Delete removes an object.
func (c *Client) Delete(object string) error {
	return c.DeleteCtx(context.Background(), object)
}

// DeleteCtx is Delete with trace propagation.
func (c *Client) DeleteCtx(ctx context.Context, object string) error {
	if _, err := c.c.CallContext(ctx, MethodDelete, DeleteRequest{Object: object}, nil); err != nil {
		return fmt.Errorf("daemon: delete %s at %s: %w", object, c.addr, err)
	}
	return nil
}

// Micros fetches the node's micro-cluster summary, decoded, along with
// its wire size in bytes.
func (c *Client) Micros() ([]cluster.Micro, int, error) {
	return c.MicrosCtx(context.Background())
}

// MicrosCtx is Micros with trace propagation, so the per-replica
// summary-collection RPCs of a traced epoch show their daemon legs.
func (c *Client) MicrosCtx(ctx context.Context) ([]cluster.Micro, int, error) {
	return c.MicrosObjectCtx(ctx, "")
}

// MicrosObjectCtx fetches one object's summary from a node running with
// per-object summaries (georepd -objects), decoded, with its wire size;
// an empty object asks for the node-wide summary.
func (c *Client) MicrosObjectCtx(ctx context.Context, object string) ([]cluster.Micro, int, error) {
	var resp MicrosResponse
	if _, err := c.c.CallContext(ctx, MethodMicros, MicrosRequest{Object: object}, &resp); err != nil {
		if object == "" {
			return nil, 0, fmt.Errorf("daemon: micros from %s: %w", c.addr, err)
		}
		return nil, 0, fmt.Errorf("daemon: micros(%s) from %s: %w", object, c.addr, err)
	}
	ms, err := cluster.DecodeMicros(resp.Encoded)
	if err != nil {
		return nil, 0, err
	}
	return ms, len(resp.Encoded), nil
}

// Decay ages the node's summary.
func (c *Client) Decay(factor float64) error {
	return c.DecayCtx(context.Background(), factor)
}

// DecayCtx is Decay with trace propagation.
func (c *Client) DecayCtx(ctx context.Context, factor float64) error {
	if _, err := c.c.CallContext(ctx, MethodDecay, DecayRequest{Factor: factor}, nil); err != nil {
		return fmt.Errorf("daemon: decay at %s: %w", c.addr, err)
	}
	return nil
}

// call runs one untraced call; its error names the method and the node.
func (c *Client) call(method string, req transport.BodyAppender, resp transport.BodyDecoder) error {
	if _, err := c.c.Call(method, req, resp); err != nil {
		return fmt.Errorf("daemon: %s from %s: %w", method, c.addr, err)
	}
	return nil
}

// Coord fetches the node's own network coordinate.
func (c *Client) Coord() (CoordResponse, error) {
	var resp CoordResponse
	err := c.call(MethodCoord, nil, &resp)
	return resp, err
}

// List fetches the node's stored object IDs.
func (c *Client) List() ([]string, error) {
	var resp ListResponse
	err := c.call(MethodList, nil, &resp)
	return resp.Objects, err
}

// Stats fetches node statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.call(MethodStats, nil, &resp)
	return resp, err
}

// Metrics fetches the node's metrics snapshot.
func (c *Client) Metrics() (metrics.Snapshot, error) {
	var body view
	if err := c.call(MethodMetrics, nil, &body); err != nil {
		return metrics.Snapshot{}, err
	}
	return metrics.UnmarshalSnapshot(body)
}

// Trace fetches the node's retained span trees (empty when the node
// runs without a flight recorder).
func (c *Client) Trace() ([]trace.Trace, error) {
	var body view
	if err := c.call(MethodTrace, nil, &body); err != nil {
		return nil, err
	}
	traces, err := trace.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("daemon: decode traces from %s: %w", c.addr, err)
	}
	return traces, nil
}

// SLO fetches the node's live SLO engine status (an error when the
// node runs without -slo).
func (c *Client) SLO() (slo.Status, error) {
	var body view
	if err := c.call(MethodSLO, nil, &body); err != nil {
		return slo.Status{}, err
	}
	var st slo.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return slo.Status{}, fmt.Errorf("daemon: decode slo from %s: %w", c.addr, err)
	}
	return st, nil
}

// Explain fetches a decision-provenance explanation from a node serving
// one (georepd -ledger-dir): a JSON-encoded explain.Report for the
// requested epoch (negative = latest recorded), optionally narrowed to
// one object. The raw JSON is returned so the CLI can re-render or
// pass it through untouched.
func (c *Client) Explain(epoch int, objectID string) ([]byte, error) {
	var body view
	err := c.call(MethodExplain, ExplainRequest{Epoch: epoch, ObjectID: objectID}, &body)
	return body, err
}

// Replicate fetches write-log entries past the caller's highest applied
// sequence from a write-log node, decoded and CRC-verified. When the
// response is a snapshot redirect (resp.Snapshot), entries is empty and
// the caller must install resp.SnapSeq/resp.SnapTerm before asking
// again from there.
func (c *Client) Replicate(from uint64, max int) (ReplicateResponse, []replog.Entry, error) {
	var resp ReplicateResponse
	if err := c.call(MethodReplicate, ReplicateRequest{From: from, Max: max}, &resp); err != nil {
		return ReplicateResponse{}, nil, err
	}
	entries, err := replog.DecodeBatch(resp.Frames)
	if err != nil {
		return ReplicateResponse{}, nil, fmt.Errorf("daemon: replicate from %s: %w", c.addr, err)
	}
	return resp, entries, nil
}
