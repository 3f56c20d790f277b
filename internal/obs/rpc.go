package obs

import (
	"greenvm/internal/core"
)

// RPCCollector implements core.RPCMetrics over a Registry, exporting
// the transport's request rates, byte volumes, deadline hits and
// recovered panics. Attach one to a TCPServer (server side) or a
// RemoteServer (client side); the underlying registry is goroutine
// safe, matching the transport's per-connection concurrency.
type RPCCollector struct {
	reg *Registry

	requests   *Counter
	reqBytes   *Counter
	respBytes  *Counter
	connsTotal *Counter
	connsOpen  *Gauge
	panics     *Counter
	oversized  *Counter
	reconnects *Counter
	deadlines  *Counter
}

// NewRPCCollector builds a collector recording into reg (a fresh
// registry when nil).
func NewRPCCollector(reg *Registry) *RPCCollector {
	if reg == nil {
		reg = NewRegistry()
	}
	return &RPCCollector{
		reg: reg,

		requests:   reg.Counter("rpc_requests_total", "RPC requests by operation and status"),
		reqBytes:   reg.Counter("rpc_request_bytes_total", "request frame payload bytes by operation"),
		respBytes:  reg.Counter("rpc_response_bytes_total", "response frame payload bytes by operation"),
		connsTotal: reg.Counter("rpc_connections_total", "connections accepted"),
		connsOpen:  reg.Gauge("rpc_connections_active", "connections currently open"),
		panics:     reg.Counter("rpc_panics_recovered_total", "handler panics converted to failure frames"),
		oversized:  reg.Counter("rpc_oversized_frames_total", "frames refused for exceeding the size limit"),
		reconnects: reg.Counter("rpc_reconnects_total", "client re-dials after a broken connection"),
		deadlines:  reg.Counter("rpc_deadline_hits_total", "round trips that missed the RPC deadline"),
	}
}

// Registry returns the collector's registry (for snapshotting or
// serving).
func (c *RPCCollector) Registry() *Registry { return c.reg }

// ConnOpened implements core.RPCMetrics.
func (c *RPCCollector) ConnOpened() {
	c.connsTotal.Inc()
	c.connsOpen.Add(1)
}

// ConnClosed implements core.RPCMetrics.
func (c *RPCCollector) ConnClosed() { c.connsOpen.Add(-1) }

// Request implements core.RPCMetrics.
func (c *RPCCollector) Request(op string, reqBytes, respBytes int, status string) {
	c.requests.Inc("op", op, "status", status)
	c.reqBytes.Add(float64(reqBytes), "op", op)
	c.respBytes.Add(float64(respBytes), "op", op)
}

// PanicRecovered implements core.RPCMetrics.
func (c *RPCCollector) PanicRecovered() { c.panics.Inc() }

// OversizedFrame implements core.RPCMetrics.
func (c *RPCCollector) OversizedFrame() { c.oversized.Inc() }

// Reconnect implements core.RPCMetrics.
func (c *RPCCollector) Reconnect() { c.reconnects.Inc() }

// DeadlineHit implements core.RPCMetrics.
func (c *RPCCollector) DeadlineHit() { c.deadlines.Inc() }

var _ core.RPCMetrics = (*RPCCollector)(nil)
