package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
)

// TCP transport: the paper validated its prototype on two SPARC
// workstations, one acting as the server and one as the mobile client.
// TCPServer exposes a Server over a real socket and DialServer returns
// a core.Remote that a Client can use in place of the in-process
// server.
// Energy accounting is unchanged — the radio model still prices the
// exchanged byte counts — the transport only moves the execution into
// another process.
//
// Wire format, protocol version 2: each frame is a one-byte protocol
// version, a uint32 big-endian payload length, then the payload. The
// first payload byte is the operation; session IDs are uint32; strings
// are uint16-length-prefixed; times are float64 seconds. A version
// mismatch is rejected at the first frame — the receiver answers with
// a failure frame and closes the connection — because nothing after
// the version byte can be trusted to parse.

// ErrProtocol reports a malformed or unexpected frame.
var ErrProtocol = errors.New("core: protocol error")

// RPCMetrics observes the TCP transport. Both ends accept one —
// TCPServer.Metrics counts served requests, RemoteServer.Metrics
// counts issued ones — so a collector (internal/obs) can export
// request rates, byte volumes, deadline hits and recovered panics
// without the transport importing it. Implementations must be safe
// for concurrent use; a nil metrics field disables collection.
type RPCMetrics interface {
	// ConnOpened and ConnClosed bracket each accepted connection.
	ConnOpened()
	ConnClosed()
	// Request records one completed request: its operation ("exec",
	// "compile", "hello", "unknown"), the frame payload sizes, and
	// whether the response was a failure frame (or, client-side, the
	// trip errored).
	Request(op string, reqBytes, respBytes int, failed bool)
	// PanicRecovered counts handler panics converted to failure frames.
	PanicRecovered()
	// OversizedFrame counts frames refused for exceeding maxFrame.
	OversizedFrame()
	// Reconnect counts client-side re-dials after a broken connection.
	Reconnect()
	// DeadlineHit counts client round trips that missed RPCTimeout.
	DeadlineHit()
}

// nopRPCMetrics lets the transport call metrics unconditionally.
type nopRPCMetrics struct{}

func (nopRPCMetrics) ConnOpened()                    {}
func (nopRPCMetrics) ConnClosed()                    {}
func (nopRPCMetrics) Request(string, int, int, bool) {}
func (nopRPCMetrics) PanicRecovered()                {}
func (nopRPCMetrics) OversizedFrame()                {}
func (nopRPCMetrics) Reconnect()                     {}
func (nopRPCMetrics) DeadlineHit()                   {}

func metricsOrNop(m RPCMetrics) RPCMetrics {
	if m == nil {
		return nopRPCMetrics{}
	}
	return m
}

// opName names a request frame's operation for metric labels.
func opName(req []byte) string {
	if len(req) == 0 {
		return "unknown"
	}
	switch req[0] {
	case opExec:
		return "exec"
	case opCompile:
		return "compile"
	case opHello:
		return "hello"
	default:
		return "unknown"
	}
}

// ErrServerClosed is returned by TCPServer.Serve after Close.
var ErrServerClosed = errors.New("core: server closed")

// protocolVersion is the wire protocol version this build speaks. v1
// had no version byte and no session IDs; v2 prefixes every frame with
// the version, adds the hello handshake, session IDs on exec/compile,
// and the busy status.
const protocolVersion = 2

const (
	opExec    = 1
	opCompile = 2
	// opHello binds the connection's peer to a session: the request
	// carries the client ID, the response the assigned session ID. An
	// empty client ID is a pure version/liveness probe (no session is
	// created; the response carries session ID 0).
	opHello  = 3
	maxFrame = 64 << 20

	statusOK   = 0
	statusFail = 1
	// statusBusy is an admission-control rejection: the response
	// carries the queue depth and decodes into a BusyError. The
	// connection stays usable.
	statusBusy = 2

	// busyFrameBytes is the modelled on-air size of a busy rejection
	// (header plus depth), used by clients to charge its reception.
	busyFrameBytes = 16
)

// FrameSizeError reports a frame larger than the protocol's maxFrame
// limit, on either side of the wire. It unwraps to ErrProtocol.
type FrameSizeError struct {
	Size int64
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("core: frame of %d bytes exceeds the %d-byte limit", e.Size, int64(maxFrame))
}

// Unwrap makes errors.Is(err, ErrProtocol) hold.
func (e *FrameSizeError) Unwrap() error { return ErrProtocol }

// VersionError reports a frame whose protocol version does not match
// this build's. It unwraps to ErrProtocol. The peer that detects the
// mismatch closes the connection after answering: the stream cannot be
// resynchronized across versions.
type VersionError struct {
	Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("core: protocol version mismatch: peer speaks v%d, this build v%d", e.Got, protocolVersion)
}

// Unwrap makes errors.Is(err, ErrProtocol) hold.
func (e *VersionError) Unwrap() error { return ErrProtocol }

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		// Refuse before anything hits the wire: an oversized write
		// would desynchronize the stream for both peers.
		return &FrameSizeError{Size: int64(len(payload))}
	}
	var hdr [5]byte
	hdr[0] = protocolVersion
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != protocolVersion {
		return nil, &VersionError{Got: hdr[0]}
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int64(n) > maxFrame {
		return nil, &FrameSizeError{Size: int64(n)}
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// frame builder / reader helpers.

type wire struct {
	buf []byte
	pos int
	err error
}

func (m *wire) u8(v byte) *wire { m.buf = append(m.buf, v); return m }
func (m *wire) u32(v uint32) *wire {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	m.buf = append(m.buf, b[:]...)
	return m
}
func (m *wire) str(s string) *wire {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	m.buf = append(m.buf, l[:]...)
	m.buf = append(m.buf, s...)
	return m
}
func (m *wire) bytes(b []byte) *wire {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	m.buf = append(m.buf, l[:]...)
	m.buf = append(m.buf, b...)
	return m
}
func (m *wire) f64(v float64) *wire {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	m.buf = append(m.buf, b[:]...)
	return m
}

func (m *wire) fail(what string) {
	if m.err == nil {
		m.err = fmt.Errorf("%w: truncated %s", ErrProtocol, what)
	}
}
func (m *wire) rdU8() byte {
	if m.err != nil || m.pos+1 > len(m.buf) {
		m.fail("u8")
		return 0
	}
	v := m.buf[m.pos]
	m.pos++
	return v
}
func (m *wire) rdU32() uint32 {
	if m.err != nil || m.pos+4 > len(m.buf) {
		m.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(m.buf[m.pos:])
	m.pos += 4
	return v
}
func (m *wire) rdStr() string {
	if m.err != nil || m.pos+2 > len(m.buf) {
		m.fail("string")
		return ""
	}
	n := int(binary.BigEndian.Uint16(m.buf[m.pos:]))
	m.pos += 2
	if m.pos+n > len(m.buf) {
		m.fail("string body")
		return ""
	}
	s := string(m.buf[m.pos : m.pos+n])
	m.pos += n
	return s
}
func (m *wire) rdBytes() []byte {
	if m.err != nil || m.pos+4 > len(m.buf) {
		m.fail("bytes")
		return nil
	}
	n := int(binary.BigEndian.Uint32(m.buf[m.pos:]))
	m.pos += 4
	if n > maxFrame || m.pos+n > len(m.buf) {
		m.fail("bytes body")
		return nil
	}
	b := m.buf[m.pos : m.pos+n]
	m.pos += n
	return b
}
func (m *wire) rdF64() float64 {
	if m.err != nil || m.pos+8 > len(m.buf) {
		m.fail("f64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(m.buf[m.pos:]))
	m.pos += 8
	return v
}

// TCPServer runs a session-multiplexed Server behind one or more
// listeners, with real-time admission control in front of it. Each
// connection is handled on its own goroutine. Close shuts it down
// gracefully: it stops accepting, cancels in-flight handlers
// (including requests waiting in the admission queue), closes every
// live connection, and waits for handlers to drain.
type TCPServer struct {
	s *sessionServer

	// Metrics, when non-nil, observes served connections and requests.
	// Set it before the first Serve call.
	Metrics RPCMetrics

	baseCtx context.Context
	cancel  context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewTCPServer wraps a Server for network serving, its worker pool
// and queue shaped by cfg.
func NewTCPServer(s *Server, cfg SessionConfig) *TCPServer {
	ctx, cancel := context.WithCancel(context.Background())
	return &TCPServer{
		s:         newSessionServer(s, cfg),
		baseCtx:   ctx,
		cancel:    cancel,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}
}

// Serve accepts and dispatches until the listener fails or the server
// is closed; after Close it returns ErrServerClosed.
func (t *TCPServer) Serve(l net.Listener) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrServerClosed
	}
	t.listeners[l] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.listeners, l)
		t.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if t.closing() {
				return ErrServerClosed
			}
			return err
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
			t.mu.Lock()
			delete(t.conns, conn)
			t.mu.Unlock()
		}()
	}
}

func (t *TCPServer) closing() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close shuts the server down: in-flight handlers are cancelled, the
// listeners and every live connection are closed, and Close blocks
// until all handler goroutines return. It is idempotent.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed = true
	t.cancel()
	for l := range t.listeners {
		l.Close()
	}
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

func (t *TCPServer) serveConn(conn net.Conn) {
	met := metricsOrNop(t.Metrics)
	met.ConnOpened()
	defer met.ConnClosed()
	defer conn.Close()
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // peer closed or broken
		}
		if hdr[0] != protocolVersion {
			// Handshake rejection: a peer speaking another version
			// cannot be parsed past this byte. Tell it why, then drop
			// the connection.
			writeFrame(conn, failFrame(&VersionError{Got: hdr[0]})) //nolint:errcheck
			return
		}
		n := int64(binary.BigEndian.Uint32(hdr[1:]))
		if n > maxFrame {
			// Drain the oversized payload and answer with a clean
			// failure frame instead of killing the connection: the
			// stream stays in sync and the peer learns why.
			met.OversizedFrame()
			if _, err := io.CopyN(io.Discard, conn, n); err != nil {
				return
			}
			if err := writeFrame(conn, failFrame(&FrameSizeError{Size: n})); err != nil {
				return
			}
			continue
		}
		req := make([]byte, n)
		if _, err := io.ReadFull(conn, req); err != nil {
			return
		}
		resp := safeHandle(t.baseCtx, req, t.s, met)
		met.Request(opName(req), len(req), len(resp), len(resp) > 0 && resp[0] == statusFail)
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// safeHandle converts a handler panic into a failure frame so one
// poisoned request cannot take the serving goroutine down.
func safeHandle(ctx context.Context, req []byte, s *sessionServer, met RPCMetrics) (resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			met.PanicRecovered()
			resp = failFrame(fmt.Errorf("core: server panic: %v", r))
		}
	}()
	return handle(ctx, req, s)
}

func handle(ctx context.Context, req []byte, s *sessionServer) []byte {
	m := &wire{buf: req}
	op := m.rdU8()
	switch op {
	case opHello:
		clientID := m.rdStr()
		if m.err != nil {
			return failFrame(m.err)
		}
		out := &wire{}
		if clientID == "" {
			// Pure version probe: no session.
			return out.u8(statusOK).u32(0).buf
		}
		return out.u8(statusOK).u32(s.open(clientID).ID).buf
	case opExec:
		sid := m.rdU32()
		clientID := m.rdStr()
		class := m.rdStr()
		method := m.rdStr()
		argBytes := m.rdBytes()
		reqTime := energy.Seconds(m.rdF64())
		estEnd := energy.Seconds(m.rdF64())
		if m.err != nil {
			return failFrame(m.err)
		}
		var sess *Session
		if sid != 0 {
			if sess = s.lookup(sid); sess == nil {
				return failFrame(fmt.Errorf("%w: unknown session %d", ErrProtocol, sid))
			}
		} else {
			// No handshake (or the server restarted under the client):
			// reattach by client ID.
			sess = s.open(clientID)
		}
		res, servTime, queued, err := s.execute(ctx, sess, clientID, class, method, argBytes, reqTime, estEnd)
		if err != nil {
			var busy *BusyError
			if errors.As(err, &busy) {
				out := &wire{}
				return out.u8(statusBusy).u32(uint32(busy.QueueDepth)).buf
			}
			return failFrame(err)
		}
		out := &wire{}
		out.u8(statusOK).bytes(res).f64(float64(servTime))
		if queued {
			out.u8(1)
		} else {
			out.u8(0)
		}
		return out.buf
	case opCompile:
		m.rdU32() // session ID: body downloads are session-independent
		qname := m.rdStr()
		level := m.rdU8()
		if m.err != nil {
			return failFrame(m.err)
		}
		code, size, err := s.srv.CompiledBody(ctx, qname, jit.Level(level))
		if err != nil {
			return failFrame(err)
		}
		out := &wire{}
		out.u8(statusOK).bytes(isa.EncodeCode(code))
		var sz [4]byte
		binary.BigEndian.PutUint32(sz[:], uint32(size))
		out.buf = append(out.buf, sz[:]...)
		return out.buf
	default:
		return failFrame(fmt.Errorf("%w: unknown op %d", ErrProtocol, op))
	}
}

func failFrame(err error) []byte {
	out := &wire{}
	out.u8(statusFail).str(err.Error())
	return out.buf
}

// RemoteServer is a core.Remote backed by a TCP connection to a
// process running a TCPServer. On (re)connection it performs the hello
// handshake, verifying the protocol version and binding the client's
// session; the assigned session ID rides on every subsequent request.
// Transport failures — connection resets, missed deadlines,
// desynchronized streams — are classified as radio.ErrConnectionLost
// so the executor's loss machinery (timeout listen, retries, circuit
// breaker) handles them like any other outage; the broken connection
// is dropped and the next call reconnects (and re-binds its session).
// Server-reported failures (a failure frame) leave the connection open
// and propagate as ordinary errors; admission rejections decode into
// BusyError. A cancelled ctx interrupts a blocked round trip and
// surfaces as the context's error.
type RemoteServer struct {
	addr string

	// RPCTimeout bounds each round trip (request write plus response
	// read); zero disables the deadline.
	RPCTimeout time.Duration
	// DialRetries and DialBackoff shape reconnection: up to
	// DialRetries+1 attempts, sleeping DialBackoff doubled per attempt
	// and capped at one second.
	DialRetries int
	DialBackoff time.Duration

	// Metrics, when non-nil, observes issued requests, reconnects and
	// missed deadlines.
	Metrics RPCMetrics

	mu      sync.Mutex
	conn    net.Conn
	sid     uint32
	boundTo string
}

// DialServer connects to a remote compilation/execution server and
// verifies the protocol version with a hello probe. A *VersionError is
// returned when the peer speaks a different protocol version.
func DialServer(addr string) (*RemoteServer, error) {
	r := &RemoteServer{
		addr:        addr,
		RPCTimeout:  10 * time.Second,
		DialRetries: 2,
		DialBackoff: 50 * time.Millisecond,
	}
	conn, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.conn = conn
	probe := &wire{}
	probe.u8(opHello).str("")
	if _, err := r.roundTrip(nil, probe.buf); err != nil {
		r.Close()
		var ve *VersionError
		if errors.As(err, &ve) {
			return nil, ve
		}
		return nil, err
	}
	return r, nil
}

// dial attempts the connection with capped exponential backoff.
func (r *RemoteServer) dial() (net.Conn, error) {
	backoff := r.DialBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", r.addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if attempt >= r.DialRetries {
			break
		}
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > time.Second {
				backoff = time.Second
			}
		}
	}
	return nil, fmt.Errorf("%w: dial %s: %v", radio.ErrConnectionLost, r.addr, lastErr)
}

// Close shuts the connection.
func (r *RemoteServer) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}

// session returns the session ID bound to clientID, performing the
// hello handshake when the binding is missing or stale (first use, or
// a reconnect after a broken connection).
func (r *RemoteServer) session(ctx context.Context, clientID string) (uint32, error) {
	r.mu.Lock()
	if r.sid != 0 && r.boundTo == clientID {
		sid := r.sid
		r.mu.Unlock()
		return sid, nil
	}
	r.mu.Unlock()
	req := &wire{}
	req.u8(opHello).str(clientID)
	m, err := r.roundTrip(ctx, req.buf)
	if err != nil {
		return 0, err
	}
	sid := m.rdU32()
	if m.err != nil {
		return 0, m.err
	}
	r.mu.Lock()
	r.sid, r.boundTo = sid, clientID
	r.mu.Unlock()
	return sid, nil
}

// roundTrip sends one request frame and reads the response,
// reconnecting first if a previous trip broke the connection. ctx, if
// non-nil, cancels a blocked trip.
func (r *RemoteServer) roundTrip(ctx context.Context, req []byte) (*wire, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	met := metricsOrNop(r.Metrics)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			met.Request(opName(req), len(req), 0, true)
			return nil, err
		}
	}
	if r.conn == nil {
		met.Reconnect()
		conn, err := r.dial()
		if err != nil {
			met.Request(opName(req), len(req), 0, true)
			return nil, err
		}
		r.conn = conn
	}
	if r.RPCTimeout > 0 {
		r.conn.SetDeadline(time.Now().Add(r.RPCTimeout)) //nolint:errcheck
	}
	if ctx != nil {
		// A cancelled ctx yanks the deadline so a blocked read or
		// write returns promptly instead of waiting out RPCTimeout.
		conn := r.conn
		stop := context.AfterFunc(ctx, func() {
			conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck
		})
		defer stop()
		if d, ok := ctx.Deadline(); ok {
			if r.RPCTimeout <= 0 || d.Before(time.Now().Add(r.RPCTimeout)) {
				r.conn.SetDeadline(d) //nolint:errcheck
			}
		}
	}
	if err := writeFrame(r.conn, req); err != nil {
		if errors.Is(err, ErrProtocol) {
			// Oversized request: nothing hit the wire, the connection
			// is still good.
			met.Request(opName(req), len(req), 0, true)
			return nil, err
		}
		met.Request(opName(req), len(req), 0, true)
		return nil, r.lost(ctx, "send", err)
	}
	resp, err := readFrame(r.conn)
	if err != nil {
		met.Request(opName(req), len(req), 0, true)
		var ve *VersionError
		if errors.As(err, &ve) {
			// The peer speaks another protocol version; surface that
			// as-is (retrying cannot help) and drop the connection.
			r.conn.Close()
			r.conn, r.sid = nil, 0
			return nil, ve
		}
		// Either the transport broke or the stream is out of sync
		// (oversized response header); both poison the connection.
		return nil, r.lost(ctx, "receive", err)
	}
	if r.RPCTimeout > 0 {
		r.conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	m := &wire{buf: resp}
	switch m.rdU8() {
	case statusOK:
		met.Request(opName(req), len(req), len(resp), false)
		return m, nil
	case statusBusy:
		depth := int(m.rdU32())
		met.Request(opName(req), len(req), len(resp), true)
		if m.err != nil {
			return nil, r.lost(ctx, "decode", m.err)
		}
		// The server shed the request; the connection stays good.
		return nil, &BusyError{QueueDepth: depth}
	default:
		msg := m.rdStr()
		met.Request(opName(req), len(req), len(resp), true)
		if m.err != nil {
			return nil, r.lost(ctx, "decode", m.err)
		}
		return nil, fmt.Errorf("core: remote server: %s", msg)
	}
}

// lost drops the broken connection (the next call reconnects and
// re-binds the session) and classifies the transport error: a
// cancelled ctx surfaces as the context's error, anything else as a
// connection loss.
func (r *RemoteServer) lost(ctx context.Context, what string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		metricsOrNop(r.Metrics).DeadlineHit()
	}
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.sid = 0
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%s: %w", what, cerr)
		}
	}
	return fmt.Errorf("%w: %s: %v", radio.ErrConnectionLost, what, err)
}

// Execute implements Remote over the wire.
func (r *RemoteServer) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, error) {

	sid, err := r.session(ctx, clientID)
	if err != nil {
		return nil, 0, false, err
	}
	req := &wire{}
	req.u8(opExec).u32(sid).str(clientID).str(class).str(method).bytes(argBytes).
		f64(float64(reqTime)).f64(float64(estEnd))
	m, err := r.roundTrip(ctx, req.buf)
	if err != nil {
		return nil, 0, false, err
	}
	res := append([]byte(nil), m.rdBytes()...)
	servTime := energy.Seconds(m.rdF64())
	queued := m.rdU8() == 1
	if m.err != nil {
		return nil, 0, false, m.err
	}
	return res, servTime, queued, nil
}

// CompiledBody implements Remote over the wire.
func (r *RemoteServer) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	r.mu.Lock()
	sid := r.sid
	r.mu.Unlock()
	req := &wire{}
	req.u8(opCompile).u32(sid).str(qname).u8(byte(level))
	m, err := r.roundTrip(ctx, req.buf)
	if err != nil {
		return nil, 0, err
	}
	enc := m.rdBytes()
	if m.err != nil {
		return nil, 0, m.err
	}
	code, err := isa.DecodeCode(enc)
	if err != nil {
		return nil, 0, err
	}
	if m.pos+4 > len(m.buf) {
		return nil, 0, fmt.Errorf("%w: truncated size", ErrProtocol)
	}
	size := int(binary.BigEndian.Uint32(m.buf[m.pos:]))
	return code, size, nil
}

var _ Remote = (*RemoteServer)(nil)
var _ Remote = (*Server)(nil)
