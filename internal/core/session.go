package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
)

// The session layer multiplexes many clients onto one Server. Each
// client holds a Session with its own serialization cache. Admission
// control — a bounded worker pool plus a bounded waiting queue — sits
// in front of the sessions, so a fleet of handsets contending for
// offload service degrades by shedding requests with a typed busy
// error instead of queueing without bound. The TCP server admits in
// real time (sessionServer below); the fleet simulator admits in
// virtual time (internal/fleet). Clients price the busy error into
// their offload decision (see Client.RemoteEnergy), so an overloaded
// server observably pushes work back to local execution.

// ErrServerBusy is the sentinel for admission-control rejections: the
// server's worker pool and waiting queue were full. Transports wrap it
// (see BusyError), so callers must test with errors.Is. A busy
// rejection is not a connection loss — the link and the connection are
// fine — so it charges no timeout listen, trips no breaker, and is
// never retried within the invocation; the client falls back locally
// and inflates its busy-rate estimate instead.
var ErrServerBusy = errors.New("core: server busy")

// BusyError is the typed admission rejection. QueueDepth is the length
// of the waiting queue at rejection time, so clients (and metrics) can
// see how overloaded the server was; Backend names the rejecting
// backend when the client talks to a pool ("" for a single anonymous
// server), so the client inflates the right busy-rate EWMA. It unwraps
// to ErrServerBusy.
type BusyError struct {
	QueueDepth int
	Backend    string
}

func (e *BusyError) Error() string {
	if e.Backend != "" {
		return fmt.Sprintf("core: server %s busy (queue depth %d)", e.Backend, e.QueueDepth)
	}
	return fmt.Sprintf("core: server busy (queue depth %d)", e.QueueDepth)
}

// Unwrap makes errors.Is(err, ErrServerBusy) hold.
func (e *BusyError) Unwrap() error { return ErrServerBusy }

// SessionConfig shapes a server's admission control.
type SessionConfig struct {
	// Workers bounds concurrently executing requests; 0 means
	// DefaultWorkers.
	Workers int
	// QueueCap bounds requests waiting for a worker across all
	// sessions; a request arriving with the queue full is shed with a
	// BusyError. 0 means DefaultQueueCap; negative means no waiting at
	// all (every request beyond the workers is shed).
	QueueCap int
}

// The admission defaults: a small worker pool, matching the paper's
// single resource-rich server, with a short queue in front of it.
const (
	DefaultWorkers  = 4
	DefaultQueueCap = 16
)

// WithDefaults resolves the zero values to the defaults and a negative
// QueueCap to 0, the queue length every admission policy then uses.
func (cfg SessionConfig) WithDefaults() SessionConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.QueueCap < 0 {
		cfg.QueueCap = 0
	}
	return cfg
}

// sessionServerStats is a snapshot of a sessionServer's admission
// counters.
type sessionServerStats struct {
	// Sessions is the number of sessions the server has opened.
	Sessions int
	// Served counts requests that obtained a worker; Shed counts
	// admission rejections; CacheHits counts requests answered from a
	// session's serialization cache.
	Served    int
	Shed      int
	CacheHits int
	// MaxQueueDepth is the high-water mark of the waiting queue.
	MaxQueueDepth int
}

// sessionServer is the TCP server's real-time admission control in
// front of a Server's sessions. It is safe for concurrent use.
type sessionServer struct {
	srv *Server
	cfg SessionConfig

	mu       sync.Mutex
	nextID   uint32
	sessions map[uint32]*Session
	byClient map[string]uint32

	// Admission state: running counts requests holding a worker;
	// waiters holds the per-session FIFO queues of blocked requests,
	// and rr the round-robin rotation of session IDs with waiters.
	running  int
	waiting  int
	waiters  map[uint32][]chan struct{}
	rr       []uint32
	served   int
	shed     int
	maxDepth int
}

func newSessionServer(s *Server, cfg SessionConfig) *sessionServer {
	return &sessionServer{
		srv:      s,
		cfg:      cfg.WithDefaults(),
		sessions: map[uint32]*Session{},
		byClient: map[string]uint32{},
		waiters:  map[uint32][]chan struct{}{},
	}
}

// open returns the client's session, creating it on first use.
// Sessions are keyed by client ID, so a client that reconnects (the
// TCP transport re-dials after a broken connection) reattaches to its
// session — and keeps its serialization cache — instead of leaking a
// new one per connection.
func (t *sessionServer) open(clientID string) *Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byClient[clientID]; ok {
		return t.sessions[id]
	}
	t.nextID++
	s := NewSession(t.srv)
	s.ID = t.nextID
	t.sessions[s.ID] = s
	t.byClient[clientID] = s.ID
	return s
}

// lookup returns the session with the given ID, or nil.
func (t *sessionServer) lookup(id uint32) *Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions[id]
}

// stats snapshots the admission counters.
func (t *sessionServer) stats() sessionServerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := sessionServerStats{
		Sessions:      len(t.sessions),
		Served:        t.served,
		Shed:          t.shed,
		MaxQueueDepth: t.maxDepth,
	}
	for _, s := range t.sessions {
		st.CacheHits += s.Stats().CacheHits
	}
	return st
}

// execute admits one request for the session, then runs it: a full
// queue sheds the request with a BusyError before any server work
// happens.
func (t *sessionServer) execute(ctx context.Context, sess *Session, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, error) {

	if err := t.acquire(ctx, sess.ID); err != nil {
		return nil, 0, false, err
	}
	defer t.release()
	t.mu.Lock()
	t.served++
	t.mu.Unlock()
	return sess.Execute(ctx, clientID, class, method, argBytes, reqTime, estEnd)
}

// acquire admits one request for the session: it grants a worker
// immediately when one is free and nobody queues ahead, waits in the
// session's FIFO queue otherwise, and sheds with a BusyError when the
// queue is full. Waiting respects ctx.
func (t *sessionServer) acquire(ctx context.Context, sid uint32) error {
	t.mu.Lock()
	if t.running < t.cfg.Workers && t.waiting == 0 {
		t.running++
		t.mu.Unlock()
		return nil
	}
	if t.waiting >= t.cfg.QueueCap {
		depth := t.waiting
		t.shed++
		t.mu.Unlock()
		return &BusyError{QueueDepth: depth}
	}
	ch := make(chan struct{})
	t.waiters[sid] = append(t.waiters[sid], ch)
	if len(t.waiters[sid]) == 1 {
		t.rr = append(t.rr, sid)
	}
	t.waiting++
	if t.waiting > t.maxDepth {
		t.maxDepth = t.waiting
	}
	t.mu.Unlock()

	if ctx == nil {
		<-ch
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		t.mu.Lock()
		q := t.waiters[sid]
		for i, w := range q {
			if w == ch {
				t.waiters[sid] = append(q[:i:i], q[i+1:]...)
				t.waiting--
				if len(t.waiters[sid]) == 0 {
					t.dropRR(sid)
				}
				t.mu.Unlock()
				return ctx.Err()
			}
		}
		// The grant raced the cancellation: the worker was already
		// handed over, so pass it on.
		t.mu.Unlock()
		t.release()
		return ctx.Err()
	}
}

// release returns a worker, handing it round-robin to the next waiting
// session's oldest request (fairness across sessions: one grant per
// session per rotation, however deep its queue).
func (t *sessionServer) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rr) > 0 {
		sid := t.rr[0]
		t.rr = t.rr[1:]
		q := t.waiters[sid]
		ch := q[0]
		if len(q) == 1 {
			delete(t.waiters, sid)
		} else {
			t.waiters[sid] = q[1:]
			t.rr = append(t.rr, sid)
		}
		t.waiting--
		close(ch) // the worker transfers; running is unchanged
		return
	}
	t.running--
}

// dropRR removes sid from the round-robin rotation (its queue emptied
// through cancellation). Callers hold t.mu.
func (t *sessionServer) dropRR(sid uint32) {
	delete(t.waiters, sid)
	for i, id := range t.rr {
		if id == sid {
			t.rr = append(t.rr[:i:i], t.rr[i+1:]...)
			return
		}
	}
}

// Per-session serialization-cache bounds: identical offloads (same
// method, same serialized arguments) are frequent in the workload mix,
// so a small per-session result cache saves the server re-executing
// them; the bounds keep a fleet of sessions from hoarding memory.
const (
	sessionCacheMaxEntries = 64
	sessionCacheMaxBytes   = 1 << 20
)

type cachedResult struct {
	key string
	res []byte
}

// Session is one client's server-side state: its serialization cache
// and its request counters. It implements Remote, so a client can talk
// to its session directly in process.
type Session struct {
	srv *Server
	// ID names the session on the wire (0 outside the TCP server).
	ID uint32

	mu         sync.Mutex
	cache      []cachedResult
	cacheBytes int
	requests   int
	cacheHits  int
}

// NewSession opens a client session on srv, with a cold serialization
// cache.
func NewSession(srv *Server) *Session {
	return &Session{srv: srv}
}

// SessionStats snapshots one session's counters.
type SessionStats struct {
	Requests  int
	CacheHits int
}

// Stats snapshots the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Requests: s.requests, CacheHits: s.cacheHits}
}

// Execute implements Remote: the session cache first, then the
// Server. It applies no admission control; the caller admits the
// request first.
func (s *Session) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, error) {

	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, false, err
		}
	}
	key := class + "\x00" + method + "\x00" + string(argBytes)
	s.mu.Lock()
	s.requests++
	for i := range s.cache {
		if s.cache[i].key == key {
			res := s.cache[i].res
			s.cacheHits++
			s.mu.Unlock()
			// A cache hit skips execution: only the dispatch overhead
			// is spent, and the mobile status table still advances.
			servTime := s.srv.RequestOverhead
			queued := s.srv.noteRequest(clientID, reqTime, estEnd, servTime, res)
			return res, servTime, queued, nil
		}
	}
	s.mu.Unlock()

	res, servTime, queued, err := s.srv.Execute(ctx, clientID, class, method, argBytes, reqTime, estEnd)
	if err != nil {
		return nil, 0, false, err
	}
	s.mu.Lock()
	s.cache = append(s.cache, cachedResult{key: key, res: res})
	s.cacheBytes += len(key) + len(res)
	s.trim()
	s.mu.Unlock()
	return res, servTime, queued, nil
}

// trim evicts the oldest cache entries until the cache is within its
// bounds. Callers hold s.mu.
func (s *Session) trim() {
	for (len(s.cache) > sessionCacheMaxEntries || s.cacheBytes > sessionCacheMaxBytes) && len(s.cache) > 0 {
		old := s.cache[0]
		s.cache = s.cache[1:]
		s.cacheBytes -= len(old.key) + len(old.res)
	}
}

// WarmFrom copies the other session's serialization-cache entries into
// s (skipping keys s already holds), respecting s's cache bounds, and
// returns how many entries were copied. This is placement-aware warmup
// after failover: when a client's home backend dies and its work
// re-homes, the surviving backend pre-loads the client's hot results
// from the dead backend's session so re-homed repeats answer from
// cache instead of re-paying full execution.
func (s *Session) WarmFrom(o *Session) int {
	if o == nil || o == s {
		return 0
	}
	o.mu.Lock()
	entries := append([]cachedResult(nil), o.cache...)
	o.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	have := make(map[string]bool, len(s.cache))
	for i := range s.cache {
		have[s.cache[i].key] = true
	}
	copied := 0
	for _, ent := range entries {
		if have[ent.key] {
			continue
		}
		s.cache = append(s.cache, ent)
		s.cacheBytes += len(ent.key) + len(ent.res)
		have[ent.key] = true
		copied++
	}
	s.trim()
	return copied
}

// CompiledBody implements Remote: body downloads are control-plane
// traffic served from the Server's shared body cache, not subject to
// execution admission.
func (s *Session) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	return s.srv.CompiledBody(ctx, qname, level)
}

var _ Remote = (*Session)(nil)
