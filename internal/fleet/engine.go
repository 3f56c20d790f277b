package fleet

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/obs"
	"greenvm/internal/radio"
)

// The engine is the fleet's virtual-time scheduler: a conservative
// discrete-event simulator over a pool of backend servers. Each
// simulated handset advances its own virtual clock; the engine
// decides, in virtual time, which backend each offload request is
// placed on (the pool's placement policy), which requests obtain one
// of that backend's workers, which wait in its bounded queue, and
// which are shed with a BusyError — the same admission policy
// core.TCPServer applies in real time, per backend.
//
// Determinism is the point, and it is carried by the event heap.
// Client goroutines reach the engine in whatever order the Go
// scheduler produces; every occurrence becomes an event on one
// priority queue ordered by
//
//	(virtual time, kind, tie-break)
//
// where kind orders telemetry tick boundaries before backend failures
// before worker completions before arrivals at the same instant (a
// boundary at t samples window gauges before any time-t mutation, and
// a completion at t frees its worker
// for the arrival at t — a request never overtakes the queue through
// a free slot), and the tie-break is the client index for arrivals (a
// client has at most one outstanding request), the backend index for
// failures, and a dispatch-order sequence number for completions
// (dispatch order is itself deterministic). Every key is unique, so
// the pop order is a pure function of the events — never of insertion
// order.
//
// The heap may only pop while it is safe: a request timestamped t may
// only be admitted once no client still running could produce an
// earlier one. Every client carries a clock lower bound — the
// timestamp of its outstanding request while blocked, the virtual
// time of its last answer while running — and every exchange strictly
// advances a client's clock (each carries at least one frame of
// positive airtime). The engine therefore processes events up to the
// horizon (the minimal bound over running clients), and the placement
// decisions, admission order, queue waits and shed decisions come out
// identical under any goroutine interleaving — one worker slot or
// sixteen.
//
// Fairness needs no extra machinery here: a handset has at most one
// outstanding request (the client blocks on the exchange), so each
// backend's FIFO queue, filled in event order, grants each session at
// most one slot per rotation — the same round-robin core.TCPServer's
// admission implements for pipelined transports.

// Session lifecycle. Sessions are preallocated for the whole cohort
// (flat struct-of-arrays storage — a 100k fleet costs one slice), but
// their client goroutines launch on demand: an unstarted session's
// bound is its arrival time, a conservative lower bound on its first
// request, so the engine can hold the horizon without the client's
// ~hundreds-of-KB core.Client existing yet. The engine launches a
// session when it pins the horizon (an event cannot process until
// this client speaks) or to keep a bounded pipeline of live clients
// ahead of the simulation frontier. Launching earlier than strictly
// necessary never changes results — the preset bound stays valid — it
// only raises peak memory.
const (
	stateUnstarted = iota // preallocated, goroutine not yet launched
	stateLaunching        // goroutine spawned, first submit still pending
	stateRunning
	stateBlocked
	stateFinished
)

// Event kinds, in same-instant processing order. Tick boundaries order
// before everything else so the telemetry gauges sampled at boundary t
// describe the state strictly before any time-t mutation (a window is
// [start, end), so time-t events belong to the next window). Failures
// order before recoveries so a zero-downtime flap is still observed
// down for the instant; recoveries order before completions and
// arrivals so a request arriving exactly at restart time sees the
// backend up.
const (
	evTick    = iota // a telemetry window boundary (tie = the tick count)
	evFail           // a backend goes down (FailAt, or a flap cycle's crash)
	evRecover        // a flapped backend restarts
	evDone           // a worker completes on some backend
	evArrive         // a client's offload request (or breaker probe) arrives
)

// event is one entry on the engine's priority queue.
type event struct {
	t    energy.Seconds
	kind int
	// tie breaks same-(t, kind) events: client index for arrivals,
	// backend index for failures, dispatch sequence for completions.
	tie int
	// req is the arriving request (evArrive) or the completing one
	// (evDone); bidx the backend completing (evDone) or failing
	// (evFail).
	req  *request
	bidx int
}

// eventHeap implements container/heap over the (t, kind, tie) key.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].tie < h[j].tie
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// request is one offload exchange in flight through the engine.
type request struct {
	sess *session
	t    energy.Seconds // the client's virtual send time
	seq  int            // the client's request sequence number
	hint string         // the client's pick-cheapest placement hint

	// probe marks a per-backend breaker probe: hint names the probed
	// backend, and the answer is liveness only — no admission, no
	// worker, no service time.
	probe bool

	clientID      string
	class, method string
	argBytes      []byte
	estEnd        energy.Seconds

	// backend is the placement outcome, set when the arrival event
	// processes.
	backend int

	// The answer, valid once done is closed. servTime includes the
	// virtual queue wait, so the client sleeps through its wait exactly
	// as it would for a slower server; servedBy names the backend that
	// ran the request.
	res      []byte
	servTime energy.Seconds
	servedBy string
	err      error
	done     chan struct{}
}

// session is the engine's view of one handset: its clock bound and
// admission counters. (Server-side per-backend sessions live on the
// pool.)
type session struct {
	idx int // client index; ties in virtual time break on it

	state int
	// bound is a lower bound on the virtual time of the session's next
	// request: the outstanding request's timestamp while blocked, the
	// time of the last answer while running.
	bound energy.Seconds

	reqSeq int // requests submitted so far (the p2c randomness source)

	// home is the backend index that last served this session (-1
	// before the first service) — the warmup key: when service re-homes
	// away from a now-down backend, the new backend pre-loads the
	// session's cache from the dead one.
	home int

	served, shed     int
	waitSum, maxWait energy.Seconds
}

type engine struct {
	mu        sync.Mutex
	pool      *ServerPool
	placement Placement
	byID      map[string]int // backend ID -> index
	ring      []ringPoint    // consistent-hash ring (PlaceHash)
	sessions  []session      // flat per-client state, indexed by client

	// bheap is an indexed min-heap of the session indices whose bounds
	// constrain the horizon (states unstarted/launching/running; a
	// blocked session's wake-up is already an event on the main heap).
	// Bounds only ever increase, so updates are sift-downs. bpos maps a
	// session index to its heap position (-1 when absent). This
	// replaces an O(n) scan per submit — the difference between a 100k
	// fleet finishing and it spending hours inside horizon().
	bheap []int32
	bpos  []int32

	// launchOrder lists session indices by (arrival bound, index);
	// sessions before nextLaunch have been launched. launch spawns one
	// client goroutine; Run installs it before kickoff.
	launchOrder []int32
	nextLaunch  int
	launch      func(idx int)
	live        int // launched and not yet finished
	ahead       int // launch-ahead pipeline bound
	finished    int
	// finishedBound is the largest bound any session finished at: the
	// virtual time up to which finished sessions keep the tick and flap
	// chains going (see reschedules).
	finishedBound energy.Seconds

	events  eventHeap
	doneSeq int // deterministic completion-event tie-break

	served, shed, maxDepth int
	// waitSketch and depthSketch stream the per-served-request queue
	// waits and the queue depths seen by enqueued requests through
	// fixed-size P² sketches (they replaced unbounded []float64 slices
	// — O(1) memory per run regardless of request count). Fed in heap
	// order, so the estimates are deterministic.
	waitSketch, depthSketch *obs.QuantileSketch

	// rec is the windowed virtual-time telemetry recorder; nil when
	// the spec asked for none.
	rec *tsRec
}

// newEngine preallocates one session per client with its arrival time
// as the initial clock bound. order is the launch order — session
// indices sorted by (arrival, index) — shared with the result
// emitter.
func newEngine(pool *ServerPool, placement Placement, starts []energy.Seconds, order []int32, rec *tsRec) *engine {
	n := len(starts)
	e := &engine{
		pool:        pool,
		placement:   placement,
		byID:        make(map[string]int, len(pool.backends)),
		sessions:    make([]session, n),
		bheap:       make([]int32, n),
		bpos:        make([]int32, n),
		launchOrder: order,
		waitSketch:  obs.NewQuantileSketch(),
		depthSketch: obs.NewQuantileSketch(),
		rec:         rec,
	}
	for i := range e.sessions {
		s := &e.sessions[i]
		s.idx = i
		s.home = -1
		s.state = stateUnstarted
		s.bound = starts[i]
	}
	// Heap-order the launch order directly: it is already sorted by
	// (bound, index), which satisfies the heap invariant.
	for i, idx := range order {
		e.bheap[i] = idx
		e.bpos[idx] = int32(i)
	}
	if rec != nil {
		heap.Push(&e.events, event{t: rec.tickAt(1), kind: evTick, tie: 1})
	}
	for i, id := range pool.ids {
		e.byID[id] = i
	}
	if placement == PlaceHash {
		e.ring = buildRing(pool.ids)
	}
	for _, b := range pool.backends {
		switch {
		case b.chaos.FlapAt > 0:
			heap.Push(&e.events, event{t: b.chaos.FlapAt, kind: evFail, tie: b.idx, bidx: b.idx})
		case b.chaos.FailAt > 0:
			heap.Push(&e.events, event{t: b.chaos.FailAt, kind: evFail, tie: b.idx, bidx: b.idx})
		}
	}
	return e
}

// kickoff launches the initial client pipeline. Run calls it once,
// after installing e.launch.
func (e *engine) kickoff() {
	e.mu.Lock()
	e.process()
	e.mu.Unlock()
}

// The bound heap. Comparison is (bound, index); bounds only increase
// over a session's life, so after an in-place update only boundDown
// is needed.

func (e *engine) boundLess(a, b int32) bool {
	sa, sb := &e.sessions[a], &e.sessions[b]
	if sa.bound != sb.bound {
		return sa.bound < sb.bound
	}
	return a < b
}

func (e *engine) boundSwap(i, j int32) {
	h := e.bheap
	h[i], h[j] = h[j], h[i]
	e.bpos[h[i]] = i
	e.bpos[h[j]] = j
}

func (e *engine) boundUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.boundLess(e.bheap[i], e.bheap[parent]) {
			return
		}
		e.boundSwap(i, parent)
		i = parent
	}
}

func (e *engine) boundDown(i int32) {
	n := int32(len(e.bheap))
	for {
		least := i
		if l := 2*i + 1; l < n && e.boundLess(e.bheap[l], e.bheap[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && e.boundLess(e.bheap[r], e.bheap[least]) {
			least = r
		}
		if least == i {
			return
		}
		e.boundSwap(i, least)
		i = least
	}
}

// boundPush re-inserts a session whose bound again constrains the
// horizon (a blocked client waking into stateRunning).
func (e *engine) boundPush(idx int32) {
	i := int32(len(e.bheap))
	e.bheap = append(e.bheap, idx)
	e.bpos[idx] = i
	e.boundUp(i)
}

// boundRemove drops a session from the heap (blocking on a request,
// or finishing).
func (e *engine) boundRemove(idx int32) {
	i := e.bpos[idx]
	if i < 0 {
		return
	}
	last := int32(len(e.bheap) - 1)
	if i != last {
		e.boundSwap(i, last)
	}
	e.bheap = e.bheap[:last]
	e.bpos[idx] = -1
	if i < last {
		e.boundUp(i)
		e.boundDown(i)
	}
}

// maybeLaunch starts client goroutines for unstarted sessions: every
// session whose bound pins the horizon below the next event (the
// event cannot process until that client speaks), plus enough of the
// arrival-ordered queue to keep a bounded pipeline of live clients
// running ahead. Callers hold e.mu.
func (e *engine) maybeLaunch() {
	if e.launch == nil {
		return
	}
	if len(e.events) > 0 {
		t := e.events[0].t
		for e.nextLaunch < len(e.launchOrder) {
			idx := e.launchOrder[e.nextLaunch]
			if e.sessions[idx].bound >= t {
				break
			}
			e.launchOne(idx)
		}
	}
	for e.live < e.ahead && e.nextLaunch < len(e.launchOrder) {
		e.launchOne(e.launchOrder[e.nextLaunch])
	}
}

func (e *engine) launchOne(idx int32) {
	e.sessions[idx].state = stateLaunching
	e.nextLaunch++
	e.live++
	go e.launch(int(idx))
}

// submit hands one request to the engine and blocks until it is
// answered — served after its virtual wait, shed, or failed over. The
// caller must not hold a compute slot (see muxRemote).
func (e *engine) submit(s *session, hint, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, string, error) {

	r := &request{
		sess: s, t: reqTime, hint: hint,
		clientID: clientID, class: class, method: method,
		argBytes: argBytes, estEnd: estEnd,
		backend: -1,
		done:    make(chan struct{}),
	}
	e.mu.Lock()
	s.reqSeq++
	r.seq = s.reqSeq
	e.boundRemove(int32(s.idx))
	s.state = stateBlocked
	s.bound = reqTime
	heap.Push(&e.events, event{t: reqTime, kind: evArrive, tie: s.idx, req: r})
	e.process()
	e.mu.Unlock()
	<-r.done
	return r.res, r.servTime, r.servedBy, r.err
}

// probe asks whether the named backend is up at the given virtual
// time, for a client's half-open breaker probe. The question rides the
// event heap like an arrival (same client-index tie-break — a client
// has at most one outstanding exchange, probe or request), so the
// answer reflects exactly the crashes, recoveries and loss bursts that
// precede it in virtual time, under any goroutine interleaving.
func (e *engine) probe(s *session, backend string, at energy.Seconds) error {
	r := &request{sess: s, t: at, hint: backend, probe: true, backend: -1, done: make(chan struct{})}
	e.mu.Lock()
	e.boundRemove(int32(s.idx))
	s.state = stateBlocked
	s.bound = at
	heap.Push(&e.events, event{t: at, kind: evArrive, tie: s.idx, req: r})
	e.process()
	e.mu.Unlock()
	<-r.done
	return r.err
}

// finish retires a session whose client completed its run (or died):
// its bound no longer constrains the event horizon.
func (e *engine) finish(s *session) {
	e.mu.Lock()
	e.boundRemove(int32(s.idx))
	s.state = stateFinished
	e.finished++
	if s.bound > e.finishedBound {
		e.finishedBound = s.bound
	}
	e.live--
	e.process()
	e.mu.Unlock()
}

// horizon is the earliest virtual time at which an unfinished,
// unblocked client could still submit a request — the root of the
// bound heap. Events at or before it are safe to process (every
// exchange strictly advances a client past its bound, and a blocked
// client's wake-up is itself an event on the main heap).
func (e *engine) horizon() energy.Seconds {
	if len(e.bheap) == 0 {
		return energy.Seconds(math.Inf(1))
	}
	return e.sessions[e.bheap[0]].bound
}

// process drains every event whose virtual time has passed the
// horizon, in heap order, then launches any clients the frontier now
// needs. Callers hold e.mu.
func (e *engine) process() {
	e.drain()
	e.maybeLaunch()
}

func (e *engine) drain() {
	for len(e.events) > 0 {
		if e.events[0].t > e.horizon() {
			return
		}
		ev := heap.Pop(&e.events).(event)
		switch ev.kind {
		case evTick:
			e.rec.boundary(int64(ev.tie), e.pool)
			// The next boundary is tick*(k+1), a product — accumulated
			// tick times would drift and break cross-run byte equality.
			// The chain stops where the sessions' bounds end, like flap
			// rescheduling: the final in-flight tick drains at the end.
			if e.reschedules(ev.t) {
				heap.Push(&e.events, event{t: e.rec.tickAt(int64(ev.tie) + 1), kind: evTick, tie: ev.tie + 1})
			}
		case evFail:
			e.failBackend(ev)
		case evRecover:
			e.pool.backends[ev.bidx].down = false
			if e.rec != nil {
				e.rec.backendUp(ev.t, ev.bidx)
			}
		case evDone:
			e.complete(ev)
		case evArrive:
			e.arrive(ev)
		}
	}
}

// arrive places one request on a backend and runs its admission:
// grant a worker, wait in the backend's queue, or shed. Probe
// requests answer liveness only.
func (e *engine) arrive(ev event) {
	r := ev.req
	if r.probe {
		e.probeArrive(r)
		return
	}
	if e.rec != nil {
		e.rec.arrival(r.t)
	}
	bidx := e.pickBackend(r)
	if bidx < 0 {
		// Every backend is down: the pool is unreachable, which the
		// client handles like any outage (timeout listen, breaker,
		// local fallback).
		r.err = fmt.Errorf("%w: fleet: every backend is down", radio.ErrConnectionLost)
		if e.rec != nil {
			e.rec.unreachable(r.t)
		}
		e.answer(r, r.t)
		return
	}
	r.backend = bidx
	b := e.pool.backends[bidx]
	if b.judgeLoss() {
		// The backend's own loss process ate the exchange; attribute
		// it so the client strikes that backend's breaker only.
		b.chaosLosses++
		r.err = &core.BackendError{Backend: b.id,
			Err: fmt.Errorf("%w: fleet: exchange lost on backend %s", radio.ErrConnectionLost, b.id)}
		if e.rec != nil {
			e.rec.chaosLoss(r.t, bidx)
		}
		e.answer(r, r.t)
		return
	}
	switch {
	case b.busy < b.workers:
		e.start(r, b, r.t)
	case len(b.queue) >= b.queueCap:
		depth := len(b.queue)
		e.shed++
		b.shed++
		r.sess.shed++
		if e.rec != nil {
			e.rec.shed(r.t, bidx)
		}
		r.err = &core.BusyError{QueueDepth: depth, Backend: b.id}
		e.answer(r, r.t)
	default:
		b.queue = append(b.queue, r)
		e.depthSketch.Observe(float64(len(b.queue)))
		if len(b.queue) > b.maxDepth {
			b.maxDepth = len(b.queue)
		}
		if len(b.queue) > e.maxDepth {
			e.maxDepth = len(b.queue)
		}
	}
}

// probeArrive answers a per-backend breaker probe from the backend's
// state at the probe's virtual time: down or mid-loss-burst reads as
// failure. The probe consumes a loss draw like any exchange — a probe
// into a loss burst fails, which is exactly the signal the half-open
// breaker wants.
func (e *engine) probeArrive(r *request) {
	bidx, ok := e.byID[r.hint]
	if !ok {
		r.err = fmt.Errorf("fleet: probe for unknown backend %q", r.hint)
		e.answer(r, r.t)
		return
	}
	b := e.pool.backends[bidx]
	switch {
	case b.down:
		r.err = &core.BackendError{Backend: b.id,
			Err: fmt.Errorf("%w: fleet: backend %s down", radio.ErrConnectionLost, b.id)}
	case b.judgeLoss():
		b.chaosLosses++
		r.err = &core.BackendError{Backend: b.id,
			Err: fmt.Errorf("%w: fleet: probe lost on backend %s", radio.ErrConnectionLost, b.id)}
	}
	e.answer(r, r.t)
}

// complete frees the worker a finished request held and dispatches
// the backend's next waiting request at the completion time.
func (e *engine) complete(ev event) {
	b := e.pool.backends[ev.bidx]
	b.busy--
	if b.down || len(b.queue) == 0 {
		return
	}
	q := b.queue[0]
	b.queue = b.queue[1:]
	e.start(q, b, ev.t)
}

// failBackend takes a backend down at its failure time: every queued
// request is flushed with a connection-lost error attributed to the
// backend (the blocked clients wake into their loss machinery, strike
// that backend's breaker, and re-place on the survivors), running
// requests complete, and placement stops considering the backend. A
// flapping backend also schedules its restart and — while the crash
// falls within the sessions' bounds — its next crash, so the cycle
// cannot outlive the fleet and spin the event loop forever.
func (e *engine) failBackend(ev event) {
	b := e.pool.backends[ev.bidx]
	b.down = true
	b.flaps++
	queued := b.queue
	b.queue = nil
	if e.rec != nil {
		e.rec.backendDown(ev.t, ev.bidx, len(queued))
	}
	for _, q := range queued {
		q.err = &core.BackendError{Backend: b.id,
			Err: fmt.Errorf("%w: fleet: backend %s failed", radio.ErrConnectionLost, b.id)}
		e.answer(q, ev.t)
	}
	if b.chaos.FlapAt > 0 && b.chaos.FlapDown > 0 {
		heap.Push(&e.events, event{t: ev.t + b.chaos.FlapDown, kind: evRecover, tie: b.idx, bidx: b.idx})
		if b.chaos.FlapEvery > 0 && e.reschedules(ev.t) {
			heap.Push(&e.events, event{t: ev.t + b.chaos.FlapEvery, kind: evFail, tie: b.idx, bidx: b.idx})
		}
	}
}

// reschedules reports whether a tick or flap event at virtual time t
// schedules its successor: exactly when t is no later than the largest
// bound any session finishes at. While a session is unfinished that
// always holds, since its final bound is at least every t the horizon
// lets through; once all have finished, finishedBound is that maximum.
// Gating on which session retires last in host time instead would make
// the end of the chains depend on goroutine scheduling.
func (e *engine) reschedules(t energy.Seconds) bool {
	return e.finished < len(e.sessions) || t <= e.finishedBound
}

// start runs one admitted request on a worker of backend b beginning
// at the given virtual time. The server work itself executes here,
// under the engine lock: Server.Execute serializes on its own mutex
// anyway, and running it at dispatch keeps the request's service time
// available for the completion event. Only a backend's first request
// for a given method and input simulates the execution; repeats replay
// the backend's recorded result in microseconds, so the lock is held
// long only while each backend meets its distinct inputs.
func (e *engine) start(q *request, b *poolBackend, at energy.Seconds) {
	wait := at - q.t
	// Placement-aware warmup: when the session's work re-homes away
	// from a backend that is now down, pre-load this backend's session
	// cache from the dead one before serving — re-homed repeats answer
	// from cache instead of re-paying full execution.
	if prev := q.sess.home; prev >= 0 && prev != b.idx && e.pool.backends[prev].down {
		if n := b.clients[q.sess.idx].WarmFrom(e.pool.backends[prev].clients[q.sess.idx]); n > 0 {
			b.warmups++
		}
	}
	q.sess.home = b.idx
	res, servTime, err := b.clients[q.sess.idx].Execute(context.Background(),
		q.clientID, q.class, q.method, q.argBytes, q.t, q.estEnd)
	if err != nil {
		q.err = err
		e.answer(q, at)
		return
	}
	// Brown-out: inside the window the backend serves at a degraded
	// rate, so the same work holds its worker longer.
	if f := b.chaos.BrownoutFactor; f > 1 && at >= b.chaos.BrownoutAt &&
		(b.chaos.BrownoutFor <= 0 || at < b.chaos.BrownoutAt+b.chaos.BrownoutFor) {
		servTime = energy.Seconds(float64(servTime) * f)
		b.slowed++
	}
	b.busy++
	e.served++
	b.served++
	b.waitSum += wait
	q.sess.served++
	q.sess.waitSum += wait
	if wait > q.sess.maxWait {
		q.sess.maxWait = wait
	}
	e.waitSketch.Observe(float64(wait))
	if e.rec != nil {
		e.rec.served(at, b.idx, wait)
	}
	q.res, q.servTime, q.servedBy = res, wait+servTime, b.id
	e.doneSeq++
	heap.Push(&e.events, event{t: at + servTime, kind: evDone, tie: e.doneSeq, req: q, bidx: b.idx})
	e.answer(q, at+servTime)
}

// answer completes a request: the session is running again from the
// given virtual time (its bound re-joins the horizon heap), and the
// blocked client wakes.
func (e *engine) answer(q *request, bound energy.Seconds) {
	q.sess.state = stateRunning
	q.sess.bound = bound
	e.boundPush(int32(q.sess.idx))
	close(q.done)
}

// gate is the compute-slot semaphore bounding how many client
// goroutines simulate concurrently. The admission order never depends
// on it — that is what the determinism test checks.
type gate struct{ ch chan struct{} }

func newGate(n int) *gate { return &gate{ch: make(chan struct{}, n)} }

func (g *gate) acquire() { g.ch <- struct{}{} }
func (g *gate) release() { <-g.ch }

// muxRemote is the Remote each fleet client talks to: a MultiRemote
// over the pool, so the client prices its offload per backend and
// sends its pick-cheapest hint. Offload executions go through the
// engine's virtual-time placement and admission (releasing the
// client's compute slot while blocked, so a single slot cannot
// deadlock the fleet), while body downloads are control-plane traffic
// served directly by backend 0's server.
type muxRemote struct {
	e    *engine
	s    *session
	gate *gate
}

// Backends implements core.MultiRemote.
func (m *muxRemote) Backends() []string { return m.e.pool.ids }

// Execute implements core.Remote (no placement hint).
func (m *muxRemote) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, error) {

	res, servTime, _, err := m.ExecuteOn(ctx, "", clientID, class, method, argBytes, reqTime, estEnd)
	return res, servTime, err
}

// ExecuteOn implements core.MultiRemote: the hint rides to the
// engine, whose placement policy decides.
func (m *muxRemote) ExecuteOn(ctx context.Context, backend, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, string, error) {

	m.gate.release()
	defer m.gate.acquire()
	return m.e.submit(m.s, backend, clientID, class, method, argBytes, reqTime, estEnd)
}

// CompiledBody implements core.Remote, outside admission.
func (m *muxRemote) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	return m.e.pool.backends[0].srv.CompiledBody(ctx, qname, level)
}

// ProbeBackend implements core.MultiRemote: the client's half-open
// per-backend breaker probe, answered from the engine's virtual-time
// state (releasing the compute slot while blocked, like any exchange).
func (m *muxRemote) ProbeBackend(ctx context.Context, backend string, at energy.Seconds) error {
	m.gate.release()
	defer m.gate.acquire()
	return m.e.probe(m.s, backend, at)
}

var _ core.MultiRemote = (*muxRemote)(nil)
