package fleet

import (
	"fmt"
	"sync"

	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

// ServerPool runs N independent backend servers — each a full
// core.Server with its own admission queue and its own client
// sessions — behind one placement policy. The
// paper's deployment has one resource-rich server; the pool is the
// fleet-scale shape, where which backend serves a request matters as
// much as whether one does. Backends are named "s0".."sN-1"; those
// IDs ride the wire-model busy errors and the clients' per-backend
// busy EWMAs.
type ServerPool struct {
	backends []*poolBackend
	ids      []string

	// mu guards every backend's cacheHits: clients retire (release)
	// on their own goroutines.
	mu sync.Mutex
}

// poolBackend is one backend server plus the engine's virtual-time
// admission state for it: the engine decides, in virtual time, which
// requests hold one of the backend's workers, which wait in its
// bounded queue, and which are shed — per backend, so load imbalance
// between backends is visible and placement policies have something
// to optimize.
type poolBackend struct {
	idx int
	id  string
	srv *core.Server
	// clients holds one server-side session slot per fleet client,
	// indexed by client. Slots fill when a client launches (openAt) and
	// empty when it retires (release), so only live clients hold
	// server-side state.
	clients []*core.Session
	// cacheHits sums the serialization-cache hits of the retired
	// sessions (under the pool's mu).
	cacheHits int

	workers  int
	queueCap int

	// Virtual admission state, owned by the engine (under its lock).
	busy  int        // requests holding a worker
	queue []*request // waiting, admission order

	// chaos is the backend's normalized fault injection spec; down
	// flips as its crash/recover events process. loss/lossRNG drive the
	// per-backend Gilbert–Elliott chain — judged in heap order in
	// arrive(), so loss verdicts are deterministic.
	chaos   BackendChaos
	down    bool
	loss    *radio.GilbertElliott
	lossRNG *rng.RNG

	served, shed, maxDepth int
	waitSum                energy.Seconds

	// Chaos outcome counters: flaps counts crash events, chaosLosses
	// exchanges lost to the backend's loss chain (probes included),
	// slowed requests served at the brown-out service rate, and warmups
	// sessions pre-loaded from a dead backend's cache after re-homing.
	flaps, chaosLosses, slowed, warmups int
}

// judgeLoss advances the backend's loss chain one exchange and reports
// whether that exchange is lost. Callers hold the engine lock and call
// in heap order, so the chain's draw sequence is deterministic.
func (b *poolBackend) judgeLoss() bool {
	if b.loss == nil {
		return false
	}
	return b.loss.Judge(b.lossRNG)
}

// NewServerPool builds n backends sharing one program, each shaped by
// cfg (the same worker/queue budget per backend). chaos, when
// non-nil, injects backend i's fault shapes from chaos[i] (crashes,
// flapping, brown-out, loss — see BackendChaos).
func NewServerPool(prog *bytecode.Program, n int, cfg core.SessionConfig, chaos []BackendChaos) *ServerPool {
	if n < 1 {
		n = 1
	}
	cfg = cfg.WithDefaults()
	p := &ServerPool{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		b := &poolBackend{idx: i, id: id, srv: core.NewServer(prog), workers: cfg.Workers, queueCap: cfg.QueueCap}
		if i < len(chaos) {
			b.chaos = chaos[i].normalized(i)
			if b.chaos.LossRate > 0 {
				b.loss = radio.NewGilbertElliott(b.chaos.LossRate, b.chaos.LossBurst)
				b.lossRNG = rng.New(b.chaos.LossSeed)
			}
		}
		p.backends = append(p.backends, b)
		p.ids = append(p.ids, id)
	}
	return p
}

// alloc sizes every backend's client-session table for a cohort of n.
func (p *ServerPool) alloc(n int) {
	for _, b := range p.backends {
		b.clients = make([]*core.Session, n)
	}
}

// openAt creates client i's session on every backend, at launch time.
func (p *ServerPool) openAt(i int) {
	for _, b := range p.backends {
		b.clients[i] = core.NewSession(b.srv)
	}
}

// release retires client i's sessions: each backend adds the session's
// cache hits to its total and empties the slot, so a finished handset
// stops costing memory.
func (p *ServerPool) release(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.backends {
		b.cacheHits += b.clients[i].Stats().CacheHits
		b.clients[i] = nil
	}
}

// sessionStats aggregates one client's server-side counters across
// all backends.
func (p *ServerPool) sessionStats(clientIdx int) core.SessionStats {
	var st core.SessionStats
	for _, b := range p.backends {
		s := b.clients[clientIdx].Stats()
		st.Requests += s.Requests
		st.CacheHits += s.CacheHits
	}
	return st
}

// cacheHits sums the retired sessions' serialization-cache hits
// across all backends.
func (p *ServerPool) cacheHits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, b := range p.backends {
		total += b.cacheHits
	}
	return total
}
