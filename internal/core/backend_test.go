package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/vm"
)

// fakePool is a MultiRemote over two in-process servers with
// scriptable per-backend failures: a down backend loses every exchange
// with an attributed BackendError, and ProbeBackend answers from a
// scriptable probe error — the shape the per-backend breaker and
// failover machinery is specified against.
type fakePool struct {
	ids      []string
	servers  map[string]*Server
	down     map[string]bool
	probeErr map[string]error
	served   map[string]int
}

func newFakePool(p *Server, ids ...string) *fakePool {
	f := &fakePool{
		servers:  map[string]*Server{},
		down:     map[string]bool{},
		probeErr: map[string]error{},
		served:   map[string]int{},
	}
	for _, id := range ids {
		f.ids = append(f.ids, id)
		f.servers[id] = p
	}
	return f
}

func (f *fakePool) Backends() []string { return f.ids }

func (f *fakePool) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, error) {

	res, servTime, queued, _, err := f.ExecuteOn(ctx, f.ids[0], clientID, class, method, argBytes, reqTime, estEnd)
	return res, servTime, queued, err
}

func (f *fakePool) ExecuteOn(ctx context.Context, backend, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, string, error) {

	s, ok := f.servers[backend]
	if !ok {
		return nil, 0, false, "", fmt.Errorf("fakePool: unknown backend %q", backend)
	}
	if f.down[backend] {
		return nil, 0, false, backend, &BackendError{Backend: backend,
			Err: fmt.Errorf("%w: fakePool: backend %s is down", radio.ErrConnectionLost, backend)}
	}
	f.served[backend]++
	res, servTime, queued, err := s.Execute(ctx, clientID, class, method, argBytes, reqTime, estEnd)
	return res, servTime, queued, backend, err
}

func (f *fakePool) ProbeBackend(ctx context.Context, backend string, at energy.Seconds) error {
	return f.probeErr[backend]
}

func (f *fakePool) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	return f.servers[f.ids[0]].CompiledBody(ctx, qname, level)
}

var _ MultiRemote = (*fakePool)(nil)
var _ BackendProber = (*fakePool)(nil)

// newPoolClient wires a client against a two-backend fakePool, tuned
// so a retry is always economically worthwhile (tiny listen windows)
// and a single attributed loss opens a backend breaker.
func newPoolClient(t *testing.T, strategy Strategy) (*Client, *fakePool) {
	t.Helper()
	p := testProgram(t)
	pool := newFakePool(NewServer(p), "a", "b")
	c := New(ClientConfig{ID: "client-1", Prog: p, Server: pool,
		Channel: radio.Fixed{Cls: radio.Class4}, Strategy: strategy, Seed: 7})
	c.Breaker.Threshold = 1
	c.Timeout = 1e-4
	c.RetryBackoff = 1e-4
	pr := newProfiler(p)
	tg := workTarget()
	prof, err := pr.ProfileTarget(tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(tg, prof); err != nil {
		t.Fatal(err)
	}
	return c, pool
}

// homeOf mirrors the client's anti-herding home-backend pick, so the
// test knows which backend the first placement hint names.
func homeOf(c *Client, ids []string) string {
	return ids[int(fnvHash(c.ID)%uint64(len(ids)))]
}

// breakerState reads the named backend's breaker state without
// advancing it: BreakerClosed when the backend never failed.
func breakerState(c *Client, id string) BreakerState {
	if b := c.breakers[id]; b != nil {
		return b.state
	}
	return BreakerClosed
}

// TestBackendBreakerFailover is the tentpole's core path: a loss
// attributed to the home backend opens that backend's breaker only,
// and the in-flight invocation retries onto the surviving backend —
// one failover, no fallback to local.
func TestBackendBreakerFailover(t *testing.T) {
	c, pool := newPoolClient(t, StrategyR)
	home := homeOf(c, pool.ids)
	other := "a"
	if home == "a" {
		other = "b"
	}
	pool.down[home] = true

	res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(600)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.I == 0 {
		t.Error("invocation returned a zero result")
	}
	if c.Stats.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", c.Stats.Failovers)
	}
	if c.Stats.Retries != 1 {
		t.Errorf("Retries = %d, want 1", c.Stats.Retries)
	}
	if c.Stats.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0 — the invocation must fail over remotely, not locally", c.Stats.Fallbacks)
	}
	if got := c.Stats.LinkDownsBy[home]; got != 1 {
		t.Errorf("LinkDownsBy[%s] = %d, want 1", home, got)
	}
	if c.Stats.LinkDowns != 1 {
		// The aggregate counts backend-scoped transitions too; the By map
		// is what tells them apart from a pool-wide outage.
		t.Errorf("LinkDowns = %d, want 1", c.Stats.LinkDowns)
	}
	if c.Breaker.State() != BreakerClosed {
		t.Error("the shared link breaker must stay closed on an attributed loss")
	}
	if got := breakerState(c, home); got != BreakerOpen {
		t.Errorf("home breaker state %v, want open", got)
	}
	if got := breakerState(c, other); got != BreakerClosed {
		t.Errorf("surviving breaker state %v, want closed", got)
	}
	if pool.served[other] == 0 {
		t.Error("surviving backend never served the failover")
	}
	if !c.RemoteAvailable() {
		t.Error("pool must stay available while one backend survives")
	}
}

// TestGlobalBreakerBlindsWholePool is the PR 6 comparison shape: with
// per-backend breakers off, the same single-backend loss strikes the
// shared link breaker, which takes the entire pool off the table — the
// invocation falls back to local instead of failing over.
func TestGlobalBreakerBlindsWholePool(t *testing.T) {
	c, pool := newPoolClient(t, StrategyR)
	c.BackendBreakers = false
	home := homeOf(c, pool.ids)
	pool.down[home] = true

	if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(600)}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if c.Stats.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0 — a global breaker has no surviving backend to re-place on", c.Stats.Failovers)
	}
	if c.Stats.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", c.Stats.Fallbacks)
	}
	if c.Stats.LinkDowns != 1 {
		t.Errorf("LinkDowns = %d, want 1 (link-scoped)", c.Stats.LinkDowns)
	}
	if len(c.Stats.LinkDownsBy) != 0 {
		t.Errorf("LinkDownsBy = %v, want empty in global mode", c.Stats.LinkDownsBy)
	}
	if c.RemoteAvailable() {
		t.Error("the open link breaker must hold the whole pool down")
	}
}

// TestHalfOpenProbeDuringRestart drives a backend breaker through a
// flapping backend's restart window: the half-open probe finds the
// backend still mid-restart (probe error), re-opens the breaker with a
// doubled cooldown, and the pool stays available on the surviving
// backend throughout; once the backend recovers, the next probe closes
// the breaker.
func TestHalfOpenProbeDuringRestart(t *testing.T) {
	c, pool := newPoolClient(t, StrategyR)
	c.Breaker.Cooldown = 0.01
	c.Breaker.MaxCooldown = 0.08
	restarting := errors.New("backend mid-restart")
	pool.probeErr["a"] = restarting

	// Open a's breaker with one attributed loss.
	c.noteRemoteFailureOn("a")
	if got := breakerState(c, "a"); got != BreakerOpen {
		t.Fatalf("breaker state %v after attributed loss, want open", got)
	}
	if got := c.Stats.LinkDownsBy["a"]; got != 1 {
		t.Fatalf("LinkDownsBy[a] = %d, want 1", got)
	}

	// Cooldown elapses while the backend is still mid-restart: the
	// availability check probes, the probe fails, the breaker re-opens.
	c.Clock += 0.02
	if !c.RemoteAvailable() {
		t.Fatal("pool must stay available on backend b during a's restart")
	}
	if c.Stats.Probes != 1 {
		t.Errorf("Probes = %d, want 1 (the half-open probe must be charged)", c.Stats.Probes)
	}
	if got := c.Stats.LinkDownsBy["a"]; got != 2 {
		t.Errorf("LinkDownsBy[a] = %d, want 2 (failed probe re-opens)", got)
	}
	if got := breakerState(c, "a"); got != BreakerOpen {
		t.Errorf("breaker state %v after failed probe, want open", got)
	}

	// Within the doubled cooldown no second probe fires.
	c.Clock += 0.01
	if !c.RemoteAvailable() {
		t.Fatal("pool availability must not regress")
	}
	if c.Stats.Probes != 1 {
		t.Errorf("Probes = %d, want still 1 inside the doubled cooldown", c.Stats.Probes)
	}

	// The backend restarts; the next probe closes the breaker.
	pool.probeErr["a"] = nil
	c.Clock += 0.02
	if !c.RemoteAvailable() {
		t.Fatal("pool must be available after recovery")
	}
	if c.Stats.Probes != 2 {
		t.Errorf("Probes = %d, want 2", c.Stats.Probes)
	}
	if got := breakerState(c, "a"); got != BreakerClosed {
		t.Errorf("breaker state %v after successful probe, want closed", got)
	}
	if got := c.Stats.LinkUpsBy["a"]; got != 1 {
		t.Errorf("LinkUpsBy[a] = %d, want 1", got)
	}
}

// TestCandidatesExcludeOpenBackends pins the placement side of the
// breaker: an open backend is still priced (Open flag) but the
// candidate index and placement hint move to the survivor, and when
// every breaker is open the pick degrades to breaker-blind instead of
// pricing the pool infinite.
func TestCandidatesExcludeOpenBackends(t *testing.T) {
	c, pool := newPoolClient(t, StrategyR)
	home := homeOf(c, pool.ids)
	other := "a"
	if home == "a" {
		other = "b"
	}

	c.noteRemoteFailureOn(home)
	prof := c.profiles[c.Prog.FindMethod("App", "work")]
	cands, ci := c.RemoteCandidates(prof, 600, c.TxPowerEstimate())
	if len(cands) != 2 {
		t.Fatalf("candidates %d, want 2", len(cands))
	}
	if cands[ci].ID != other {
		t.Errorf("cheapest candidate %q, want the survivor %q", cands[ci].ID, other)
	}
	for _, cand := range cands {
		if cand.ID == home && !cand.Open {
			t.Errorf("candidate %q must be marked Open", home)
		}
	}
	if hint := c.placementHint(); hint != other {
		t.Errorf("placement hint %q, want %q", hint, other)
	}

	// Open the survivor too: the hint degrades to breaker-blind.
	c.noteRemoteFailureOn(other)
	if hint := c.placementHint(); hint == "" {
		t.Error("hint must stay non-empty when every breaker is open")
	}
	_, ci = c.RemoteCandidates(prof, 600, c.TxPowerEstimate())
	if ci < 0 || ci > 1 {
		t.Errorf("candidate index %d out of range under all-open degradation", ci)
	}
}
