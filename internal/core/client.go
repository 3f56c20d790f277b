package core

import (
	"context"
	"fmt"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// Client is a Java-enabled mobile device: an MJVM plus a wireless link
// to a Server. It is the thin composition root of three layers with
// narrow seams:
//
//   - the Policy decides, per invocation, where and how to execute
//     (and where to compile) — all strategy logic and adaptive state
//     live there;
//   - the Executor runs the decision (interpret, JIT at a level, or
//     offload) and manages compiled bodies through its CacheManager;
//   - the event layer (Events/Stats) is the single stream experiments
//     and tracing consume.
//
// All energy consumed on behalf of the client (computation,
// compilation, communication, power-down leakage) accumulates in
// VM.Acct; Clock tracks virtual wall time.
type Client struct {
	ID       string
	Prog     *bytecode.Program
	VM       *vm.VM
	Model    *energy.CPUModel
	Link     *radio.Link
	Server   Remote
	Strategy Strategy

	// Policy decides execution mode and compilation site; New installs
	// the paper policy for the strategy, and callers may swap in their
	// own before invoking.
	Policy Policy

	// Exec owns the execution paths and the compiled-code cache.
	Exec *Executor

	// Events fans runtime events out to the attached sinks; Stats is
	// the always-attached counter sink.
	Events *Sinks
	Stats  *Stats

	// Timeout is the listen window charged before declaring the
	// connection lost and falling back to local execution.
	Timeout energy.Seconds

	// MaxRetries bounds how often one invocation re-attempts a lost
	// remote exchange before falling back locally; each retry charges
	// a backoff listen window plus the exchange's real energy.
	MaxRetries int
	// RetryBackoff is the initial backoff listen window between
	// retries; it doubles per retry.
	RetryBackoff energy.Seconds

	// Breaker is the link circuit breaker: after consecutive losses
	// the policies stop considering remote options until a half-open
	// probe succeeds. Nil disables it (and per-backend breakers with
	// it). When the client talks to a pool it also serves as the
	// prototype the per-backend breakers clone their tuning from.
	Breaker *Breaker

	// BackendBreakers enables one independent circuit breaker per
	// backend when Server is a MultiRemote: losses attributed to a
	// backend (BackendError) strike only that backend's breaker, and
	// placement hints and remote candidates exclude backends whose
	// breaker is open. Off, every loss strikes the single link breaker
	// — one brown-out backend can blind the client to the whole pool.
	BackendBreakers bool

	// Clock is the client's virtual wall time.
	Clock energy.Seconds

	targets  map[*bytecode.Method]*Target
	profiles map[*bytecode.Method]*Profile
	plans    map[*bytecode.Method][]*bytecode.Method
	inFlight map[*bytecode.Method]bool

	// inputs holds every input this client has executed on, built once
	// and restored by copy at each later RunExecution. entry is the
	// input of the RunExecution in flight (nil outside one), and
	// replays the handset replay memo (see memo.go).
	inputs  map[inputKey]*execInput
	entry   *inputKey
	replays map[runKey]energy.Delta

	lastAcctTime energy.Seconds
	r            *rng.RNG

	// ctx is the context of the in-flight Invoke; the executor's
	// remote path consults it between attempts and hands it to the
	// transport.
	ctx context.Context

	// busyRates holds one EWMA estimate per backend of that backend
	// shedding load (1 = every recent exchange came back busy). A
	// single anonymous server lives under key "". RemoteEnergy
	// inflates the cheapest backend's price by 1/(1-rate), so adaptive
	// policies steer work back to local execution while the pool is
	// overloaded and drift back as successes decay the estimates.
	busyRates map[string]float64

	// lastServed and lastHint record, for the most recent remote
	// exchange, the backend that answered and the placement hint the
	// client sent — the attribution keys for success/busy accounting.
	lastServed string
	lastHint   string

	// breakers holds the per-backend circuit breakers, cloned lazily
	// from the Breaker prototype on the first failure attributed to
	// each backend.
	breakers map[string]*Breaker
}

// EnableTrace attaches (and returns) a Trace sink recording every
// invocation.
func (c *Client) EnableTrace() *Trace {
	t := &Trace{}
	c.Events.Attach(t)
	return t
}

// Register attaches a target and its profile to the client. Methods
// without a registered target always run as the ambient mode dictates.
func (c *Client) Register(t *Target, prof *Profile) error {
	m := c.Prog.FindMethod(t.Class, t.Method)
	if m == nil {
		return fmt.Errorf("core: no method %s", t.QName())
	}
	if !m.Potential {
		return fmt.Errorf("core: %s is not marked potential", t.QName())
	}
	c.targets[m] = t
	c.profiles[m] = prof
	c.plans[m] = compilePlan(c.Prog, m)
	return nil
}

// Energy returns the total energy the client has consumed.
func (c *Client) Energy() energy.Joules { return c.VM.Acct.Total() }

// NewExecution marks an application-execution boundary: classes are
// reloaded, so compiled bodies must be re-linked (their energy is
// charged again) and the compiler classes re-initialized. The policy
// resets its per-execution amortization state; device-level state
// (EWMA predictions, the pilot tracker) persists. RunExecution starts
// every execution this way; callers that drive Invoke themselves call
// it between executions.
func (c *Client) NewExecution() {
	c.Exec.NewExecution()
	c.Policy.NewExecution()
	c.VM.Hier.Flush()
}

// inputKey names one execution input: the entry method, and the size
// and seed the target's MakeArgs builds its arguments from.
type inputKey struct {
	m    *bytecode.Method
	size int
	seed uint64
}

// execInput is a built input: the heap holding it and the argument
// slots that point into that heap.
type execInput struct {
	img  *vm.HeapImage
	args []vm.Slot
}

// RunExecution runs one application execution: the registered target
// t invoked on the input its MakeArgs builds for (size, seed), with the
// result discarded. Every execution starts from one canonical state:
// classes reloaded (NewExecution), a heap holding exactly the input as
// MakeArgs leaves it on an empty heap, a fresh frame stack, and caches
// flushed after the input is in place. Building the input is the
// caller's work, not the handset's: it never reaches the account. The
// client builds each input once and restores it from a vm.HeapImage
// afterwards, so the writes one execution makes cannot leak into the
// next.
// A local run of the entry invocation that repeats one this client
// already ran is replayed from its recorded charges (see memo.go).
// Callers that read results use Invoke, which never replays.
func (c *Client) RunExecution(t *Target, size int, seed uint64) error {
	m := c.Prog.FindMethod(t.Class, t.Method)
	if m == nil || c.targets[m] == nil {
		return fmt.Errorf("core: %s is not registered", t.QName())
	}
	k := inputKey{m: m, size: size, seed: seed}
	in, err := c.input(t, k)
	if err != nil {
		return err
	}
	c.NewExecution()
	c.VM.ResetRun(in.img)
	c.entry = &k
	defer func() { c.entry = nil }()
	_, err = c.VM.Invoke(m, in.args)
	return err
}

// input returns the built input for k, building it on an empty heap
// the first time with the account's charges rolled back.
func (c *Client) input(t *Target, k inputKey) (*execInput, error) {
	if in := c.inputs[k]; in != nil {
		return in, nil
	}
	c.VM.ResetRun(nil)
	acct := c.VM.Acct.Snapshot()
	args, err := t.MakeArgs(c.VM, k.size, rng.New(k.seed))
	*c.VM.Acct = acct
	if err != nil {
		return nil, fmt.Errorf("core: building %s input of size %d: %w", t.QName(), k.size, err)
	}
	in := &execInput{img: c.VM.Heap.Snapshot(), args: args}
	if c.inputs == nil {
		c.inputs = map[inputKey]*execInput{}
	}
	c.inputs[k] = in
	return in, nil
}

// hook intercepts invocations of potential methods (the paper's
// implicit helper-method call).
func (c *Client) hook(m *bytecode.Method, args []vm.Slot) (vm.Slot, bool, error) {
	t := c.targets[m]
	if t == nil || c.inFlight[m] {
		return vm.Slot{}, false, nil
	}
	size, err := t.SizeOf(c.VM, args)
	if err != nil {
		return vm.Slot{}, false, nil
	}
	res, err := c.execute(m, t, size, args)
	return res, true, err
}

// syncClock folds CPU time accumulated in the account into the wall
// clock.
func (c *Client) syncClock() {
	t := c.VM.Acct.Time()
	c.Clock += t - c.lastAcctTime
	c.lastAcctTime = t
}

// Invoke runs a registered potential method with the given arguments
// (already resident in the client VM's heap). ctx cancels the remote
// path of the invocation — a cancelled offload surfaces as the
// context's error instead of falling back locally; nil means
// context.Background().
func (c *Client) Invoke(ctx context.Context, class, method string, args []vm.Slot) (vm.Slot, error) {
	m := c.Prog.FindMethod(class, method)
	if m == nil {
		return vm.Slot{}, fmt.Errorf("core: no method %s.%s", class, method)
	}
	prev := c.ctx
	c.ctx = ctx
	defer func() { c.ctx = prev }()
	return c.VM.Invoke(m, args)
}

// invokeCtx is the context of the in-flight invocation.
func (c *Client) invokeCtx() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// execute asks the policy where and how to run m and has the executor
// do it, emitting one EvInvoke with the measured deltas.
func (c *Client) execute(m *bytecode.Method, t *Target, size float64, args []vm.Slot) (vm.Slot, error) {
	c.inFlight[m] = true
	defer delete(c.inFlight, m)

	c.syncClock()
	eBefore := c.VM.Acct.Total()
	tBefore := c.Clock

	mode := c.decideMode(m, size)
	res, fellBack, err := c.Exec.Run(mode, m, t, size, args)
	if err != nil {
		return vm.Slot{}, err
	}

	c.syncClock()
	if fellBack {
		c.Events.Emit(Event{Kind: EvFallback, Method: m, Mode: mode, At: c.Clock, Radio: c.Link.Telemetry()})
	}
	c.Events.Emit(Event{
		Kind: EvInvoke, Method: m, Mode: mode, Size: size,
		Energy:   c.VM.Acct.Total() - eBefore,
		Time:     c.Clock - tBefore,
		At:       tBefore,
		FellBack: fellBack,
		Radio:    c.Link.Telemetry(),
	})
	return res, nil
}

// decideMode routes one decision through the policy, emitting the
// policy's predicted per-mode costs (when it produced any) as one
// EvEstimate so every adaptive decision is auditable against the
// EvInvoke that follows it.
func (c *Client) decideMode(m *bytecode.Method, size float64) Mode {
	d := c.Policy.Decide(&InvokeContext{Method: m, Prof: c.profiles[m], Size: size, Env: c})
	if d.Est != nil {
		c.Events.Emit(Event{Kind: EvEstimate, Method: m, Mode: d.Mode, Size: size, At: c.Clock, Est: d.Est})
	}
	return d.Mode
}

// SyncStats folds the link's current telemetry into Stats. The event
// stream keeps Stats.Radio fresh as long as events flow, but a
// trailing failed exchange (retries exhausted and the invocation
// itself erroring, so no EvInvoke follows) leaves losses unreported —
// drivers call SyncStats when a run ends.
func (c *Client) SyncStats() { c.Stats.Radio = c.Link.Telemetry() }

// StepChannel advances the channel process (between invocations).
func (c *Client) StepChannel() { c.Link.StepChannel() }

// --- Circuit breaker integration ---

// RemoteAvailable implements PolicyEnv: it reports whether remote
// options may be considered right now. The shared link breaker is
// consulted first (an Open link costs nothing; a HalfOpen one sends a
// charged probe); with per-backend breakers enabled, at least one
// backend must be up too — HalfOpen backend breakers each send their
// own charged probe, so the answer reflects the pool's actual state,
// not a stale verdict.
func (c *Client) RemoteAvailable() bool {
	if !c.linkAvailable() {
		return false
	}
	if c.Breaker == nil || !c.BackendBreakers {
		return true
	}
	ids := c.backendIDs()
	if len(ids) == 0 {
		return true
	}
	up := false
	for _, id := range ids {
		if c.backendAvailable(id) {
			up = true
		}
	}
	return up
}

// linkAvailable consults only the shared link breaker (probing it when
// half-open) — the pool-wide availability gate.
func (c *Client) linkAvailable() bool {
	if c.Breaker == nil {
		return true
	}
	switch c.Breaker.Next(c.Clock) {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		return c.probeLink()
	default:
		return true
	}
}

// backendOpen reports whether the named backend's breaker currently
// holds it down, without probing: Open and cooling down. A HalfOpen
// breaker reads as up here — the probe is paid in backendAvailable
// when availability is actually asked.
func (c *Client) backendOpen(id string) bool {
	b := c.breakers[id]
	return b != nil && b.Next(c.Clock) == BreakerOpen
}

// backendAvailable reports whether the named backend may serve right
// now, running the charged half-open probe when its breaker's cooldown
// has elapsed.
func (c *Client) backendAvailable(id string) bool {
	b := c.breakers[id]
	if b == nil {
		return true
	}
	switch b.Next(c.Clock) {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		return c.probeBackend(id, b)
	default:
		return true
	}
}

// probeLink runs one half-open probe: a small message to the server
// and its echo. Success closes the breaker (EvLinkUp); failure
// re-opens it with a doubled cooldown.
func (c *Client) probeLink() bool {
	n := c.Breaker.ProbeBytes
	if n <= 0 {
		n = 16
	}
	tTx, err := c.Link.Send(n)
	c.Clock += tTx
	if err == nil {
		var tRx energy.Seconds
		tRx, err = c.Link.Recv(n)
		c.Clock += tRx
	}
	c.Events.Emit(Event{Kind: EvProbe, At: c.Clock, FellBack: err != nil, Radio: c.Link.Telemetry()})
	if err != nil {
		c.noteRemoteFailure()
		return false
	}
	c.noteRemoteSuccess()
	return true
}

// probeBackend runs one charged half-open probe against a single
// backend: the radio round trip (same price as a link probe) plus the
// backend liveness question when the pool can answer one
// (BackendProber). Success closes the backend's breaker and counts as
// a link success too — the round trip proved the radio path; failure
// re-opens the backend's breaker with a doubled cooldown and leaves
// the other backends untouched.
func (c *Client) probeBackend(id string, b *Breaker) bool {
	n := b.ProbeBytes
	if n <= 0 {
		n = 16
	}
	tTx, err := c.Link.Send(n)
	c.Clock += tTx
	if err == nil {
		if pr, ok := c.Server.(BackendProber); ok {
			err = pr.ProbeBackend(c.invokeCtx(), id, c.Clock)
		}
	}
	if err == nil {
		var tRx energy.Seconds
		tRx, err = c.Link.Recv(n)
		c.Clock += tRx
	}
	c.Events.Emit(Event{Kind: EvProbe, At: c.Clock, FellBack: err != nil, Backend: id, Radio: c.Link.Telemetry()})
	if err != nil {
		if b.RecordFailure(c.Clock) {
			c.Events.Emit(Event{Kind: EvLinkDown, At: c.Clock, Backend: id, Radio: c.Link.Telemetry()})
		}
		return false
	}
	if b.RecordSuccess() {
		c.Events.Emit(Event{Kind: EvLinkUp, At: c.Clock, Backend: id, Radio: c.Link.Telemetry()})
	}
	if c.Breaker != nil && c.Breaker.RecordSuccess() {
		c.Events.Emit(Event{Kind: EvLinkUp, At: c.Clock, Radio: c.Link.Telemetry()})
	}
	return true
}

// backendBreaker returns the named backend's breaker, cloning one from
// the link-breaker prototype on first use; nil when breakers are off.
func (c *Client) backendBreaker(id string) *Breaker {
	if c.Breaker == nil || id == "" {
		return nil
	}
	b := c.breakers[id]
	if b == nil {
		b = c.Breaker.cloneConfig()
		if c.breakers == nil {
			c.breakers = map[string]*Breaker{}
		}
		c.breakers[id] = b
	}
	return b
}

// BackendBreakerState reports the named backend's breaker state
// (BreakerClosed when it has never failed or breakers are off) without
// advancing it — the observability view.
func (c *Client) BackendBreakerState(id string) BreakerState {
	if b := c.breakers[id]; b != nil {
		return b.State()
	}
	return BreakerClosed
}

// noteRemoteFailure records one lost remote exchange that cannot be
// attributed to a backend: it strikes the shared link breaker.
func (c *Client) noteRemoteFailure() { c.noteRemoteFailureOn("") }

// noteRemoteFailureOn records one lost remote exchange. A loss
// attributed to a backend strikes that backend's breaker only (the
// radio path demonstrably works — the loss verdict came back over it);
// an unattributed loss strikes the shared link breaker. Either breaker
// opening emits EvLinkDown, carrying the backend name when scoped.
func (c *Client) noteRemoteFailureOn(backend string) {
	if backend != "" && c.BackendBreakers {
		if b := c.backendBreaker(backend); b != nil {
			if b.RecordFailure(c.Clock) {
				c.Events.Emit(Event{Kind: EvLinkDown, At: c.Clock, Backend: backend, Radio: c.Link.Telemetry()})
			}
			return
		}
	}
	if c.Breaker == nil {
		return
	}
	if c.Breaker.RecordFailure(c.Clock) {
		c.Events.Emit(Event{Kind: EvLinkDown, At: c.Clock, Radio: c.Link.Telemetry()})
	}
}

// noteRemoteSuccess records one successful remote exchange against an
// anonymous backend: every busy estimate decays, and the breaker
// hears the success (emitting EvLinkUp when it closes a half-open
// breaker). Attributed exchanges go through noteRemoteSuccessOn.
func (c *Client) noteRemoteSuccess() { c.noteRemoteSuccessOn("") }

// noteRemoteSuccessOn records one successful remote exchange with the
// named backend: its busy estimate decays ("" decays all — a probe or
// single-server exchange says nothing about one backend in
// particular), its per-backend breaker hears the success (resetting
// its loss run), and the link breaker hears it too.
func (c *Client) noteRemoteSuccessOn(backend string) {
	if backend == "" {
		for id := range c.busyRates {
			c.busyRates[id] *= busyEWMAWeight
		}
	} else if r, ok := c.busyRates[backend]; ok {
		c.busyRates[backend] = r * busyEWMAWeight
	}
	if backend != "" && c.BackendBreakers {
		if b := c.breakers[backend]; b != nil && b.RecordSuccess() {
			c.Events.Emit(Event{Kind: EvLinkUp, At: c.Clock, Backend: backend, Radio: c.Link.Telemetry()})
		}
	}
	if c.Breaker == nil {
		return
	}
	if c.Breaker.RecordSuccess() {
		c.Events.Emit(Event{Kind: EvLinkUp, At: c.Clock, Radio: c.Link.Telemetry()})
	}
}

// The busy-rate EWMA weight matches the paper's adaptive estimators
// (§3.4 uses 0.7 for size and power); the cap keeps the 1/(1-rate)
// price inflation finite under sustained shedding.
const (
	busyEWMAWeight = 0.7
	busyRateCap    = 0.95
)

// noteServerBusy folds one admission rejection from an anonymous
// backend into the busy-rate estimate. Busy is not a link failure:
// the breaker and loss counters are untouched, only the price of
// future offloads rises.
func (c *Client) noteServerBusy() { c.noteServerBusyOn("") }

// noteServerBusyOn folds one admission rejection from the named
// backend into that backend's busy-rate estimate.
func (c *Client) noteServerBusyOn(backend string) {
	if c.busyRates == nil {
		c.busyRates = map[string]float64{}
	}
	c.busyRates[backend] = busyEWMAWeight*c.busyRates[backend] + (1 - busyEWMAWeight)
}

// busyRateOf is the busy estimate for one backend (0 when never shed
// on).
func (c *Client) busyRateOf(backend string) float64 { return c.busyRates[backend] }

// BusyRate is the busy estimate of the client's cheapest offload
// option: for a single server, its EWMA; across a pool, the minimum —
// the rate the client's next offload is actually priced at.
func (c *Client) BusyRate() float64 {
	ids := c.backendIDs()
	if len(ids) == 0 {
		return c.busyRateOf("")
	}
	min := c.busyRateOf(ids[0])
	for _, id := range ids[1:] {
		if r := c.busyRateOf(id); r < min {
			min = r
		}
	}
	return min
}

// backendIDs lists the backends behind c.Server, nil for a plain
// single Remote. Resolved per call: tests and drivers swap c.Server
// after construction.
func (c *Client) backendIDs() []string {
	if mr, ok := c.Server.(MultiRemote); ok {
		return mr.Backends()
	}
	return nil
}

// placementHint is the client-side pick-cheapest hint the executor
// sends with each offload: the backend with the lowest busy
// inflation. The base offload cost is identical across backends (one
// radio, one channel), so the cheapest candidate is the least-busy
// one — found by the same circular scan from the client's home
// backend as RemoteCandidates, strictly lower wins. Backends whose
// per-backend breaker is open are skipped (unless every backend is
// open, when the scan degrades to the breaker-blind pick). "" when
// c.Server is not a pool.
func (c *Client) placementHint() string {
	ids := c.backendIDs()
	if len(ids) == 0 {
		return ""
	}
	home := int(fnvHash(c.ID) % uint64(len(ids)))
	best := -1
	for off := 0; off < len(ids); off++ {
		i := (home + off) % len(ids)
		if c.BackendBreakers && c.backendOpen(ids[i]) {
			continue
		}
		if best < 0 || c.busyRateOf(ids[i]) < c.busyRateOf(ids[best]) {
			best = i
		}
	}
	if best < 0 {
		best = home
		for off := 1; off < len(ids); off++ {
			i := (home + off) % len(ids)
			if c.busyRateOf(ids[i]) < c.busyRateOf(ids[best]) {
				best = i
			}
		}
	}
	return ids[best]
}

// retryWorthwhile reports whether re-attempting a lost remote
// exchange is still estimated cheaper than the policy's best local
// mode — the executor retries only while the estimator says so.
func (c *Client) retryWorthwhile(m *bytecode.Method, size float64) bool {
	prof := c.profiles[m]
	if prof == nil {
		return false
	}
	ctx := &InvokeContext{Method: m, Prof: prof, Size: size, Env: c}
	local := c.Policy.BestLocalMode(ctx)
	eLocal := prof.EnergyOf[local].Eval(size)
	if local.IsCompiled() {
		eLocal += float64(c.PlanCompileCost(m, prof, local.Level(), false))
	}
	eRemote := float64(c.RemoteEnergy(prof, size, c.TxPowerEstimate()))
	// A retry also risks another timeout listen; count it against the
	// remote side so marginal cases fall back instead of flapping.
	eRemote += float64(energy.Energy(c.Link.Chip.RxPower(), c.Timeout))
	return eRemote < eLocal
}

// --- PolicyEnv: the pricing view policies consult ---

// TxPowerEstimate implements PolicyEnv.
func (c *Client) TxPowerEstimate() float64 {
	return float64(c.Link.Chip.TxPower(c.Link.EstimateClass()))
}

// ChargeDecisionOverhead implements PolicyEnv (the paper notes the
// decision cost is small).
func (c *Client) ChargeDecisionOverhead() {
	c.VM.Acct.AddInstr(energy.ALUSimple, 400)
	c.VM.Acct.AddInstr(energy.Load, 80)
}

// PlanCompileCost implements PolicyEnv: zero when the plan is already
// linked; otherwise the profiled local compile cost (Eo'), or with
// allowDownload the cheaper of local compilation and downloading the
// pre-compiled bodies at the current channel estimate.
func (c *Client) PlanCompileCost(m *bytecode.Method, prof *Profile, lv jit.Level, allowDownload bool) energy.Joules {
	if c.Exec.planLinked(m, lv) {
		return 0
	}
	local := prof.CompileEnergy[lv-1]
	if !c.Exec.CompilerLoaded() {
		local += jit.CompilerLoadEnergy(c.Model)
	}
	if !allowDownload {
		return local
	}
	if remote := c.planDownloadCost(prof, lv); remote < local {
		return remote
	}
	return local
}

// planDownloadCost prices downloading the plan's pre-compiled bodies
// at the current channel estimate.
func (c *Client) planDownloadCost(prof *Profile, lv jit.Level) energy.Joules {
	cls := c.Link.EstimateClass()
	req := 64 // method-name request bytes
	e := c.Link.Chip.TxEnergy(req, cls)
	e += c.Link.Chip.RxEnergy(prof.PlanCodeBytes[lv-1], cls)
	return e
}

// BodyCompileCost implements PolicyEnv: the profiled per-method local
// compile energy (plus a pending compiler load); ok is false for
// unprofiled methods.
func (c *Client) BodyCompileCost(mm *bytecode.Method, lv jit.Level) (energy.Joules, bool) {
	localE := mm.Attr(fmt.Sprintf("compile.energy.%s", lv), -1)
	if localE < 0 {
		return 0, false
	}
	local := energy.Joules(localE)
	if !c.Exec.CompilerLoaded() {
		local += jit.CompilerLoadEnergy(c.Model)
	}
	return local, true
}

// BodyDownloadCost implements PolicyEnv: transmit the method name,
// receive the profiled body size, at the current channel estimate.
func (c *Client) BodyDownloadCost(mm *bytecode.Method, lv jit.Level) (energy.Joules, bool) {
	codeBytes := mm.Attr(fmt.Sprintf("compile.bytes.%s", lv), -1)
	if codeBytes < 0 {
		return 0, false
	}
	cls := c.Link.EstimateClass()
	return c.Link.Chip.TxEnergy(64, cls) + c.Link.Chip.RxEnergy(int(codeBytes), cls), true
}

// RemoteEnergy implements PolicyEnv: E”(m, s, p) — the cheapest
// backend's estimate of transmitting the serialized arguments at
// predicted power p, sleeping (leakage) while the server computes,
// and receiving the result.
func (c *Client) RemoteEnergy(prof *Profile, s, pWatts float64) energy.Joules {
	cands, best := c.RemoteCandidates(prof, s, pWatts)
	return energy.Joules(cands[best].Cost)
}

// RemoteCandidates implements PolicyEnv: one priced remote candidate
// per backend behind c.Server (a single entry with ID "" for a plain
// Remote), plus the index of the cheapest — the client's placement
// hint. The physical-layer base cost is identical across backends
// (one radio, one channel); what separates them is admission-control
// pricing: each backend's estimate inflates by 1/(1-rate) of its own
// busy EWMA, the expected number of shipping attempts before one is
// admitted there.
func (c *Client) RemoteCandidates(prof *Profile, s, pWatts float64) ([]BackendCandidate, int) {
	base := float64(c.remoteEnergyBase(prof, s, pWatts))
	ids := c.backendIDs()
	if len(ids) == 0 {
		r := c.busyRateOf("")
		return []BackendCandidate{{ID: "", Busy: r, Cost: inflateBusy(base, r)}}, 0
	}
	cands := make([]BackendCandidate, len(ids))
	for i, id := range ids {
		r := c.busyRateOf(id)
		cands[i] = BackendCandidate{ID: id, Busy: r, Cost: inflateBusy(base, r),
			Open: c.BackendBreakers && c.backendOpen(id)}
	}
	// The cheapest backend, scanning circularly from the client's home
	// backend (hash of its ID) and moving only on strictly lower cost:
	// a fleet of fresh clients with identical estimates spreads across
	// the pool instead of herding onto backend 0. Backends held down by
	// their breaker are priced (for observability) but not picked —
	// unless every backend is open, when the scan degrades to the
	// breaker-blind pick so the estimate stays finite.
	home := int(fnvHash(c.ID) % uint64(len(ids)))
	best := -1
	for off := 0; off < len(ids); off++ {
		i := (home + off) % len(ids)
		if cands[i].Open {
			continue
		}
		if best < 0 || cands[i].Cost < cands[best].Cost {
			best = i
		}
	}
	if best < 0 {
		best = home
		for off := 1; off < len(ids); off++ {
			i := (home + off) % len(ids)
			if cands[i].Cost < cands[best].Cost {
				best = i
			}
		}
	}
	return cands, best
}

// remoteEnergyBase is the un-inflated offload estimate: pure
// physical-layer and CPU cost, independent of which backend serves.
func (c *Client) remoteEnergyBase(prof *Profile, s, pWatts float64) energy.Joules {
	chip := c.Link.Chip
	txBytes := prof.TxBytes.Eval(s)
	rxBytes := prof.RxBytes.Eval(s)
	if txBytes < 0 {
		txBytes = 0
	}
	if rxBytes < 0 {
		rxBytes = 0
	}
	// Infer the channel class from the predicted transmit power: air
	// time scales with the class's effective rate.
	cls := classForPower(chip, pWatts)
	tTx := float64(chip.AirTime(int(txBytes), cls))
	tRx := float64(chip.AirTime(int(rxBytes), cls))
	e := energy.Joules(pWatts * tTx)
	e += energy.Energy(chip.RxPower(), energy.Seconds(tRx))
	e += energy.Energy(c.Model.LeakagePower(), energy.Seconds(prof.ServerTime.Eval(s)))
	// Serialization/deserialization CPU work.
	words := (txBytes + rxBytes) / 4
	e += energy.Joules(words) * (c.Model.PerInstr[energy.Load] + c.Model.PerInstr[energy.Store] +
		2*c.Model.PerInstr[energy.ALUSimple])
	return e
}

// inflateBusy applies admission-control pricing: a backend shedding
// at rate r costs ~1/(1-r) shipping attempts per admitted offload.
func inflateBusy(base, r float64) float64 {
	if r <= 0 {
		return base
	}
	if r > busyRateCap {
		r = busyRateCap
	}
	return base / (1 - r)
}

// fnvHash is FNV-1a over a string — the stable client-to-home-backend
// spreading hash.
func fnvHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// classForPower returns the power class whose transmit-chain power is
// nearest to p; the adaptive strategies predict future power with an
// EWMA, so the estimate rarely matches a class exactly.
func classForPower(chip *radio.Chipset, p float64) radio.Class {
	best, bestD := radio.Class4, -1.0
	for cls := radio.Class1; cls <= radio.Class4; cls++ {
		d := float64(chip.TxPower(cls)) - p
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = cls, d
		}
	}
	return best
}

// Compile-time check: the Client is the pricing environment policies
// consult.
var _ PolicyEnv = (*Client)(nil)
