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
// to a Server, making the paper's one decision per invocation of a
// potential method. Its policy (fixed by the strategy) picks the mode
// from the client's own estimators (this file); the client's methods
// run it — interpret, JIT at a level, or offload, with the timeout
// fallback (run.go) — and its CacheManager keeps the LRU code cache.
// Everything that happens goes out as typed events (Events/Stats), the
// single stream experiments and tracing consume.
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

	// Cache holds the compiled bodies; Cache.MaxBytes bounds the native
	// code linked at once.
	Cache *CacheManager

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
	// input of the RunExecution in flight (nil outside one), replays
	// the client's own handset replay memo, and shared the replay tier
	// behind it, nil unless attached (see memo.go).
	inputs  map[inputKey]*execInput
	entry   *inputKey
	replays map[runKey]energy.Delta
	shared  *SharedMemo

	lastAcctTime energy.Seconds
	r            *rng.RNG

	// policy decides execution mode and compilation site (newPolicy
	// for the strategy).
	policy policy

	// levelStack holds the ambient execution level of each local run in
	// flight (0 = interpret); compilerLoaded reports whether the
	// compiler classes are loaded in the current execution (their load
	// energy is charged once per execution that compiles locally).
	levelStack     []jit.Level
	compilerLoaded bool

	// ctx is the context of the in-flight Invoke; the remote path
	// consults it between attempts and hands it to the transport.
	ctx context.Context

	// busyRates holds one EWMA estimate per backend of that backend
	// shedding load (1 = every recent exchange came back busy). A
	// single anonymous server lives under key "". remoteEnergy
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
// charged again; the artifacts and their recorded charges survive) and
// the compiler classes re-initialized. The policy resets its
// per-execution amortization state; device-level state (EWMA
// predictions, the pilot tracker) persists. RunExecution starts every
// execution this way; callers that drive Invoke themselves call it
// between executions.
func (c *Client) NewExecution() {
	c.Cache.unlinkAll()
	c.compilerLoaded = false
	c.policy.newExecution()
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

// execute asks the policy where and how to run m and runs it, emitting
// one EvInvoke with the measured deltas.
func (c *Client) execute(m *bytecode.Method, t *Target, size float64, args []vm.Slot) (vm.Slot, error) {
	c.inFlight[m] = true
	defer delete(c.inFlight, m)

	c.syncClock()
	eBefore := c.VM.Acct.Total()
	tBefore := c.Clock

	mode := c.decideMode(m, size)
	res, fellBack, err := c.run(mode, m, t, size, args)
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
	mode, est := c.policy.decide(c, m, size)
	if est != nil {
		c.Events.Emit(Event{Kind: EvEstimate, Method: m, Mode: mode, Size: size, At: c.Clock, Est: est})
	}
	return mode
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

// remoteAvailable reports whether remote options (offloading, body
// download) may be considered right now. The shared link breaker is
// consulted first (an Open link costs nothing; a HalfOpen one sends a
// charged probe); with per-backend breakers enabled, at least one
// backend must be up too — HalfOpen backend breakers each send their
// own charged probe, so the answer reflects the pool's actual state,
// not a stale verdict.
func (c *Client) remoteAvailable() bool {
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

// probe runs one charged half-open probe round trip: n bytes out, the
// pool's liveness answer for backend id (a link probe, id "", asks
// none), and the echo back. It emits EvProbe and reports the outcome.
func (c *Client) probe(n int, id string) error {
	if n <= 0 {
		n = 16
	}
	tTx, err := c.Link.Send(n)
	c.Clock += tTx
	if err == nil && id != "" {
		err = c.Server.(MultiRemote).ProbeBackend(c.invokeCtx(), id, c.Clock)
	}
	if err == nil {
		var tRx energy.Seconds
		tRx, err = c.Link.Recv(n)
		c.Clock += tRx
	}
	c.Events.Emit(Event{Kind: EvProbe, At: c.Clock, FellBack: err != nil, Backend: id, Radio: c.Link.Telemetry()})
	return err
}

// probeLink probes the half-open link breaker. Success closes it
// (EvLinkUp) and decays every busy estimate; failure re-opens it with
// a doubled cooldown.
func (c *Client) probeLink() bool {
	if c.probe(c.Breaker.ProbeBytes, "") != nil {
		c.noteRemoteFailureOn("")
		return false
	}
	c.noteRemoteSuccessOn("")
	return true
}

// probeBackend probes one backend's half-open breaker (same radio price
// as a link probe). Success closes the backend's breaker and counts as
// a link success too — the round trip proved the radio path; failure
// re-opens the backend's breaker with a doubled cooldown and leaves the
// other backends untouched.
func (c *Client) probeBackend(id string, b *Breaker) bool {
	if c.probe(b.ProbeBytes, id) != nil {
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

// noteRemoteSuccessOn records one successful remote exchange with the
// named backend: its busy estimate decays ("" decays all — a link
// probe, a body download or a single-server exchange says nothing
// about one backend in particular), its per-backend breaker hears the
// success (resetting its loss run), and the link breaker hears it too
// (emitting EvLinkUp when that closes a half-open breaker).
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

// noteServerBusyOn folds one admission rejection from the named
// backend ("" for a single anonymous server) into that backend's
// busy-rate estimate. Busy is not a link failure: the breaker and loss
// counters are untouched, only the price of future offloads rises.
func (c *Client) noteServerBusyOn(backend string) {
	if c.busyRates == nil {
		c.busyRates = map[string]float64{}
	}
	c.busyRates[backend] = busyEWMAWeight*c.busyRates[backend] + (1 - busyEWMAWeight)
}

// busyRateOf is the busy estimate for one backend (0 when never shed
// on).
func (c *Client) busyRateOf(backend string) float64 { return c.busyRates[backend] }

// backendIDs lists the backends behind c.Server, nil for a plain
// single Remote. Resolved per call: tests and drivers swap c.Server
// after construction.
func (c *Client) backendIDs() []string {
	if mr, ok := c.Server.(MultiRemote); ok {
		return mr.Backends()
	}
	return nil
}

// placementHint is the client-side pick-cheapest hint sent with each
// offload: the backend with the lowest busy rate. The base offload cost
// is identical across backends (one radio, one channel), so the
// least-busy backend is the cheapest one — up to the busy-rate cap:
// past it, remoteEnergy prices backends alike while the hint still
// tells them apart by rate. "" when c.Server is not a pool.
func (c *Client) placementHint() string {
	ids := c.backendIDs()
	if len(ids) == 0 {
		return ""
	}
	return ids[c.pickBackend(ids, c.busyRateOf)]
}

// pickBackend returns the index of the backend with the lowest key,
// scanning circularly from the client's home backend (hash of its ID)
// and moving only on a strictly lower key: a fleet of fresh clients
// with identical estimates spreads across the pool instead of herding
// onto backend 0. Backends whose per-backend breaker holds them open
// are skipped — unless every backend is open, when the scan degrades
// to the breaker-blind pick so the estimate stays finite.
func (c *Client) pickBackend(ids []string, key func(id string) float64) int {
	home := int(fnvHash(c.ID) % uint64(len(ids)))
	best := -1
	for off := 0; off < len(ids); off++ {
		i := (home + off) % len(ids)
		if c.BackendBreakers && c.backendOpen(ids[i]) {
			continue
		}
		if best < 0 || key(ids[i]) < key(ids[best]) {
			best = i
		}
	}
	if best < 0 {
		best = home
		for off := 1; off < len(ids); off++ {
			i := (home + off) % len(ids)
			if key(ids[i]) < key(ids[best]) {
				best = i
			}
		}
	}
	return best
}

// retryWorthwhile reports whether re-attempting a lost remote
// exchange is still estimated cheaper than the policy's best local
// mode — the client retries only while the estimator says so.
func (c *Client) retryWorthwhile(m *bytecode.Method, size float64) bool {
	prof := c.profiles[m]
	if prof == nil {
		return false
	}
	local := c.policy.bestLocalMode(c, m, size)
	eLocal := prof.EnergyOf[local].Eval(size)
	if local.IsCompiled() {
		eLocal += float64(c.planCompileCost(m, prof, local.Level(), false))
	}
	eRemote, _ := c.remoteEnergy(prof, size, c.txPowerEstimate())
	// A retry also risks another timeout listen; count it against the
	// remote side so marginal cases fall back instead of flapping.
	eRemote += energy.Energy(c.Link.Chip.RxPower(), c.Timeout)
	return float64(eRemote) < eLocal
}

// --- Estimators: the prices the policy compares ---

// txPowerEstimate is the transmit-chain power (W) at the current
// channel estimate.
func (c *Client) txPowerEstimate() float64 {
	return float64(c.Link.Chip.TxPower(c.Link.EstimateClass()))
}

// chargeDecisionOverhead bills the decision computation itself to the
// client (the paper notes it is small).
func (c *Client) chargeDecisionOverhead() {
	c.VM.Acct.AddInstr(energy.ALUSimple, 400)
	c.VM.Acct.AddInstr(energy.Load, 80)
}

// planCompileCost estimates making m's whole compilation plan
// executable at the level: zero when already linked; otherwise the
// profiled local compile cost (Eo', plus the once-per-execution
// compiler-classes load) or, with allowDownload, the cheaper of that
// and downloading the pre-compiled bodies at the current channel
// estimate.
func (c *Client) planCompileCost(m *bytecode.Method, prof *Profile, lv jit.Level, allowDownload bool) energy.Joules {
	if c.planLinked(m, lv) {
		return 0
	}
	local := prof.CompileEnergy[lv-1]
	if !c.compilerLoaded {
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

// bodyCompileCost is the profiled energy to compile one method body
// locally (plus a pending compiler load); ok is false when the method
// was never profiled.
func (c *Client) bodyCompileCost(mm *bytecode.Method, lv jit.Level) (e energy.Joules, ok bool) {
	localE := mm.Attr(fmt.Sprintf("compile.energy.%s", lv), -1)
	if localE < 0 {
		return 0, false
	}
	local := energy.Joules(localE)
	if !c.compilerLoaded {
		local += jit.CompilerLoadEnergy(c.Model)
	}
	return local, true
}

// bodyDownloadCost prices downloading one pre-compiled body —
// transmit the method name, receive the profiled body size — at the
// current channel estimate; ok is false when the body's size was never
// profiled.
func (c *Client) bodyDownloadCost(mm *bytecode.Method, lv jit.Level) (e energy.Joules, ok bool) {
	codeBytes := mm.Attr(fmt.Sprintf("compile.bytes.%s", lv), -1)
	if codeBytes < 0 {
		return 0, false
	}
	cls := c.Link.EstimateClass()
	return c.Link.Chip.TxEnergy(64, cls) + c.Link.Chip.RxEnergy(int(codeBytes), cls), true
}

// remoteEnergy is E”(m, s, p): the estimated energy to offload one
// invocation of size s at predicted transmit power p — transmitting the
// serialized arguments, sleeping (leakage) while the server computes,
// and receiving the result — on the cheapest backend behind c.Server,
// whose ID it returns too ("" for a plain Remote). The physical-layer
// base cost is identical across backends (one radio, one channel);
// what separates them is admission-control pricing: each backend's
// estimate inflates by 1/(1-rate) of its own busy EWMA, the expected
// number of shipping attempts before one is admitted there.
func (c *Client) remoteEnergy(prof *Profile, s, pWatts float64) (energy.Joules, string) {
	base := float64(c.remoteEnergyBase(prof, s, pWatts))
	cost := func(id string) float64 { return inflateBusy(base, c.busyRateOf(id)) }
	id := ""
	if ids := c.backendIDs(); len(ids) > 0 {
		id = ids[c.pickBackend(ids, cost)]
	}
	return energy.Joules(cost(id)), id
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
