package core

import (
	"errors"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/vm"
)

// The execution paths the policy's mode selects — interpreted,
// JIT-compiled at a level, or offloaded to the server — plus what they
// share: compiled bodies (through the Client's CacheManager), the
// ambient execution level, compiler-classes loading, and the
// connection-loss fallback. Nothing here decides; the policy does.

// currentLevel is the ambient execution level (0 = interpret).
func (c *Client) currentLevel() jit.Level {
	if len(c.levelStack) == 0 {
		return 0
	}
	return c.levelStack[len(c.levelStack)-1]
}

// dispatch picks the body for any method executed locally: the one
// compiled at the ambient level, when available.
func (c *Client) dispatch(m *bytecode.Method) *isa.Code {
	lv := c.currentLevel()
	if lv == 0 || !c.Cache.isLinked(m, lv) {
		return nil
	}
	return c.Cache.body(m, lv)
}

// planLinked reports whether m's whole plan is linked at the level in
// the current execution.
func (c *Client) planLinked(m *bytecode.Method, lv jit.Level) bool {
	for _, mm := range c.plans[m] {
		if !c.Cache.isLinked(mm, lv) {
			return false
		}
	}
	return true
}

// run executes m in the given mode, falling back to the policy's best
// local mode on connection loss or an admission-control rejection.
func (c *Client) run(mode Mode, m *bytecode.Method, t *Target, size float64, args []vm.Slot) (vm.Slot, bool, error) {
	if mode == ModeRemote {
		res, err := c.remoteWithRetries(m, t, size, args)
		if err == nil {
			return res, false, nil
		}
		if !errors.Is(err, radio.ErrConnectionLost) && !errors.Is(err, ErrServerBusy) {
			return vm.Slot{}, false, err
		}
		local := c.policy.bestLocalMode(c, m, size)
		res, _, err = c.run(local, m, t, size, args)
		return res, true, err
	}
	if mode.IsCompiled() {
		if err := c.ensurePlanCompiled(m, mode.Level()); err != nil {
			return vm.Slot{}, false, err
		}
	}
	c.syncClock()
	start := c.Clock
	key, replayable := c.replayKey(m, mode)
	if replayable && c.replay(m, key) {
		c.syncClock()
		c.emitLocalPhase(m, mode, start)
		return vm.Slot{}, false, nil
	}
	log := c.VM.Placements()
	snap := c.VM.Acct.Snapshot()
	c.levelStack = append(c.levelStack, levelOf(mode))
	res, err := c.VM.Invoke(m, args)
	c.levelStack = c.levelStack[:len(c.levelStack)-1]
	if err != nil {
		return res, false, err
	}
	if replayable {
		c.record(key, log, c.VM.Acct.DeltaSince(snap))
	}
	c.syncClock()
	c.emitLocalPhase(m, mode, start)
	return res, false, nil
}

// emitLocalPhase emits the interpret/native timeline span of one
// local execution, [start, Clock].
func (c *Client) emitLocalPhase(m *bytecode.Method, mode Mode, start energy.Seconds) {
	ph, lv := PhaseInterp, jit.Level(0)
	if mode.IsCompiled() {
		ph, lv = PhaseNative, mode.Level()
	}
	c.Events.Emit(Event{Kind: EvPhase, Phase: ph, Method: m, Mode: mode, Level: lv,
		At: start, Time: c.Clock - start})
}

func levelOf(mode Mode) jit.Level {
	if mode.IsCompiled() {
		return mode.Level()
	}
	return 0
}

// remoteWithRetries drives the offload attempt loop. The breaker is
// consulted first: a Down link costs nothing and fails over locally
// at once. Each lost attempt pays the paper's §3.2 timeout listen;
// retries are attempted only while the retry budget lasts, the
// estimator still prices a retry below the best local mode, and the
// breaker has not opened — and each retry first pays an
// exponentially growing backoff listen window.
func (c *Client) remoteWithRetries(m *bytecode.Method, t *Target, size float64, args []vm.Slot) (vm.Slot, error) {
	if !c.remoteAvailable() {
		return vm.Slot{}, radio.ErrConnectionLost
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = c.Timeout
	}
	ctx := c.invokeCtx()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return vm.Slot{}, err
		}
		res, err := c.remoteExecute(m, t, size, args)
		if err == nil {
			c.noteRemoteSuccessOn(c.lastServed)
			return res, nil
		}
		if errors.Is(err, ErrServerBusy) {
			// The server shed the request at admission: the exchange
			// is over (arguments shipped, busy frame received). No
			// timeout listen, no breaker strike, no retry — the caller
			// falls back locally and the busy estimate raises the
			// price of the next offload. The shed is attributed to the
			// backend named in the busy frame, falling back to the
			// placement hint the request carried.
			backend := c.lastHint
			var busy *BusyError
			if errors.As(err, &busy) && busy.Backend != "" {
				backend = busy.Backend
			}
			c.Clock += c.Link.Control(busyFrameBytes)
			c.noteServerBusyOn(backend)
			c.Events.Emit(Event{Kind: EvShed, Method: m, At: c.Clock, Backend: backend, Radio: c.Link.Telemetry()})
			return vm.Slot{}, err
		}
		if !errors.Is(err, radio.ErrConnectionLost) {
			return vm.Slot{}, err
		}
		// Paper §3.2: when the result is not obtained within the time
		// threshold, connectivity is considered lost. A loss the pool
		// attributed to one backend (BackendError) strikes only that
		// backend's breaker, so the availability check below still sees
		// the surviving backends — and the retry re-places the
		// invocation on one of them (failover) instead of falling
		// straight back to local.
		failed := ""
		var be *BackendError
		if errors.As(err, &be) {
			failed = be.Backend
		}
		c.listen(m, c.Timeout)
		c.noteRemoteFailureOn(failed)
		if attempt >= c.MaxRetries || !c.retryWorthwhile(m, size) || !c.remoteAvailable() || ctx.Err() != nil {
			return vm.Slot{}, err
		}
		// Back off before re-attempting, receiver up (the client keeps
		// listening for the base station), then retry with real
		// transmit energy.
		c.listen(m, backoff)
		backoff *= 2
		c.Events.Emit(Event{Kind: EvRetry, Method: m, At: c.Clock, Radio: c.Link.Telemetry()})
		if failed != "" {
			if hint := c.placementHint(); hint != "" && hint != failed {
				c.Events.Emit(Event{Kind: EvFailover, Method: m, At: c.Clock, From: failed, Backend: hint})
			}
		}
	}
}

// listen charges one receiver-up window and emits its timeline span.
func (c *Client) listen(m *bytecode.Method, d energy.Seconds) {
	start := c.Clock
	c.Link.Listen(d)
	c.Clock += d
	c.Events.Emit(Event{Kind: EvPhase, Phase: PhaseListen, Method: m, At: start, Time: d})
}

// remoteExecute offloads one invocation (Fig 4): serialize arguments,
// transmit, power down for the estimated server time, wake, receive
// and deserialize the result. The whole exchange is one PhaseShip
// timeline span; a lost exchange emits it with FellBack set.
func (c *Client) remoteExecute(m *bytecode.Method, t *Target, size float64, args []vm.Slot) (res vm.Slot, err error) {
	c.syncClock()
	shipStart := c.Clock
	defer func() {
		c.syncClock()
		c.Events.Emit(Event{Kind: EvPhase, Phase: PhaseShip, Method: m, Mode: ModeRemote,
			At: shipStart, Time: c.Clock - shipStart, FellBack: err != nil})
	}()
	prof := c.profiles[m]
	argBytes, err := c.VM.Heap.EncodeArgs(m, args)
	if err != nil {
		return vm.Slot{}, err
	}
	c.VM.ChargeSerialization(len(argBytes))
	c.syncClock()

	tTx, err := c.Link.Send(len(argBytes))
	c.Clock += tTx
	if err != nil {
		return vm.Slot{}, err
	}

	estServ := energy.Seconds(prof.ServerTime.Eval(size))
	if estServ < 0 {
		estServ = 0
	}
	reqTime := c.Clock
	var resBytes []byte
	var servTime energy.Seconds
	c.lastHint, c.lastServed = "", ""
	if mr, ok := c.Server.(MultiRemote); ok {
		// Multi-backend: send the pick-cheapest hint, learn who
		// actually served (the pool's placement policy may override).
		hint := c.placementHint()
		c.lastHint = hint
		var servedBy string
		resBytes, servTime, servedBy, err = mr.ExecuteOn(c.invokeCtx(), hint, c.ID,
			t.Class, t.Method, argBytes, reqTime, reqTime+estServ)
		c.lastServed = servedBy
		if err == nil && servedBy != "" {
			c.Events.Emit(Event{Kind: EvPlace, Method: m, At: reqTime, Backend: servedBy})
		}
	} else {
		resBytes, servTime, err = c.Server.Execute(c.invokeCtx(), c.ID,
			t.Class, t.Method, argBytes, reqTime, reqTime+estServ)
	}
	if err != nil {
		return vm.Slot{}, err
	}

	// Power-down while the server computes: the processor, memory and
	// receiver sleep for the estimated duration, drawing only leakage.
	sleep := estServ
	if servTime < sleep {
		// Server finished early; the result waits in the status table
		// until the client wakes (it still sleeps the full estimate).
	} else if servTime > sleep {
		// Early re-activation penalty: the client wakes before the
		// result is ready and listens with the receiver up.
		c.Link.Listen(servTime - sleep)
	}
	c.VM.Acct.AddLeakage(sleep)
	elapsed := sleep
	if servTime > elapsed {
		elapsed = servTime
	}
	c.Clock += elapsed

	tRx, err := c.Link.Recv(len(resBytes))
	c.Clock += tRx
	if err != nil {
		return vm.Slot{}, err
	}

	c.VM.ChargeSerialization(len(resBytes))
	res, err = c.VM.Heap.DecodeValue(m.Ret.Kind, resBytes)
	if err != nil {
		return vm.Slot{}, err
	}
	c.syncClock()
	return res, nil
}

// ensurePlanCompiled makes every method of m's plan executable at the
// level, compiling locally or — when the policy says so — downloading
// pre-compiled bodies.
func (c *Client) ensurePlanCompiled(m *bytecode.Method, lv jit.Level) error {
	for _, mm := range c.plans[m] {
		if c.Cache.isLinked(mm, lv) {
			continue
		}
		if c.policy.download(c, mm, lv) {
			if err := c.downloadBody(mm, lv); err == nil {
				c.noteRemoteSuccessOn("")
				continue
			} else if errors.Is(err, ErrServerBusy) {
				// The server shed the download; compile locally and
				// raise the busy estimate.
				backend := ""
				var busy *BusyError
				if errors.As(err, &busy) {
					backend = busy.Backend
				}
				c.Clock += c.Link.Control(busyFrameBytes)
				c.noteServerBusyOn(backend)
				c.Events.Emit(Event{Kind: EvShed, Method: mm, Level: lv, At: c.Clock, Backend: backend, Radio: c.Link.Telemetry()})
			} else if !errors.Is(err, radio.ErrConnectionLost) {
				return err
			} else {
				// Connection lost: fall through to local compilation.
				c.noteRemoteFailureOn("")
				c.Events.Emit(Event{Kind: EvFallback, Method: mm, Level: lv, At: c.Clock, Radio: c.Link.Telemetry()})
			}
		}
		if err := c.compileLocally(mm, lv); err != nil {
			return err
		}
	}
	c.syncClock()
	return nil
}

// downloadBody fetches a pre-compiled body from the server. A body
// already fetched in a previous execution is re-downloaded (the fresh
// classloader has no native code), but the simulator reuses the
// artifact.
func (c *Client) downloadBody(mm *bytecode.Method, lv jit.Level) (err error) {
	c.syncClock()
	dlStart := c.Clock
	defer func() {
		c.syncClock()
		c.Events.Emit(Event{Kind: EvPhase, Phase: PhaseDownload, Method: mm, Level: lv,
			At: dlStart, Time: c.Clock - dlStart, FellBack: err != nil})
	}()
	tTx, err := c.Link.Send(64)
	c.Clock += tTx
	if err != nil {
		return err
	}
	code := c.Cache.body(mm, lv)
	size := 0
	if code != nil {
		size = code.SizeBytes()
	} else {
		code, size, err = c.Server.CompiledBody(c.invokeCtx(), mm.QName(), lv)
		if err != nil {
			return err
		}
		c.VM.InstallCode(code)
		c.Cache.install(mm, lv, code)
	}
	tRx, err := c.Link.Recv(size)
	c.Clock += tRx
	if err != nil {
		return err
	}
	// Linking the downloaded code into the VM.
	c.VM.ChargeSerialization(size)
	c.Cache.link(mm, lv)
	c.syncClock()
	c.Events.Emit(Event{Kind: EvRemoteCompile, Method: mm, Level: lv, At: c.Clock})
	return nil
}

// compileLocally runs the JIT on the client, charging its energy (and
// the once-per-execution compiler-classes load). Re-compilations in
// later executions replay the recorded charges without re-running the
// JIT.
func (c *Client) compileLocally(mm *bytecode.Method, lv jit.Level) error {
	c.syncClock()
	start := c.Clock
	if !c.compilerLoaded {
		jit.ChargeCompilerLoad(c.VM.Acct)
		c.compilerLoaded = true
	}
	if d, ok := c.Cache.delta(mm, lv); ok {
		c.VM.Acct.Apply(d)
	} else {
		snap := c.VM.Acct.Snapshot()
		code, st, err := jit.CompileCached(c.Prog, mm, lv)
		if err != nil {
			return err
		}
		st.Charge(c.VM.Acct)
		c.VM.InstallCode(code)
		c.Cache.install(mm, lv, code)
		c.Cache.recordDelta(mm, lv, c.VM.Acct.DeltaSince(snap))
	}
	c.Cache.link(mm, lv)
	c.syncClock()
	c.Events.Emit(Event{Kind: EvPhase, Phase: PhaseCompile, Method: mm, Level: lv,
		At: start, Time: c.Clock - start})
	c.Events.Emit(Event{Kind: EvLocalCompile, Method: mm, Level: lv, At: c.Clock})
	return nil
}
