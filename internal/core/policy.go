package core

import (
	"greenvm/internal/bytecode"
	"greenvm/internal/jit"
)

// The policy is the paper's decision rule: per invocation of a
// potential method, decide where to execute (locally or remote) and
// how (interpreted or compiled), and — for adaptive compilation —
// where to obtain compiled bodies. It prices the alternatives through
// the Client's own estimators (channel power, offload energy E'',
// compile and download costs); the Client consults it and never
// branches on the strategy itself.

// policy decides execution mode and compilation site. Implementations
// hold all per-method adaptive state themselves.
type policy interface {
	// decide picks the execution mode for one invocation of m at size
	// parameter size. The estimate, when non-nil, carries the per-mode
	// predicted costs the verdict was ranked on; the Client emits it as
	// one EvEstimate so the auditor can compare prediction with outcome
	// (static policies predict nothing).
	decide(c *Client, m *bytecode.Method, size float64) (Mode, *Estimate)
	// bestLocalMode picks the cheapest local mode; the client uses it
	// when a remote execution is lost and must re-run locally.
	bestLocalMode(c *Client, m *bytecode.Method, size float64) Mode
	// download reports whether the body of mm at the level should be
	// fetched pre-compiled from the server rather than compiled
	// locally (the paper's adaptive compilation, §3.3).
	download(c *Client, mm *bytecode.Method, lv jit.Level) bool
	// newExecution marks an application-execution boundary: fresh
	// class loading resets per-execution amortization; device-level
	// state (EWMA channel and size predictions) persists.
	newExecution()
}

// newPolicy returns the paper's policy for a strategy: fixed-mode for
// the five static strategies, EWMA-amortized adaptive execution for
// AL, plus adaptive compilation for AA.
func newPolicy(s Strategy) policy {
	switch s {
	case StrategyAL:
		return newAdaptivePolicy(false)
	case StrategyAA:
		return newAdaptivePolicy(true)
	default:
		return staticPolicy{mode: s.StaticMode()}
	}
}

// staticPolicy always picks one mode (strategies R, I, L1, L2, L3).
type staticPolicy struct {
	mode Mode
}

func (p staticPolicy) decide(*Client, *bytecode.Method, float64) (Mode, *Estimate) {
	return p.mode, nil
}

// bestLocalMode prices compilation locally.
func (p staticPolicy) bestLocalMode(c *Client, m *bytecode.Method, size float64) Mode {
	return cheapestLocalMode(c, m, size, false)
}

// download is always false: static strategies compile locally.
func (p staticPolicy) download(*Client, *bytecode.Method, jit.Level) bool { return false }

func (p staticPolicy) newExecution() {}

// adaptState is the per-method state of the adaptive policies.
type adaptState struct {
	k    int
	sBar float64
	pBar float64 // predicted transmit-chain power (W)
}

// adaptivePolicy implements the paper's adaptive strategies: an EWMA
// predicts the future size parameter and communication power, and the
// k-amortized energy estimates of interpretation, offloading and each
// compiled level are compared per invocation. With adaptiveCompile it
// also chooses the compilation site (AA); otherwise it always
// compiles locally (AL).
type adaptivePolicy struct {
	// u1 and u2 weight the EWMA prediction of future size parameter
	// and communication power (paper: both 0.7).
	u1, u2 float64
	// adaptiveCompile additionally prices downloading pre-compiled
	// bodies against local compilation.
	adaptiveCompile bool

	state map[*bytecode.Method]*adaptState
}

// newAdaptivePolicy returns an adaptive policy with the paper's EWMA
// weights.
func newAdaptivePolicy(adaptiveCompile bool) *adaptivePolicy {
	return &adaptivePolicy{
		u1:              0.7,
		u2:              0.7,
		adaptiveCompile: adaptiveCompile,
		state:           map[*bytecode.Method]*adaptState{},
	}
}

// decide is the paper's amortized comparison.
func (p *adaptivePolicy) decide(c *Client, m *bytecode.Method, size float64) (Mode, *Estimate) {
	st := p.state[m]
	if st == nil {
		st = &adaptState{}
		p.state[m] = st
	}
	// EWMA prediction of future size and communication power
	// (sk1 = u1*sk-1 + (1-u1)*sk, pk likewise; u1 = u2 = 0.7).
	pNow := c.txPowerEstimate()
	if st.k == 0 {
		st.sBar, st.pBar = size, pNow
	} else {
		st.sBar = p.u1*st.sBar + (1-p.u1)*size
		st.pBar = p.u2*st.pBar + (1-p.u2)*pNow
	}
	st.k++
	k := float64(st.k)

	c.chargeDecisionOverhead()

	// The estimate records the ranked costs per invocation (the
	// amortized totals divided by k), so the auditor can hold them
	// against the measured EvInvoke energy.
	est := &Estimate{K: st.k, PredSize: st.sBar, PredPower: st.pBar}

	prof := c.profiles[m]
	best, bestE := ModeInterp, k*prof.EnergyOf[ModeInterp].Eval(st.sBar)
	est.Cost[ModeInterp] = bestE / k
	est.Considered[ModeInterp] = true
	// A Down link takes the remote option off the table entirely (the
	// circuit breaker's graceful degradation); the half-open probe
	// inside remoteAvailable is what re-admits it.
	if c.remoteAvailable() {
		cost, _ := c.remoteEnergy(prof, st.sBar, st.pBar)
		eR := k * float64(cost)
		est.Cost[ModeRemote] = eR / k
		est.Considered[ModeRemote] = true
		if eR < bestE {
			best, bestE = ModeRemote, eR
		}
	}
	for mode := ModeL1; mode <= ModeL3; mode++ {
		e := k * prof.EnergyOf[mode].Eval(st.sBar)
		e += float64(c.planCompileCost(m, prof, mode.Level(), p.adaptiveCompile))
		est.Cost[mode] = e / k
		est.Considered[mode] = true
		if e < bestE {
			best, bestE = mode, e
		}
	}
	est.Chosen = best
	return best, est
}

func (p *adaptivePolicy) bestLocalMode(c *Client, m *bytecode.Method, size float64) Mode {
	return cheapestLocalMode(c, m, size, p.adaptiveCompile)
}

// download compares the profiled local compile energy with the
// download cost at the current channel estimate (paper §3.3);
// unprofiled bodies compile locally.
func (p *adaptivePolicy) download(c *Client, mm *bytecode.Method, lv jit.Level) bool {
	if !p.adaptiveCompile {
		return false
	}
	if !c.remoteAvailable() {
		return false
	}
	local, ok := c.bodyCompileCost(mm, lv)
	if !ok {
		return false
	}
	remote, ok := c.bodyDownloadCost(mm, lv)
	if !ok {
		return false
	}
	return remote < local
}

// newExecution resets the invocation counts with the fresh execution;
// the EWMA predictions persist (they are device-level state, like the
// pilot-signal tracker).
func (p *adaptivePolicy) newExecution() {
	for _, st := range p.state {
		st.k = 0
	}
}

// cheapestLocalMode picks the cheapest local mode for the fallback
// path, pricing compilation through the client.
func cheapestLocalMode(c *Client, m *bytecode.Method, size float64, allowDownload bool) Mode {
	prof := c.profiles[m]
	if prof == nil {
		return ModeInterp
	}
	best, bestE := ModeInterp, prof.EnergyOf[ModeInterp].Eval(size)
	for mode := ModeL1; mode <= ModeL3; mode++ {
		e := prof.EnergyOf[mode].Eval(size) +
			float64(c.planCompileCost(m, prof, mode.Level(), allowDownload))
		if e < bestE {
			best, bestE = mode, e
		}
	}
	return best
}
