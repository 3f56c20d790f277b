package core

import (
	"fmt"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
)

// The event layer is the client's single observability stream: every
// interesting runtime occurrence (an invocation decided and executed,
// a fallback, a compilation, a code-cache eviction, a memo replay) is
// emitted as one typed Event to the attached sinks. Experiments,
// tracing and metrics all consume this stream instead of reaching
// into scattered counters.

// EventKind discriminates the events a client emits.
type EventKind int

// The event kinds.
const (
	// EvInvoke is one completed potential-method invocation: the
	// decided mode plus its measured energy/time deltas.
	EvInvoke EventKind = iota
	// EvFallback is a connection loss that forced local execution (or,
	// during adaptive compilation, a local compile instead of a
	// download).
	EvFallback
	// EvLocalCompile is one method body compiled by the client's JIT.
	EvLocalCompile
	// EvRemoteCompile is one pre-compiled body downloaded from the
	// server.
	EvRemoteCompile
	// EvEvict is one body unlinked by the code cache's LRU policy.
	EvEvict
	// EvMemoHit is one local run of an execution's entry invocation
	// replayed from the client's own memo instead of re-simulated. A
	// replay from a shared memo emits none (see memo.go).
	EvMemoHit
	// EvRetry is one re-attempted remote exchange after a loss (its
	// backoff listen is already charged when it is emitted).
	EvRetry
	// EvProbe is one half-open circuit-breaker probe; FellBack is
	// false when the probe succeeded.
	EvProbe
	// EvLinkDown is the circuit breaker opening after consecutive
	// losses: remote options are off the table until a probe succeeds.
	EvLinkDown
	// EvLinkUp is the circuit breaker closing after a successful
	// half-open probe.
	EvLinkUp
	// EvEstimate is one adaptive decision: the policy's per-mode
	// predicted energies at decision time, carried in Est. Emitted
	// immediately before the EvInvoke it predicts, so estimate and
	// outcome pair 1:1 per method.
	EvEstimate
	// EvPhase is one span of the simulated-clock execution timeline
	// (interpret, native run, ship, listen, download, compile): At is
	// the span's start, Time its duration.
	EvPhase
	// EvShed is one remote exchange the server rejected with a busy
	// error (its admission queue was full). The client has already
	// received the busy frame when it is emitted; the invocation falls
	// back to local execution and the busy-rate estimate inflates
	// future remote prices. Backend names the shedding backend when
	// the client talks to a pool.
	EvShed
	// EvPlace is one multi-backend placement outcome: Backend names
	// the backend that served the exchange. Emitted only when the
	// client's Server is a pool — single-server streams are unchanged.
	EvPlace
	// EvFailover is one in-flight invocation re-placed onto a surviving
	// backend after a loss attributed to another: From names the backend
	// the exchange was lost on, Backend the one the retry is hinted at.
	// Emitted after the EvRetry that pays the backoff, so failover work
	// stays inside the invocation's existing retry budget.
	EvFailover
)

// Phase identifies one span kind of the execution timeline.
type Phase int

// The timeline phases.
const (
	// PhaseInterp is a local interpreted execution of the potential
	// method (its callees run interpreted too).
	PhaseInterp Phase = iota
	// PhaseNative is a local execution with the plan compiled at a
	// level (Event.Level carries it).
	PhaseNative
	// PhaseShip is one offload exchange: serialize, transmit, sleep
	// while the server computes, receive, deserialize. FellBack marks
	// an exchange that was lost mid-flight.
	PhaseShip
	// PhaseListen is a receiver-up wait: the §3.2 timeout listen after
	// a loss, or a retry's backoff window.
	PhaseListen
	// PhaseDownload is one pre-compiled body download (request,
	// receive, link).
	PhaseDownload
	// PhaseCompile is one local JIT compilation of a plan method.
	PhaseCompile

	// NumPhases counts the phases.
	NumPhases = int(PhaseCompile) + 1
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInterp:
		return "interp"
	case PhaseNative:
		return "native"
	case PhaseShip:
		return "ship"
	case PhaseListen:
		return "listen"
	case PhaseDownload:
		return "download"
	case PhaseCompile:
		return "compile"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Estimate is a policy's per-mode pricing for one adaptive decision,
// recorded so sinks can audit the estimators against measured
// outcomes. Costs are per-invocation: the amortized comparison value
// the policy ranked, divided by its amortization count, so they are
// directly comparable with the EvInvoke energy that follows.
type Estimate struct {
	// K is the policy's per-method invocation count (amortization
	// denominator) at this decision.
	K int
	// PredSize and PredPower are the EWMA predictions the costs were
	// evaluated at.
	PredSize  float64
	PredPower float64
	// Cost[mode] is the predicted per-invocation energy (J) of each
	// mode; valid only where Considered[mode] is true (remote drops
	// out while the breaker holds the link down).
	Cost [NumModes]float64
	// Considered marks the modes the policy actually priced.
	Considered [NumModes]bool
	// Chosen is the decided mode (the argmin over considered costs).
	Chosen Mode
}

// BestCost returns the cheapest considered per-invocation estimate —
// the baseline the auditor's regret is measured against.
func (e *Estimate) BestCost() float64 {
	best, ok := 0.0, false
	for m := 0; m < NumModes; m++ {
		if !e.Considered[m] {
			continue
		}
		if !ok || e.Cost[m] < best {
			best, ok = e.Cost[m], true
		}
	}
	return best
}

// Event is one occurrence in a client's execution stream. Method is
// set for method-scoped events (link-state events may carry none);
// the remaining fields are populated per kind (see the EventKind
// docs).
type Event struct {
	Kind   EventKind
	Method *bytecode.Method
	Mode   Mode           // EvInvoke: the decided mode
	Level  jit.Level      // compiles, evictions, native/compile phases: the body's level
	Size   float64        // EvInvoke: the invocation's size parameter
	Energy energy.Joules  // EvInvoke: energy delta of the invocation
	Time   energy.Seconds // EvInvoke and EvPhase: wall-time delta (span duration)
	// At is the simulated-clock timestamp of the event; for span
	// events (EvInvoke, EvPhase) it is the span's start, so the span
	// covers [At, At+Time]. Events emitted by clock-less components
	// (code-cache evictions) carry zero.
	At energy.Seconds
	// Phase identifies the span kind of an EvPhase.
	Phase Phase
	// Est carries the per-mode predicted costs of an EvEstimate.
	Est *Estimate
	// FellBack marks an EvInvoke whose remote execution was lost and
	// re-ran locally (also an EvProbe that failed, and a PhaseShip
	// span that was lost mid-flight).
	FellBack bool
	// Backend names the backend involved in a multi-backend event: the
	// server that answered an EvPlace, the one that shed an EvShed, the
	// one whose per-backend breaker transitioned on an
	// EvLinkDown/EvLinkUp or was probed by an EvProbe, the failover
	// target of an EvFailover. Empty on single-server (link-scoped)
	// streams.
	Backend string
	// From names the backend a failed exchange was attributed to — the
	// backend an EvFailover moved away from. Empty on other kinds.
	From string
	// Radio is a snapshot of the link's counters, carried by EvInvoke
	// and the link-touching events (retries, probes, breaker
	// transitions, fallbacks) so sinks can observe outage behaviour
	// without reaching into the client.
	Radio radio.Telemetry
}

// EventSink consumes client events. Sinks run synchronously on the
// simulation goroutine and must not retain the event's Method beyond
// the client's lifetime.
type EventSink interface {
	Emit(Event)
}

// Sinks fans events out to every attached sink.
type Sinks struct {
	sinks []EventSink
}

// Attach adds a sink to the fan-out.
func (s *Sinks) Attach(sink EventSink) { s.sinks = append(s.sinks, sink) }

// Emit delivers the event to every attached sink.
func (s *Sinks) Emit(e Event) {
	for _, sink := range s.sinks {
		sink.Emit(e)
	}
}

// Stats accumulates the counters the experiments consume. Every
// client has one attached from construction, at Client.Stats.
type Stats struct {
	// ModeCounts[mode] counts invocations decided into each mode.
	ModeCounts [NumModes]int
	// Fallbacks counts connection-loss fallbacks (execution and
	// compilation-download ones alike).
	Fallbacks int
	// LocalCompiles and RemoteCompiles count method bodies obtained by
	// running the local JIT vs. downloading from the server.
	LocalCompiles  int
	RemoteCompiles int
	// Evictions counts bodies unlinked by the code cache's LRU policy.
	Evictions int
	// MemoHits counts the client's repeats of its own local runs,
	// replayed from its own memo. Replays from a shared memo are left
	// out, so the count is the same whichever client of a fleet
	// simulated a run first. It counts host work, not simulated
	// behaviour, so it stays out of the JSON records.
	MemoHits int `json:"-"`
	// Retries counts re-attempted remote exchanges after losses.
	Retries int
	// Sheds counts remote exchanges the server rejected with a busy
	// error (admission queue full); each shed invocation fell back to
	// local execution.
	Sheds int
	// Probes counts half-open circuit-breaker probes; LinkDowns and
	// LinkUps count breaker open/close transitions (link-scoped and
	// per-backend alike).
	Probes    int
	LinkDowns int
	LinkUps   int
	// Failovers counts in-flight invocations re-placed onto a surviving
	// backend after a loss attributed to another backend.
	Failovers int
	// ShedsBy, LinkDownsBy and LinkUpsBy split the corresponding
	// counters by backend, for events that carried an attribution; they
	// stay nil on single-server streams, so pool-wide and per-backend
	// outages are distinguishable.
	ShedsBy     map[string]int
	LinkDownsBy map[string]int
	LinkUpsBy   map[string]int
	// Radio is the link-telemetry snapshot carried by the most recent
	// radio-touching event (losses, retransmits, exchanged bytes). A
	// trailing failed exchange can still leave it behind the link when
	// the invocation itself errors out — callers run Client.SyncStats
	// at end of run to fold in the final counters.
	Radio radio.Telemetry
}

// Emit implements EventSink.
func (s *Stats) Emit(e Event) {
	// Link counters are monotonic and events arrive in simulation
	// order, so any event carrying a non-empty snapshot is at least as
	// fresh as the one held.
	if e.Radio.Exchanges > 0 {
		s.Radio = e.Radio
	}
	switch e.Kind {
	case EvInvoke:
		s.ModeCounts[e.Mode]++
	case EvRetry:
		s.Retries++
	case EvFailover:
		s.Failovers++
	case EvShed:
		s.Sheds++
		incBy(&s.ShedsBy, e.Backend)
	case EvProbe:
		s.Probes++
	case EvLinkDown:
		s.LinkDowns++
		incBy(&s.LinkDownsBy, e.Backend)
	case EvLinkUp:
		s.LinkUps++
		incBy(&s.LinkUpsBy, e.Backend)
	case EvFallback:
		s.Fallbacks++
	case EvLocalCompile:
		s.LocalCompiles++
	case EvRemoteCompile:
		s.RemoteCompiles++
	case EvEvict:
		s.Evictions++
	case EvMemoHit:
		s.MemoHits++
	}
}

// incBy bumps a lazily allocated per-backend split counter; events
// without an attribution leave the split untouched.
func incBy(m *map[string]int, backend string) {
	if backend == "" {
		return
	}
	if *m == nil {
		*m = map[string]int{}
	}
	(*m)[backend]++
}

// InvokeRecord describes one potential-method invocation, as recorded
// by a Trace sink.
type InvokeRecord struct {
	Method   string
	Mode     Mode
	Size     float64
	Energy   energy.Joules
	Time     energy.Seconds
	FellBack bool
}

// Trace records every invocation event; attach one with
// Client.EnableTrace (or Sinks.Attach) when a per-invocation log is
// wanted.
type Trace struct {
	Records []InvokeRecord
}

// Emit implements EventSink.
func (t *Trace) Emit(e Event) {
	if e.Kind != EvInvoke {
		return
	}
	t.Records = append(t.Records, InvokeRecord{
		Method:   e.Method.QName(),
		Mode:     e.Mode,
		Size:     e.Size,
		Energy:   e.Energy,
		Time:     e.Time,
		FellBack: e.FellBack,
	})
}
