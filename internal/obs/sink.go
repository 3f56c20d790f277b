package obs

import (
	"strconv"

	"greenvm/internal/core"
	"greenvm/internal/radio"
)

// Default bucket boundaries. Invocation energies span six orders of
// magnitude across the benchmarks (µJ-scale offloads to J-scale
// interpretation), so the defaults are decade buckets.
var (
	// DefaultEnergyBuckets bound invocation energy in joules.
	DefaultEnergyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	// DefaultTimeBuckets bound invocation wall time in seconds.
	DefaultTimeBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
)

// MetricsSink attributes the event stream to a Registry: energy and
// time per (method × mode), compilations per (method × level × site),
// timeline phases, and the link's radio telemetry — folded in as
// deltas between successive snapshots, so counters stay correct even
// though each event carries cumulative link state.
type MetricsSink struct {
	reg *Registry

	invocations  *Counter
	energyTotal  *Counter
	timeTotal    *Counter
	invokeEnergy *Histogram
	invokeTime   *Histogram
	fallbacks    *Counter
	compiles     *Counter
	evictions    *Counter
	memoHits     *Counter
	retries      *Counter
	sheds        *Counter
	placements   *Counter
	failovers    *Counter
	probes       *Counter
	transitions  *Counter
	linkUp       *Gauge
	backendUp    *Gauge
	estimates    *Counter
	predicted    *Counter
	phaseTime    *Counter
	phaseCount   *Counter

	radioExchanges *Counter
	radioLosses    *Counter
	radioRetrans   *Counter
	radioTxBytes   *Counter
	radioRxBytes   *Counter

	lastRadio radio.Telemetry
}

// NewMetricsSink builds a sink recording into reg (a fresh registry
// when nil).
func NewMetricsSink(reg *Registry) *MetricsSink {
	if reg == nil {
		reg = NewRegistry()
	}
	s := &MetricsSink{
		reg: reg,

		invocations:  reg.Counter("invocations_total", "potential-method invocations by method and decided mode"),
		energyTotal:  reg.Counter("invocation_energy_joules_total", "energy attributed to invocations by method and mode"),
		timeTotal:    reg.Counter("invocation_time_seconds_total", "wall time attributed to invocations by method and mode"),
		invokeEnergy: reg.Histogram("invocation_energy_joules", "per-invocation energy distribution", DefaultEnergyBuckets),
		invokeTime:   reg.Histogram("invocation_time_seconds", "per-invocation wall-time distribution", DefaultTimeBuckets),
		fallbacks:    reg.Counter("fallbacks_total", "connection-loss fallbacks to local execution or compilation"),
		compiles:     reg.Counter("compiles_total", "method bodies obtained, by site (local/remote), method and level"),
		evictions:    reg.Counter("evictions_total", "bodies unlinked by the code cache's LRU policy"),
		memoHits:     reg.Counter("memo_hits_total", "invocations replayed from the memo"),
		retries:      reg.Counter("retries_total", "re-attempted remote exchanges after losses"),
		sheds:        reg.Counter("sheds_total", "remote exchanges rejected by server admission control"),
		placements:   reg.Counter("placements_total", "multi-backend requests served, by method and backend"),
		failovers:    reg.Counter("failovers_total", "retries re-placed off a breaker-struck backend, by from/to backend"),
		probes:       reg.Counter("probes_total", "half-open circuit-breaker probes by outcome"),
		transitions:  reg.Counter("link_transitions_total", "circuit-breaker open/close transitions by direction"),
		linkUp:       reg.Gauge("link_up", "1 while the link circuit breaker admits remote options"),
		backendUp:    reg.Gauge("backend_up", "1 while the named backend's circuit breaker is closed"),
		estimates:    reg.Counter("estimates_total", "adaptive decisions priced, by method and chosen mode"),
		predicted:    reg.Counter("predicted_energy_joules_total", "estimator-predicted energy of the chosen mode, by method"),
		phaseTime:    reg.Counter("phase_seconds_total", "simulated time spent per timeline phase"),
		phaseCount:   reg.Counter("phase_spans_total", "timeline spans per phase"),

		radioExchanges: reg.Counter("radio_exchanges_total", "link transfers attempted"),
		radioLosses:    reg.Counter("radio_losses_total", "transfers lost to the fault process"),
		radioRetrans:   reg.Counter("radio_retransmits_total", "underpowered transmissions repeated at the true channel class"),
		radioTxBytes:   reg.Counter("radio_bytes_sent_total", "payload bytes transmitted"),
		radioRxBytes:   reg.Counter("radio_bytes_received_total", "payload bytes received"),
	}
	s.linkUp.Set(1)
	return s
}

// Registry returns the sink's registry (for snapshotting or serving).
func (s *MetricsSink) Registry() *Registry { return s.reg }

// Emit implements core.EventSink.
func (s *MetricsSink) Emit(e core.Event) {
	if e.Radio.Exchanges > 0 {
		s.SyncRadio(e.Radio)
	}
	method := ""
	if e.Method != nil {
		method = e.Method.QName()
	}
	switch e.Kind {
	case core.EvInvoke:
		mode := e.Mode.String()
		s.invocations.Inc("method", method, "mode", mode)
		s.energyTotal.Add(float64(e.Energy), "method", method, "mode", mode)
		s.timeTotal.Add(float64(e.Time), "method", method, "mode", mode)
		s.invokeEnergy.Observe(float64(e.Energy), "method", method, "mode", mode)
		s.invokeTime.Observe(float64(e.Time), "method", method, "mode", mode)
		if e.FellBack {
			s.invocations.Inc("method", method, "mode", "fellback")
		}
	case core.EvFallback:
		s.fallbacks.Inc("method", method)
	case core.EvLocalCompile:
		s.compiles.Inc("site", "local", "method", method, "level", levelLabel(e))
	case core.EvRemoteCompile:
		s.compiles.Inc("site", "remote", "method", method, "level", levelLabel(e))
	case core.EvEvict:
		s.evictions.Inc()
	case core.EvMemoHit:
		s.memoHits.Inc()
	case core.EvRetry:
		s.retries.Inc("method", method)
	case core.EvShed:
		// Single-server sheds carry no backend name; keep their series
		// unchanged and split per backend only when a pool names one.
		if e.Backend != "" {
			s.sheds.Inc("method", method, "backend", e.Backend)
		} else {
			s.sheds.Inc("method", method)
		}
	case core.EvPlace:
		s.placements.Inc("method", method, "backend", e.Backend)
	case core.EvFailover:
		s.failovers.Inc("from", e.From, "to", e.Backend)
	case core.EvProbe:
		outcome := "ok"
		if e.FellBack {
			outcome = "lost"
		}
		if e.Backend != "" {
			s.probes.Inc("outcome", outcome, "backend", e.Backend)
		} else {
			s.probes.Inc("outcome", outcome)
		}
	case core.EvLinkDown:
		// A backend-attributed transition is one backend's breaker
		// opening, not the whole pool going dark: track it on the
		// per-backend gauge and keep the link series unlabelled.
		if e.Backend != "" {
			s.transitions.Inc("to", "down", "backend", e.Backend)
			s.backendUp.Set(0, "backend", e.Backend)
		} else {
			s.transitions.Inc("to", "down")
			s.linkUp.Set(0)
		}
	case core.EvLinkUp:
		if e.Backend != "" {
			s.transitions.Inc("to", "up", "backend", e.Backend)
			s.backendUp.Set(1, "backend", e.Backend)
		} else {
			s.transitions.Inc("to", "up")
			s.linkUp.Set(1)
		}
	case core.EvEstimate:
		if e.Est != nil {
			s.estimates.Inc("method", method, "mode", e.Est.Chosen.String())
			s.predicted.Add(e.Est.Cost[e.Est.Chosen], "method", method)
		}
	case core.EvPhase:
		s.phaseTime.Add(float64(e.Time), "phase", e.Phase.String())
		s.phaseCount.Inc("phase", e.Phase.String())
	}
}

// SyncRadio folds the difference between the last seen telemetry
// snapshot and tel into the radio counters. Drivers call it with the
// link's final telemetry at end of run so a trailing failed exchange
// (which emits no further radio-carrying event) is still counted.
func (s *MetricsSink) SyncRadio(tel radio.Telemetry) {
	d := func(c *Counter, now, prev int) {
		if now > prev {
			c.Add(float64(now - prev))
		}
	}
	d(s.radioExchanges, tel.Exchanges, s.lastRadio.Exchanges)
	d(s.radioLosses, tel.Losses, s.lastRadio.Losses)
	d(s.radioRetrans, tel.Retransmits, s.lastRadio.Retransmits)
	d(s.radioTxBytes, tel.BytesSent, s.lastRadio.BytesSent)
	d(s.radioRxBytes, tel.BytesReceived, s.lastRadio.BytesReceived)
	s.lastRadio = tel
}

func levelLabel(e core.Event) string { return "L" + strconv.Itoa(int(e.Level)) }

// Compile-time check: the sink consumes the client event stream.
var _ core.EventSink = (*MetricsSink)(nil)
