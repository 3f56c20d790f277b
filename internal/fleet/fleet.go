// Package fleet simulates many handsets sharing a pool of offload
// servers.
//
// The paper evaluates a single mobile device against a resource-rich
// server; a deployed system serves a fleet against a pool of them.
// Each simulated client is a full core.Client — its own channel
// trace, fault model, strategy, workload mix and seeded RNG —
// attached to per-client sessions on every backend of a ServerPool
// (see pool.go), each backend a core.Server behind a bounded worker
// pool and queue. Requests map to backends through a
// pluggable placement policy (see placement.go) and contention is
// resolved in virtual time by an event-driven conservative
// discrete-event engine (see engine.go), so a fleet run is
// deterministic for a given Spec: the same seed produces
// byte-identical results whether the clients simulate on one OS
// thread or sixteen, for any server count and placement.
package fleet

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/obs"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

// Workload is the application every client in the fleet runs: the
// shared program the server also executes, the profiled target, and
// the size population clients draw their inputs from.
type Workload struct {
	Name   string
	Prog   *bytecode.Program
	Target *core.Target
	Prof   *core.Profile
	Sizes  []int
}

// WorkloadOf adapts a prepared experiment environment.
func WorkloadOf(env *experiments.Env) Workload {
	return Workload{
		Name:   env.App.Name,
		Prog:   env.Prog,
		Target: env.Target,
		Prof:   env.Prof,
		Sizes:  env.App.ScenarioSizes,
	}
}

// ChannelKind selects a client's channel process.
type ChannelKind int

const (
	// ChannelFixed pins the channel to Class 4 (best bandwidth).
	ChannelFixed ChannelKind = iota
	// ChannelUniform redraws the class uniformly each execution.
	ChannelUniform
	// ChannelMarkov walks neighbouring classes from Class 3.
	ChannelMarkov
	// ChannelDrifting walks neighbouring classes with a sinusoidal
	// up/down bias over the drift cycle (see DriftSpec) — the Markov
	// channel made non-stationary.
	ChannelDrifting
)

func (k ChannelKind) String() string {
	switch k {
	case ChannelFixed:
		return "fixed"
	case ChannelUniform:
		return "uniform"
	case ChannelMarkov:
		return "markov"
	case ChannelDrifting:
		return "drifting"
	default:
		return fmt.Sprintf("ChannelKind(%d)", int(k))
	}
}

// ClientSpec describes one simulated handset.
type ClientSpec struct {
	ID       string
	Strategy core.Strategy
	Channel  ChannelKind
	// Class pins ChannelFixed's class (zero means Class 4) and seeds
	// ChannelMarkov's starting class (zero means Class 3).
	Class radio.Class
	// Outage > 0 attaches a Gilbert-Elliott fault model with the given
	// stationary loss fraction and mean burst length.
	Outage, Burst float64
	// Executions is how many application executions the client runs;
	// Sizes, when set, overrides the workload's size population (the
	// client's personal mix).
	Executions int
	Sizes      []int
	Seed       uint64
}

// Spec is one fleet run.
type Spec struct {
	Workload Workload
	// Population describes the cohort: client specs, arrival times and
	// channel drift expand on demand from the population seed.
	Population *Population
	// ResultSink, when set, receives each ClientResult as the cohort
	// retires, in deterministic arrival order. The run keeps no
	// per-client records (Result.Totals aggregates them), which is what
	// lets a 100k-client run fit in memory. The sink runs on simulation
	// goroutines under the emitter's lock: keep it cheap and do not call
	// back into the fleet.
	ResultSink func(ClientResult)
	// Server shapes each backend server's admission control (zero
	// values mean the session-layer defaults). With Servers > 1 every
	// backend gets this worker/queue budget.
	Server core.SessionConfig
	// Servers is how many backend servers the pool runs; 0 or 1 means
	// a single server (the paper's shape).
	Servers int
	// Placement selects how requests map to backends (default
	// PlaceCheapest — honour the clients' per-backend pricing hints).
	Placement Placement
	// Chaos, when non-nil, injects backend i's fault shapes from
	// Chaos[i]: hard crashes, flapping crash/restart cycles, brown-out
	// service-rate degradation, and per-backend Gilbert–Elliott loss
	// (see BackendChaos). All faults are scheduled and judged inside
	// the engine's event heap, so runs stay byte-identical under any
	// Concurrency.
	Chaos []BackendChaos
	// Breakers selects the clients' resilience scope: per-backend
	// breakers (default), one global link breaker (PR 6's shape), or
	// none.
	Breakers BreakerMode
	// Breaker, when non-nil, is the prototype circuit breaker every
	// client starts from (threshold, cooldowns, probe size); nil keeps
	// core's defaults. Each client gets its own copy. Ignored with
	// BreakersOff.
	Breaker *core.Breaker
	// Concurrency bounds how many clients simulate in parallel; 0
	// means GOMAXPROCS. It never changes the results, only the
	// wall-clock time (the determinism test holds the engine to that).
	Concurrency int
	// Telemetry, when non-nil, records a windowed virtual-time series
	// of the run (see TelemetrySpec and telemetry.go); the result's
	// Series field carries it. Like everything else, byte-identical
	// under any Concurrency.
	Telemetry *TelemetrySpec
}

// ClientResult is one handset's outcome.
type ClientResult struct {
	ID       string
	Strategy core.Strategy
	// Energy and Time are the client's totals over all executions.
	Energy energy.Joules
	Time   energy.Seconds
	Stats  core.Stats
	// Session counts the client's server-side requests and cache hits;
	// Served/Shed are the engine's admission outcomes for the client.
	Session      core.SessionStats
	Served, Shed int
	// AvgWait and MaxWait summarize the virtual time the client's
	// served requests spent in the admission queue.
	AvgWait, MaxWait energy.Seconds
	// Err is set when the client's run failed; the rest of the fleet
	// still completes.
	Err string
}

// ServerResult aggregates admission outcomes across the whole pool.
// Workers and QueueCap are per backend (every backend gets the same
// budget); Served/Shed sum over backends and MaxQueueDepth is the
// worst single backend queue.
type ServerResult struct {
	Workers, QueueCap           int
	Served, Shed, MaxQueueDepth int
	CacheHits                   int
	// WaitDist summarizes the per-served-request queue waits and
	// DepthDist the queue depths seen by requests that had to wait,
	// both as streaming-quantile snapshots fed in admission order
	// (deterministic, fixed-size — these replaced unbounded slices).
	WaitDist, DepthDist obs.SketchSnapshot
}

// BackendResult is one backend server's admission outcomes.
type BackendResult struct {
	ID                          string
	Served, Shed, MaxQueueDepth int
	CacheHits                   int
	// AvgWait is the mean virtual queue wait of the backend's served
	// requests.
	AvgWait energy.Seconds
	// Down reports whether the backend was down when the run ended (a
	// scheduled failure fired and no restart followed).
	Down bool
	// Chaos names the fault shapes injected on the backend ("none"
	// without injection). Flaps counts its crash events, ChaosLosses
	// exchanges eaten by its loss process, Slowed requests served at
	// the brown-out rate, and Warmups sessions whose cache was
	// pre-loaded here from a dead backend after re-homing.
	Chaos                               string
	Flaps, ChaosLosses, Slowed, Warmups int
}

// Totals aggregates a cohort's outcomes without per-client records —
// all a run keeps in memory. Sums accumulate in deterministic arrival
// order, so they are byte-stable across concurrency.
type Totals struct {
	// Clients is the cohort size; Errors how many clients failed.
	Clients, Errors int
	// Energy sums the fleet's client energies; MaxTime is the cohort
	// makespan (latest client virtual completion time).
	Energy  energy.Joules
	MaxTime energy.Seconds
	// Failovers and Fallbacks sum the respective client counters.
	Failovers, Fallbacks int
}

// add folds one retiring client into the totals.
func (t *Totals) add(cr *ClientResult) {
	t.Clients++
	t.Energy += cr.Energy
	if cr.Time > t.MaxTime {
		t.MaxTime = cr.Time
	}
	t.Failovers += cr.Stats.Failovers
	t.Fallbacks += cr.Stats.Fallbacks
	if cr.Err != "" {
		t.Errors++
	}
}

// Result is a completed fleet run.
type Result struct {
	Workload  string
	Placement Placement
	// Totals aggregates the cohort; per-client outcomes go to the
	// spec's ResultSink.
	Totals Totals
	Server ServerResult
	// Backends holds per-backend outcomes, in placement order (one
	// entry even for a single-server run).
	Backends []BackendResult
	// Series is the windowed virtual-time telemetry of the run; nil
	// unless the spec set Telemetry.
	Series *obs.TimeSeries
}

// Run simulates the fleet to completion. Clients are launched on
// demand as the simulation frontier needs them (see engine.go) and
// retired — sessions closed, per-client state folded and released —
// as they finish, so peak memory tracks the live cohort, not the
// whole fleet.
func Run(spec Spec) (*Result, error) {
	pop := spec.Population
	if pop == nil || pop.N() <= 0 {
		return nil, fmt.Errorf("fleet: no clients in spec")
	}
	n := pop.N()
	w := spec.Workload
	if w.Prog == nil || w.Target == nil || w.Prof == nil {
		return nil, fmt.Errorf("fleet: incomplete workload %q", w.Name)
	}
	fp, err := core.NewFleetProgram(w.Prog, w.Target, w.Prof)
	if err != nil {
		return nil, err
	}
	if servers := max(spec.Servers, 1); len(spec.Chaos) > servers {
		return nil, fmt.Errorf("fleet: chaos specs for %d backends but pool has %d", len(spec.Chaos), servers)
	}
	for i, c := range spec.Chaos {
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("fleet: backend s%d: %w", i, err)
		}
	}
	if err := pop.validate(); err != nil {
		return nil, err
	}
	arrival := pop.arrival
	drift := pop.drift.withDefaults()
	pool := NewServerPool(w.Prog, spec.Servers, spec.Server, spec.Chaos)
	pool.alloc(n)
	var rec *tsRec
	var fold *clientFold
	if spec.Telemetry != nil {
		if tick := float64(spec.Telemetry.Tick); !(tick > 0) || !finite(tick) {
			return nil, fmt.Errorf("fleet: telemetry tick %g must be positive and finite", tick)
		}
		rec = newTSRec(spec.Telemetry, pool)
		fold = newClientFold(spec.Telemetry.Tick)
	}

	// Arrival times are pure functions of the curve and each client's
	// seed, so the engine knows every unlaunched client's clock bound
	// without constructing it. The (arrival, index) order drives both
	// launches and result retirement.
	starts := make([]energy.Seconds, n)
	if arrival.Kind != ArriveNone {
		for i := range starts {
			starts[i] = pop.StartAt(i)
		}
	}
	order := arrivalOrder(starts)

	eng := newEngine(pool, spec.Placement, starts, order, rec)
	conc := spec.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	g := newGate(conc)
	eng.ahead = 4 * conc
	if eng.ahead < 64 {
		eng.ahead = 64
	}

	em := &emitter{
		order:   order,
		records: make([]ClientResult, n),
		done:    make([]bool, n),
		sink:    spec.ResultSink,
		fold:    fold,
	}
	if fold != nil {
		em.accs = make([]*clientAcc, n)
	}

	var wg sync.WaitGroup
	wg.Add(n)
	eng.launch = func(idx int) {
		defer wg.Done()
		cs := pop.ClientAt(idx)
		fs := &eng.sessions[idx]
		// The compute slot is held while simulating and released while
		// blocked in the engine (muxRemote); the session must retire
		// even when the client errors out, or the engine would wait on
		// its clock bound forever.
		g.acquire()
		pool.openAt(idx)
		var acc *clientAcc
		var opts []core.Option
		if rec != nil {
			acc = newClientAcc(float64(spec.Telemetry.Tick))
			opts = append(opts, core.WithSink(acc))
		}
		if cs.Outage > 0 {
			opts = append(opts, core.WithFaultModel(radio.NewGilbertElliott(cs.Outage, cs.Burst)))
		}
		switch spec.Breakers {
		case BreakersGlobal:
			opts = append(opts, core.WithBackendBreakers(false))
		case BreakersOff:
			opts = append(opts, core.WithBreaker(nil))
		}
		if spec.Breaker != nil && spec.Breakers != BreakersOff {
			// Each client owns its copy of the prototype's tuning.
			proto := *spec.Breaker
			opts = append(opts, core.WithBreaker(&core.Breaker{
				Threshold:   proto.Threshold,
				Cooldown:    proto.Cooldown,
				MaxCooldown: proto.MaxCooldown,
				ProbeBytes:  proto.ProbeBytes,
			}))
		}
		c := core.New(core.ClientConfig{
			ID:       cs.ID,
			Shared:   fp,
			Server:   &muxRemote{e: eng, s: fs, gate: g},
			Channel:  buildChannel(cs, drift),
			Strategy: cs.Strategy,
			Seed:     mix(cs.Seed, 0x11),
		}, opts...)
		cerr := runClient(c, w, cs, starts[idx], fp)
		// Harvest before the sessions close, then retire: the engine
		// drops the clock bound, the pool releases the per-backend
		// sessions, and the emitter folds + streams the record.
		cr := ClientResult{
			ID:       cs.ID,
			Strategy: cs.Strategy,
			Energy:   c.Energy(),
			Time:     c.Clock,
			Stats:    *c.Stats,
			Session:  pool.sessionStats(idx),
			Served:   fs.served,
			Shed:     fs.shed,
			MaxWait:  fs.maxWait,
		}
		if fs.served > 0 {
			cr.AvgWait = fs.waitSum / energy.Seconds(fs.served)
		}
		if cerr != nil {
			cr.Err = cerr.Error()
		}
		eng.finish(fs)
		g.release()
		pool.release(idx)
		em.emit(idx, cr, acc)
	}
	eng.kickoff()
	wg.Wait()

	res := &Result{
		Workload:  w.Name,
		Placement: spec.Placement,
		Totals:    em.totals,
	}
	res.Server = ServerResult{
		Workers:       pool.backends[0].workers,
		QueueCap:      pool.backends[0].queueCap,
		Served:        eng.served,
		Shed:          eng.shed,
		MaxQueueDepth: eng.maxDepth,
		CacheHits:     pool.cacheHits(),
		WaitDist:      eng.waitSketch.Snapshot(),
		DepthDist:     eng.depthSketch.Snapshot(),
	}
	if rec != nil {
		fold.mergeInto(rec.ts)
		res.Series = rec.ts
	}
	for _, b := range pool.backends {
		br := BackendResult{
			ID:            b.id,
			Served:        b.served,
			Shed:          b.shed,
			MaxQueueDepth: b.maxDepth,
			CacheHits:     b.cacheHits,
			Down:          b.down,
			Chaos:         b.chaos.String(),
			Flaps:         b.flaps,
			ChaosLosses:   b.chaosLosses,
			Slowed:        b.slowed,
			Warmups:       b.warmups,
		}
		if b.served > 0 {
			br.AvgWait = b.waitSum / energy.Seconds(b.served)
		}
		res.Backends = append(res.Backends, br)
	}
	return res, nil
}

// arrivalOrder returns the client indices sorted by (arrival time,
// index) — the order clients launch and their results retire in.
func arrivalOrder(starts []energy.Seconds) []int32 {
	order := make([]int32, len(starts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if starts[ia] != starts[ib] {
			return starts[ia] < starts[ib]
		}
		return ia < ib
	})
	return order
}

// emitter retires client results in deterministic arrival order,
// whatever order the goroutines actually finish in: records park in
// the out-of-order buffer until every earlier client has retired,
// then fold (telemetry), accumulate (totals) and stream (sink) in
// order. Emitted records are dropped immediately — nothing
// accumulates across a 100k run.
type emitter struct {
	mu      sync.Mutex
	order   []int32
	next    int
	records []ClientResult
	accs    []*clientAcc
	done    []bool
	sink    func(ClientResult)
	fold    *clientFold
	totals  Totals
}

func (em *emitter) emit(idx int, cr ClientResult, acc *clientAcc) {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.records[idx] = cr
	em.done[idx] = true
	if em.accs != nil {
		em.accs[idx] = acc
	}
	for em.next < len(em.order) {
		i := em.order[em.next]
		if !em.done[i] {
			break
		}
		em.next++
		if em.fold != nil {
			em.fold.fold(em.accs[i], int(i))
			em.accs[i] = nil
		}
		em.totals.add(&em.records[i])
		if em.sink != nil {
			em.sink(em.records[i])
		}
		em.records[i] = ClientResult{}
	}
}

// runClient simulates one handset to completion. The shared fleet
// program skips per-client compilation; a positive start offsets the
// client's clock so it joins the arrival curve's diurnal shape.
func runClient(c *core.Client, w Workload, cs ClientSpec, start energy.Seconds, fp *core.FleetProgram) error {
	if err := c.RegisterShared(fp); err != nil {
		return err
	}
	if start > 0 {
		c.Clock = start
	}
	sizes := cs.Sizes
	if len(sizes) == 0 {
		sizes = w.Sizes
	}
	if len(sizes) == 0 {
		return fmt.Errorf("fleet: client %s has no input sizes", cs.ID)
	}
	sizeR := rng.New(mix(cs.Seed, 0x51))
	for run := 0; run < cs.Executions; run++ {
		size := sizes[sizeR.Intn(len(sizes))]
		// Inputs are fixed per (workload, size): identical offloads
		// from repeated sizes exercise the session caches.
		if err := c.RunExecution(w.Target, size, inputSeed(w.Name, size)); err != nil {
			return err
		}
		c.StepChannel()
	}
	c.SyncStats()
	return nil
}

func buildChannel(cs ClientSpec, drift DriftSpec) radio.Channel {
	switch cs.Channel {
	case ChannelUniform:
		return radio.UniformChannel(rng.New(mix(cs.Seed, 0x21)))
	case ChannelMarkov:
		start := cs.Class
		if start == 0 {
			start = radio.Class3
		}
		return radio.NewMarkov(start, 0.55, rng.New(mix(cs.Seed, 0x31)))
	case ChannelDrifting:
		start := cs.Class
		if start == 0 {
			start = radio.Class3
		}
		// The per-client phase staggers the diurnal bias so the fleet's
		// channels do not swing in lockstep.
		r := rng.New(mix(cs.Seed, 0x61))
		phase := 2 * math.Pi * r.Float64()
		return radio.NewDriftingMarkov(start, drift.Stay, drift.Period, drift.Depth, phase, r)
	default:
		cls := cs.Class
		if cls == 0 {
			cls = radio.Class4
		}
		return radio.Fixed{Cls: cls}
	}
}

// mix derives independent sub-seeds (splitmix64 finalizer).
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(salt+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// inputSeed fixes input content per (workload, size), as the
// experiment drivers do.
func inputSeed(name string, size int) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, c := range name {
		h = h*1099511628211 ^ uint64(c)
	}
	return h*2654435761 + uint64(size)
}

// Registry renders the run through the observability seam: cohort
// totals, pool admission counters, the server's queue wait/depth
// quantiles (from the engine's streaming P² sketches) and per-backend
// outcomes. Per-client values stream through Spec.ResultSink instead.
// Built post-run, so its snapshot is deterministic.
func (r *Result) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Gauge("fleet_clients", "simulated handsets in the cohort").Set(float64(r.Totals.Clients))
	reg.Gauge("fleet_client_errors", "handsets whose run failed").Set(float64(r.Totals.Errors))
	reg.Gauge("fleet_energy_joules", "total energy over the cohort's handsets").Set(float64(r.Totals.Energy))
	reg.Gauge("fleet_makespan_seconds", "latest handset virtual completion time").Set(float64(r.Totals.MaxTime))
	reg.Counter("fleet_served_total", "requests that obtained a server worker").Add(float64(r.Server.Served))
	reg.Counter("fleet_sheds_total", "requests shed by server admission control").Add(float64(r.Server.Shed))
	reg.Counter("fleet_session_cache_hits_total", "requests answered from a session's serialization cache").Add(float64(r.Server.CacheHits))
	reg.Counter("fleet_fallbacks_total", "connection-loss local fallbacks across the cohort").Add(float64(r.Totals.Fallbacks))
	reg.Counter("fleet_failovers_total", "invocations re-placed on a surviving backend after an attributed loss").Add(float64(r.Totals.Failovers))
	exportDist(reg, "fleet_queue_wait_seconds", "virtual queue wait quantiles of served requests", r.Server.WaitDist)
	exportDist(reg, "fleet_queue_depth", "queue depth quantiles seen by requests that waited", r.Server.DepthDist)
	bServed := reg.Counter("fleet_backend_served_total", "requests served per backend")
	bSheds := reg.Counter("fleet_backend_sheds_total", "requests shed per backend")
	bDepth := reg.Gauge("fleet_backend_queue_depth_max", "queue high-water mark per backend")
	bDown := reg.Gauge("fleet_backend_down", "1 when the backend failed during the run")
	bFlaps := reg.Counter("fleet_backend_flaps_total", "chaos crash events per backend")
	bLosses := reg.Counter("fleet_backend_chaos_losses_total", "exchanges eaten by the backend's loss process")
	bSlowed := reg.Counter("fleet_backend_slowed_total", "requests served at the brown-out service rate")
	bWarm := reg.Counter("fleet_backend_warmups_total", "session caches pre-loaded after failover re-homing")
	for _, b := range r.Backends {
		labels := []string{"backend", b.ID, "placement", r.Placement.String()}
		if b.Served > 0 {
			bServed.Add(float64(b.Served), labels...)
		}
		if b.Shed > 0 {
			bSheds.Add(float64(b.Shed), labels...)
		}
		bDepth.Set(float64(b.MaxQueueDepth), labels...)
		if b.Down {
			bDown.Set(1, labels...)
		}
		if b.Flaps > 0 {
			bFlaps.Add(float64(b.Flaps), labels...)
		}
		if b.ChaosLosses > 0 {
			bLosses.Add(float64(b.ChaosLosses), labels...)
		}
		if b.Slowed > 0 {
			bSlowed.Add(float64(b.Slowed), labels...)
		}
		if b.Warmups > 0 {
			bWarm.Add(float64(b.Warmups), labels...)
		}
	}
	return reg
}

// exportDist renders a sketch snapshot as quantile-labeled gauges
// plus _count/_max companions — the post-run view of a distribution
// whose samples were never retained.
func exportDist(reg *obs.Registry, name, help string, d obs.SketchSnapshot) {
	g := reg.Gauge(name, help)
	for _, qv := range d.Quantiles {
		g.Set(qv.Value, "quantile", strconv.FormatFloat(qv.Quantile, 'g', -1, 64))
	}
	reg.Gauge(name+"_count", "samples behind "+name).Set(float64(d.Count))
	reg.Gauge(name+"_max", "largest sample behind "+name).Set(d.Max)
}

// TotalFailovers sums in-flight re-placements after attributed losses
// across the fleet's clients.
func (r *Result) TotalFailovers() int { return r.Totals.Failovers }

// TotalFallbacks sums connection-loss local fallbacks across the
// fleet's clients — the work the pool pushed back to the handsets.
func (r *Result) TotalFallbacks() int { return r.Totals.Fallbacks }

// TotalWarmups sums failover cache warmups across backends.
func (r *Result) TotalWarmups() int {
	total := 0
	for _, b := range r.Backends {
		total += b.Warmups
	}
	return total
}

// TotalEnergy sums the fleet's client energies.
func (r *Result) TotalEnergy() energy.Joules { return r.Totals.Energy }

// ShedRate is the fraction of admission decisions that shed.
func (r *Result) ShedRate() float64 {
	total := r.Server.Served + r.Server.Shed
	if total == 0 {
		return 0
	}
	return float64(r.Server.Shed) / float64(total)
}

// WriteSummary renders the pool aggregate and — for multi-server runs
// — the per-backend breakdown. Per-client values stream through
// Spec.ResultSink (fleetsim's -clients-out writes them as JSONL).
func (r *Result) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "fleet of %d clients on %s — server workers=%d queue=%d",
		r.Totals.Clients, r.Workload, r.Server.Workers, r.Server.QueueCap)
	if len(r.Backends) > 1 {
		fmt.Fprintf(w, " servers=%d placement=%s", len(r.Backends), r.Placement)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "\ntotal energy %v; makespan %.4fs; server served %d, shed %d (rate %.1f%%), max queue depth %d, cache hits %d",
		r.TotalEnergy(), float64(r.Totals.MaxTime), r.Server.Served, r.Server.Shed, 100*r.ShedRate(),
		r.Server.MaxQueueDepth, r.Server.CacheHits)
	if f := r.TotalFailovers(); f > 0 {
		fmt.Fprintf(w, ", failovers %d", f)
	}
	if wu := r.TotalWarmups(); wu > 0 {
		fmt.Fprintf(w, ", warmups %d", wu)
	}
	fmt.Fprintln(w)
	if len(r.Backends) > 1 {
		for _, b := range r.Backends {
			fmt.Fprintf(w, "  backend %s: served %d, shed %d, max depth %d, avg wait %.2fms, cache hits %d",
				b.ID, b.Served, b.Shed, b.MaxQueueDepth, float64(b.AvgWait)*1e3, b.CacheHits)
			if b.Chaos != "none" {
				fmt.Fprintf(w, ", chaos %s", b.Chaos)
				if b.Flaps > 0 {
					fmt.Fprintf(w, " (crashes %d)", b.Flaps)
				}
				if b.ChaosLosses > 0 {
					fmt.Fprintf(w, " (losses %d)", b.ChaosLosses)
				}
				if b.Slowed > 0 {
					fmt.Fprintf(w, " (slowed %d)", b.Slowed)
				}
			}
			if b.Warmups > 0 {
				fmt.Fprintf(w, ", warmups %d", b.Warmups)
			}
			if b.Down {
				fmt.Fprintf(w, "  DOWN")
			}
			fmt.Fprintln(w)
		}
	}
}
