// Command fleetsim simulates a fleet of Java-enabled handsets sharing
// a pool of offload servers, sweeping fleet size against server count
// and placement policy to show how admission control (bounded worker
// pools plus bounded queues) degrades — queue waits grow, requests are
// shed with busy errors, the adaptive strategies price those errors
// into their decisions and shift work back to local execution — and
// how spreading the same aggregate capacity across more backends
// changes the picture placement policy by placement policy.
//
// Usage:
//
//	fleetsim -app fe                          # default 32-client fleet, one server
//	fleetsim -app fe -clients 16 -servers 4 -placement p2c
//	fleetsim -app fe -clients 8,16,32,64 -servers 1,2,4 -placement all -sweep
//	fleetsim -app fe -clients 16 -strategies AA,AL,R -server-workers 2 -queue 4
//	fleetsim -app fe -clients 32 -metrics fleet.json
//	fleetsim -app fe -clients 32 -timeseries ts.jsonl -tick 0.0005
//	fleetsim -app fe -clients 64 -serve-metrics :9090    # curl :9090/metrics while it runs
//
// City-scale runs: arrivals spread over a diurnal curve, channels
// drift through a synthetic day, and per-client records stream to
// JSONL instead of accumulating in memory:
//
//	fleetsim -app mf -clients 100000 -execs 1 -sizes 16 \
//	    -arrival diurnal:0.5 -drift overnight -clients-out clients.jsonl
//
// The summary prints pool and backend aggregates; -clients-out keeps
// the per-client records.
//
// Backend chaos injection (single runs only, not -sweep):
//
//	fleetsim -app fe -servers 2 -fail s0@0.002              # hard crash at t=2ms
//	fleetsim -app fe -servers 2 -flap s0@0.001/0.002/0.004  # crash at 1ms, down 2ms, every 4ms
//	fleetsim -app fe -servers 2 -brownout s0@0.0005x8       # 8x service time from 0.5ms on
//	fleetsim -app fe -servers 2 -loss s0:0.35/4             # bursty per-backend loss
//	fleetsim -app fe -servers 2 -flap s0@0.001/0.002/0.004 -breakers global
//	fleetsim -app fe -clients 16 -servers 2 -chaos-sweep    # fault shape x placement x breakers grid
//
// -server-workers is the pool's aggregate worker budget: it is split
// evenly across the backends (-servers must divide it), so sweeping
// the server count compares placements at equal total capacity.
// -queue stays per backend.
//
// Every run is deterministic for a given -seed: the engine resolves
// the fleet's contention in virtual time, so the concurrency level
// (-concurrency) changes only wall-clock time, never results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/fleet"
	"greenvm/internal/obs"
)

func main() {
	app := flag.String("app", "fe", "built-in benchmark the fleet runs")
	clients := flag.String("clients", "32", "fleet size, or a comma-separated list for -sweep")
	execs := flag.Int("execs", 4, "application executions per client")
	strategies := flag.String("strategies", "R,AL,AA", "comma-separated strategy mix cycled across clients")
	servers := flag.String("servers", "1", "backend server count, or a comma-separated list for -sweep")
	placement := flag.String("placement", "cheapest", "placement policy (cheapest, hash, p2c), a comma-separated list for -sweep, or 'all'")
	workers := flag.Int("server-workers", core.DefaultWorkers, "aggregate worker budget, split evenly across the backend servers")
	queue := flag.Int("queue", core.DefaultQueueCap, "per-backend admission queue capacity (-1: no waiting)")
	seed := flag.Uint64("seed", 42, "base seed; same seed, same results")
	concurrency := flag.Int("concurrency", 0, "client goroutines simulated in parallel (0 = GOMAXPROCS)")
	sweep := flag.Bool("sweep", false, "print the fleet-size x server-count x placement aggregate table instead of one run's detail")
	metrics := flag.String("metrics", "", "write the run's observability snapshot (JSON) to this file; '-' for stdout")
	fail := flag.String("fail", "", "hard-crash backends: comma-separated name@time entries, e.g. s0@0.002")
	flap := flag.String("flap", "", "flap backends: name@at/down/every entries, e.g. s0@0.001/0.002/0.004")
	brownout := flag.String("brownout", "", "brown out backends: name@at[+for]xfactor entries, e.g. s0@0.0005x8")
	loss := flag.String("loss", "", "attach bursty loss to backends: name:rate[/burst] entries, e.g. s0:0.35/4")
	breakers := flag.String("breakers", "backend", "circuit-breaker scope: backend (one per backend), global (one per link), off")
	chaosSweep := flag.Bool("chaos-sweep", false, "print the fault-shape x placement x breaker-mode grid (chaos on backend s0)")
	timeseries := flag.String("timeseries", "", "write the run's windowed virtual-time telemetry (JSONL) to this file; '-' for stdout")
	tick := flag.Float64("tick", 0.0005, "telemetry window width in virtual seconds (with -timeseries/-serve-metrics)")
	serveMetrics := flag.String("serve-metrics", "", "serve a live Prometheus scrape of the run (plus /debug/pprof) on this address, e.g. :9090")
	arrival := flag.String("arrival", "none", "cohort arrival curve: none, uniform:SPAN, diurnal:SPAN[/AMP]")
	drift := flag.String("drift", "none", "channel drift preset (none, overnight, commute); presets switch every client to a drifting channel")
	sizes := flag.String("sizes", "", "comma-separated input sizes overriding the app's size population")
	clientsOut := flag.String("clients-out", "", "stream per-client records (JSONL) to this file; '-' for stdout")
	flag.Parse()

	if err := run(*app, *clients, *execs, *strategies, *servers, *placement,
		*workers, *queue, *seed, *concurrency, *sweep, *metrics,
		chaosFlags{fail: *fail, flap: *flap, brownout: *brownout, loss: *loss,
			breakers: *breakers, sweep: *chaosSweep},
		telemetryFlags{path: *timeseries, tick: *tick, serve: *serveMetrics},
		popFlags{arrival: *arrival, drift: *drift, sizes: *sizes, clientsOut: *clientsOut}); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// popFlags carries the raw cohort-shape flag values into run.
type popFlags struct {
	arrival    string // -arrival curve ("none" = everyone at t=0)
	drift      string // -drift channel preset ("none" = stationary)
	sizes      string // -sizes override ("" = app default)
	clientsOut string // -clients-out destination ('' = off, '-' = stdout)
}

// telemetryFlags carries the raw telemetry flag values into run.
type telemetryFlags struct {
	path  string  // -timeseries destination ('' = off, '-' = stdout)
	tick  float64 // window width in virtual seconds
	serve string  // -serve-metrics listen address ('' = off)
}

func (tf telemetryFlags) any() bool { return tf.path != "" || tf.serve != "" }

// validate rejects flag combinations telemetry cannot honour: sweeps
// run many specs (whose windows would overwrite each other), and a
// non-positive tick makes no windows at all.
func (tf telemetryFlags) validate(sweep, chaosSweep bool) error {
	if !tf.any() {
		return nil
	}
	if sweep || chaosSweep {
		return fmt.Errorf("-timeseries/-serve-metrics record a single run; drop -sweep/-chaos-sweep or the telemetry flags")
	}
	if tf.tick <= 0 {
		return fmt.Errorf("-tick %g: the telemetry window width must be positive", tf.tick)
	}
	return nil
}

// chaosFlags carries the raw chaos-injection flag values into run.
type chaosFlags struct {
	fail, flap, brownout, loss string
	breakers                   string
	sweep                      bool
}

func (c chaosFlags) any() bool {
	return c.fail != "" || c.flap != "" || c.brownout != "" || c.loss != ""
}

// fleetConfig is the validated shape of one invocation.
type fleetConfig struct {
	sizes      []int
	serverNs   []int
	placements []fleet.Placement
	workers    int // aggregate budget
	queue      int // per backend
}

// parseConfig validates the flag combinations that describe the fleet
// and the pool, so nonsense fails with a clear message instead of a
// silent default or a confusing run.
func parseConfig(clientList, serverList, placementList string,
	workers, queue int, sweep bool) (*fleetConfig, error) {

	sizes, err := parsePositiveInts(clientList)
	if err != nil {
		return nil, fmt.Errorf("-clients: %w", err)
	}
	serverNs, err := parsePositiveInts(serverList)
	if err != nil {
		return nil, fmt.Errorf("-servers: %w", err)
	}
	placements, err := parsePlacements(placementList)
	if err != nil {
		return nil, err
	}
	if !sweep {
		if len(sizes) > 1 {
			return nil, fmt.Errorf("-clients lists several fleet sizes; add -sweep, or pick one")
		}
		if len(serverNs) > 1 {
			return nil, fmt.Errorf("-servers lists several server counts; add -sweep, or pick one")
		}
		if len(placements) > 1 {
			return nil, fmt.Errorf("-placement lists several policies; add -sweep, or pick one")
		}
	}
	if workers < 1 {
		return nil, fmt.Errorf("-server-workers %d: the pool needs at least one worker", workers)
	}
	if queue == 0 {
		return nil, fmt.Errorf("-queue 0 is ambiguous: use -queue -1 to disable waiting, or omit the flag for the default (%d)", core.DefaultQueueCap)
	}
	if queue < -1 {
		return nil, fmt.Errorf("-queue %d: negative capacities other than -1 (no waiting) are meaningless", queue)
	}
	for _, n := range serverNs {
		if workers%n != 0 {
			return nil, fmt.Errorf("-server-workers %d does not split evenly across %d servers; the sweep compares placements at equal aggregate capacity", workers, n)
		}
	}
	return &fleetConfig{sizes: sizes, serverNs: serverNs, placements: placements,
		workers: workers, queue: queue}, nil
}

// serverConfig shapes one backend for a pool of n: the aggregate
// worker budget splits evenly (parseConfig enforced divisibility), the
// queue capacity is per backend.
func (c *fleetConfig) serverConfig(n int) core.SessionConfig {
	return core.SessionConfig{Workers: c.workers / n, QueueCap: c.queue}
}

// popParams is the validated cohort shape every fleet in an
// invocation shares; population expands it for a given size.
type popParams struct {
	strats  []core.Strategy
	execs   int
	seed    uint64
	arrival fleet.ArrivalSpec
	drift   fleet.DriftSpec
	sizes   []int
}

func (pp popParams) population(n int) *fleet.Population {
	opts := []fleet.PopOption{
		fleet.WithSeed(pp.seed),
		fleet.WithStrategyMix(pp.strats...),
		fleet.WithExecutions(pp.execs),
	}
	if pp.arrival.Kind != fleet.ArriveNone {
		opts = append(opts, fleet.WithArrivalCurve(pp.arrival))
	}
	if pp.drift.Name != "" && pp.drift.Name != "none" {
		// A drift preset makes every handset's channel non-stationary.
		opts = append(opts, fleet.WithChannelMix(fleet.ChannelDrifting), fleet.WithChannelDrift(pp.drift))
	}
	if len(pp.sizes) > 0 {
		opts = append(opts, fleet.WithSizes(pp.sizes...))
	}
	return fleet.NewPopulation(n, opts...)
}

func run(appName, clientList string, execs int, strategyList, serverList, placementList string,
	workers, queue int, seed uint64, concurrency int, sweep bool, metrics string, cf chaosFlags,
	tf telemetryFlags, pf popFlags) error {

	a := apps.ByName(appName)
	if a == nil {
		names := make([]string, 0, 8)
		for _, x := range apps.All() {
			names = append(names, x.Name)
		}
		return fmt.Errorf("unknown benchmark %q (have %s)", appName, strings.Join(names, ", "))
	}
	strats, err := parseStrategies(strategyList)
	if err != nil {
		return err
	}
	cfg, err := parseConfig(clientList, serverList, placementList, workers, queue, sweep)
	if err != nil {
		return err
	}
	mode, err := fleet.ParseBreakerMode(cf.breakers)
	if err != nil {
		return err
	}
	if sweep && (cf.any() || cf.sweep) {
		return fmt.Errorf("chaos flags and -sweep are mutually exclusive; chaos runs are single configurations (or -chaos-sweep)")
	}
	if cf.sweep && cf.any() {
		return fmt.Errorf("-chaos-sweep injects its own fault shapes; drop -fail/-flap/-brownout/-loss")
	}
	if err := tf.validate(sweep, cf.sweep); err != nil {
		return err
	}
	pp := popParams{strats: strats, execs: execs, seed: seed}
	if pp.arrival, err = fleet.ParseArrival(pf.arrival); err != nil {
		return err
	}
	if pp.drift, err = fleet.ParseDrift(pf.drift); err != nil {
		return err
	}
	if pf.sizes != "" {
		if pp.sizes, err = parsePositiveInts(pf.sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
	}
	if pf.clientsOut != "" && (sweep || cf.sweep) {
		return fmt.Errorf("-clients-out records a single run; drop -sweep/-chaos-sweep")
	}
	chaos, err := parseChaos(cf.fail, cf.flap, cf.brownout, cf.loss, cfg.serverNs[0])
	if err != nil {
		return err
	}

	fmt.Printf("profiling %s...\n", a.Name)
	env, err := experiments.Prepare(a, seed)
	if err != nil {
		return err
	}
	w := fleet.WorkloadOf(env)

	if sweep {
		return runSweep(w, cfg, pp, concurrency)
	}
	if cf.sweep {
		return runChaosSweep(w, cfg, pp, concurrency)
	}

	n := cfg.sizes[0]
	ns := cfg.serverNs[0]
	spec := fleet.Spec{
		Workload:   w,
		Population: pp.population(n),
		Server:     cfg.serverConfig(ns),
	}
	spec.Servers = ns
	spec.Placement = cfg.placements[0]
	spec.Concurrency = concurrency
	spec.Chaos = chaos
	spec.Breakers = mode
	if tf.any() {
		spec.Telemetry = &fleet.TelemetrySpec{Tick: energy.Seconds(tf.tick)}
	}
	if tf.serve != "" {
		reg := obs.NewRegistry()
		spec.Telemetry.Live = reg
		ln, err := net.Listen("tcp", tf.serve)
		if err != nil {
			return fmt.Errorf("-serve-metrics: %w", err)
		}
		defer ln.Close()
		fmt.Printf("serving live metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ln.Addr())
		srv := &http.Server{Handler: obs.HTTPHandler(reg, obs.WithPprof())}
		defer srv.Close()
		go srv.Serve(ln) //nolint:errcheck
	}

	// Per-client records retire through the sink: -clients-out writes
	// them, otherwise only the first failure is kept.
	var catch errCatcher
	var cw *clientWriter
	spec.ResultSink = catch.see
	if pf.clientsOut != "" {
		out := os.Stdout
		if pf.clientsOut != "-" {
			f, err := os.Create(pf.clientsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		cw = newClientWriter(out, n, spec)
		spec.ResultSink = func(cr fleet.ClientResult) {
			catch.see(cr)
			cw.write(cr)
		}
	}

	res, err := fleet.Run(spec)
	if err != nil {
		return err
	}
	if cw != nil {
		if err := cw.finish(); err != nil {
			return fmt.Errorf("-clients-out: %w", err)
		}
	}
	res.WriteSummary(os.Stdout)
	if tf.path != "" {
		out := os.Stdout
		if tf.path != "-" {
			f, err := os.Create(tf.path)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := res.Series.WriteJSONL(out); err != nil {
			return err
		}
	}
	if err := catch.err(res); err != nil {
		return err
	}
	if metrics != "" {
		out := os.Stdout
		if metrics != "-" {
			f, err := os.Create(metrics)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := res.Registry().WriteJSON(out); err != nil {
			return err
		}
	}
	return nil
}

// runSweep prints the aggregate table: one row per (fleet size, server
// count, placement), each a mixed-strategy fleet against the same
// aggregate worker budget, so the capacity cliff — and how each
// placement policy spends the same capacity — lines up column by
// column.
func runSweep(w fleet.Workload, cfg *fleetConfig, pp popParams, concurrency int) error {
	fmt.Printf("\nfleet sweep on %s — aggregate workers=%d, queue/backend=%d, %d executions/client, strategies %v\n\n",
		w.Name, cfg.workers, cfg.queue, pp.execs, pp.strats)
	fmt.Printf("%7s %7s %-8s | %12s %12s | %6s %6s %6s | %9s %6s\n",
		"clients", "servers", "place", "energy/cli", "total", "served", "shed", "shed%", "max wait", "depth")
	for _, n := range cfg.sizes {
		for _, ns := range cfg.serverNs {
			for _, pl := range cfg.placements {
				var catch errCatcher
				spec := fleet.Spec{
					Workload:   w,
					Population: pp.population(n),
					Server:     cfg.serverConfig(ns),
					// Sweeps only read aggregates: stream-and-drop the
					// per-client records so big cells stay flat in memory.
					ResultSink: catch.see,
				}
				spec.Servers = ns
				spec.Placement = pl
				spec.Concurrency = concurrency
				res, err := fleet.Run(spec)
				if err != nil {
					return err
				}
				if err := catch.err(res); err != nil {
					return err
				}
				maxWait := res.Server.WaitDist.Max
				total := res.TotalEnergy()
				fmt.Printf("%7d %7d %-8s | %12v %12v | %6d %6d %5.1f%% | %7.2fms %6d\n",
					n, ns, pl, total/energy.Joules(n), total,
					res.Server.Served, res.Server.Shed, 100*res.ShedRate(),
					maxWait*1e3, res.Server.MaxQueueDepth)
			}
		}
	}
	return nil
}

// runChaosSweep prints the resilience grid: every canonical fault
// shape injected on backend s0, crossed with every placement policy
// and every breaker scope (fleet.SweepChaos), at one fleet size and
// server count. The interesting comparison is down the breakers
// column: per-backend breakers should shed and fall back strictly less
// than a global breaker under a single-backend fault, because only the
// faulty backend goes dark.
func runChaosSweep(w fleet.Workload, cfg *fleetConfig, pp popParams, concurrency int) error {
	ns := cfg.serverNs[0]
	if ns < 2 {
		return fmt.Errorf("-chaos-sweep needs -servers >= 2: a single-backend fault is only survivable when another backend exists")
	}
	n := cfg.sizes[0]
	fmt.Printf("\nchaos sweep on %s — %d clients, %d servers, fault on s0, aggregate workers=%d, queue/backend=%d\n\n",
		w.Name, n, ns, cfg.workers, cfg.queue)
	fmt.Printf("%-9s %-8s %-8s | %12s | %6s %6s %6s %6s %6s %7s\n",
		"fault", "place", "breakers", "energy/cli", "served", "shed", "fellbk", "failov", "warmup", "crashes")
	base := fleet.Spec{
		Workload:    w,
		Population:  pp.population(n),
		Server:      cfg.serverConfig(ns),
		Servers:     ns,
		Concurrency: concurrency,
	}
	return fleet.SweepChaos(base, func(fault string, pl fleet.Placement, mode fleet.BreakerMode, res *fleet.Result) {
		flaps := 0
		for _, b := range res.Backends {
			flaps += b.Flaps
		}
		fmt.Printf("%-9s %-8s %-8s | %12v | %6d %6d %6d %6d %6d %7d\n",
			fault, pl, mode,
			res.TotalEnergy()/energy.Joules(n),
			res.Server.Served, res.Server.Shed, res.TotalFallbacks(),
			res.TotalFailovers(), res.TotalWarmups(), flaps)
	})
}

// parseChaos folds the four chaos flags into per-backend fault specs
// (nil when no flag is set). Backend names must exist in a pool of
// `servers` backends, so typos fail before a run silently injects
// nothing.
func parseChaos(fail, flap, brownout, loss string, servers int) ([]fleet.BackendChaos, error) {
	if fail == "" && flap == "" && brownout == "" && loss == "" {
		return nil, nil
	}
	chaos := make([]fleet.BackendChaos, servers)
	idx := func(flag, name string) (int, error) {
		name = strings.TrimSpace(name)
		for i := 0; i < servers; i++ {
			if name == fmt.Sprintf("s%d", i) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("%s: unknown backend %q (the pool has s0..s%d)", flag, name, servers-1)
	}
	secs := func(flag, s string) (energy.Seconds, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("%s: %q is not a positive duration in virtual seconds", flag, s)
		}
		return energy.Seconds(v), nil
	}
	for _, ent := range splitEntries(fail) {
		name, rest, ok := strings.Cut(ent, "@")
		if !ok {
			return nil, fmt.Errorf("-fail %q: want name@time, e.g. s0@0.002", ent)
		}
		i, err := idx("-fail", name)
		if err != nil {
			return nil, err
		}
		t, err := secs("-fail", rest)
		if err != nil {
			return nil, err
		}
		chaos[i].FailAt = t
	}
	for _, ent := range splitEntries(flap) {
		name, rest, ok := strings.Cut(ent, "@")
		if !ok {
			return nil, fmt.Errorf("-flap %q: want name@at[/down[/every]], e.g. s0@0.001/0.002/0.004", ent)
		}
		i, err := idx("-flap", name)
		if err != nil {
			return nil, err
		}
		parts := strings.Split(rest, "/")
		if len(parts) > 3 {
			return nil, fmt.Errorf("-flap %q: want at most at/down/every", ent)
		}
		if chaos[i].FlapAt, err = secs("-flap", parts[0]); err != nil {
			return nil, err
		}
		if len(parts) > 1 {
			if chaos[i].FlapDown, err = secs("-flap", parts[1]); err != nil {
				return nil, err
			}
		}
		if len(parts) > 2 {
			if chaos[i].FlapEvery, err = secs("-flap", parts[2]); err != nil {
				return nil, err
			}
		}
	}
	for _, ent := range splitEntries(brownout) {
		name, rest, ok := strings.Cut(ent, "@")
		if !ok {
			return nil, fmt.Errorf("-brownout %q: want name@at[+for]xfactor, e.g. s0@0.0005x8", ent)
		}
		i, err := idx("-brownout", name)
		if err != nil {
			return nil, err
		}
		times, factor, ok := strings.Cut(rest, "x")
		if !ok {
			return nil, fmt.Errorf("-brownout %q: missing the xfactor suffix, e.g. s0@0.0005x8", ent)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(factor), 64)
		if err != nil || f <= 1 {
			return nil, fmt.Errorf("-brownout %q: factor %q must be > 1", ent, factor)
		}
		chaos[i].BrownoutFactor = f
		at, dur, hasDur := strings.Cut(times, "+")
		if chaos[i].BrownoutAt, err = secs("-brownout", at); err != nil {
			return nil, err
		}
		if hasDur {
			if chaos[i].BrownoutFor, err = secs("-brownout", dur); err != nil {
				return nil, err
			}
		}
	}
	for _, ent := range splitEntries(loss) {
		name, rest, ok := strings.Cut(ent, ":")
		if !ok {
			return nil, fmt.Errorf("-loss %q: want name:rate[/burst], e.g. s0:0.35/4", ent)
		}
		i, err := idx("-loss", name)
		if err != nil {
			return nil, err
		}
		rate, burst, hasBurst := strings.Cut(rest, "/")
		r, err := strconv.ParseFloat(strings.TrimSpace(rate), 64)
		if err != nil || r <= 0 || r >= 1 {
			return nil, fmt.Errorf("-loss %q: rate %q must be in (0, 1)", ent, rate)
		}
		chaos[i].LossRate = r
		if hasBurst {
			b, err := strconv.ParseFloat(strings.TrimSpace(burst), 64)
			if err != nil || b < 1 {
				return nil, fmt.Errorf("-loss %q: burst %q must be >= 1", ent, burst)
			}
			chaos[i].LossBurst = b
		}
	}
	return chaos, nil
}

// splitEntries splits a comma-separated flag value, dropping empties.
func splitEntries(list string) []string {
	var out []string
	for _, f := range strings.Split(list, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// errCatcher remembers the first failed client of a run. see is safe
// as a ResultSink: the emitter serializes calls.
type errCatcher struct{ id, msg string }

func (e *errCatcher) see(cr fleet.ClientResult) {
	if cr.Err != "" && e.msg == "" {
		e.id, e.msg = cr.ID, cr.Err
	}
}

// err reports the first failed client of the run res came from.
func (e *errCatcher) err(res *fleet.Result) error {
	if e.msg == "" {
		return nil
	}
	return fmt.Errorf("client %s: %s (%d of %d clients failed)",
		e.id, e.msg, res.Totals.Errors, res.Totals.Clients)
}

// clientRecord is one line of a -clients-out JSONL stream.
type clientRecord struct {
	Client    string  `json:"client"`
	Strategy  string  `json:"strategy"`
	EnergyJ   float64 `json:"energy_j"`
	TimeS     float64 `json:"time_s"`
	Served    int     `json:"served"`
	Shed      int     `json:"shed"`
	CacheHits int     `json:"cache_hits"`
	Fallbacks int     `json:"fallbacks"`
	Failovers int     `json:"failovers"`
	AvgWaitS  float64 `json:"avg_wait_s"`
	MaxWaitS  float64 `json:"max_wait_s"`
	Err       string  `json:"err,omitempty"`
}

// clientHeader is the first line of the stream: enough to validate a
// file without parsing every record.
type clientHeader struct {
	Schema  string `json:"schema"`
	Clients int    `json:"clients"`
	App     string `json:"app"`
	Arrival string `json:"arrival"`
	Drift   string `json:"drift"`
}

// clientWriter streams ClientResult records as JSONL. Records arrive
// in deterministic arrival order from the emitter (already
// serialized), so the file is byte-stable for a given spec. The first
// encode error sticks; finish reports it after the run.
type clientWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

func newClientWriter(out io.Writer, n int, spec fleet.Spec) *clientWriter {
	drift := spec.Population.Drift().Name
	if drift == "" {
		drift = "none"
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	cw := &clientWriter{bw: bw, enc: json.NewEncoder(bw)}
	cw.err = cw.enc.Encode(clientHeader{
		Schema:  "greenvm-fleet-clients/1",
		Clients: n,
		App:     spec.Workload.Name,
		Arrival: spec.Population.Arrival().String(),
		Drift:   drift,
	})
	return cw
}

func (cw *clientWriter) write(cr fleet.ClientResult) {
	if cw.err != nil {
		return
	}
	cw.err = cw.enc.Encode(clientRecord{
		Client:    cr.ID,
		Strategy:  cr.Strategy.String(),
		EnergyJ:   float64(cr.Energy),
		TimeS:     float64(cr.Time),
		Served:    cr.Served,
		Shed:      cr.Shed,
		CacheHits: cr.Session.CacheHits,
		Fallbacks: cr.Stats.Fallbacks,
		Failovers: cr.Stats.Failovers,
		AvgWaitS:  float64(cr.AvgWait),
		MaxWaitS:  float64(cr.MaxWait),
		Err:       cr.Err,
	})
}

func (cw *clientWriter) finish() error {
	if cw.err != nil {
		return cw.err
	}
	return cw.bw.Flush()
}

func parseStrategies(list string) ([]core.Strategy, error) {
	var out []core.Strategy
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, s := range core.Strategies {
			if strings.EqualFold(s.String(), name) {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown strategy %q (have R, I, L1, L2, L3, AL, AA)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no strategies in %q", list)
	}
	return out, nil
}

// parsePlacements parses the -placement flag: one policy, a comma
// list, or "all" for every policy in sweep order.
func parsePlacements(list string) ([]fleet.Placement, error) {
	if strings.EqualFold(strings.TrimSpace(list), "all") {
		return fleet.Placements, nil
	}
	var out []fleet.Placement
	for _, name := range strings.Split(list, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		p, err := fleet.ParsePlacement(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no placements in %q", list)
	}
	return out, nil
}

func parsePositiveInts(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("%d must be positive", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
