package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"strings"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/fleet"
	"greenvm/internal/obs"
)

// workers is the simulator's parallelism in every rep: the grid
// runner's workers and the fleet's client concurrency. Reps also run
// with GOMAXPROCS=workers, so the load is fixed whatever the host size.
// One thread leaves the other cores to the runtime and the host: on a
// shared two-core host, two workers made batches slower and their
// times spread far wider than one worker's.
const workers = 1

// A workload is one fixed batch of simulator work at a stated size.
type workload struct {
	name, why string
	// execs is the number of simulated application executions in one
	// batch.
	execs int
	// reps is the default minimum of end-to-end reps per run. Each rep
	// sets up once and setup_s is their median, so workloads with a
	// short set-up run more of them.
	reps int
	// setup builds the batch's inputs from the seed; reps time it as
	// setup_s. Spans it records hang under the span parent.
	setup func(tr *tracer, parent int, seed uint64) (batch, error)
}

// A batch is a workload after set-up.
type batch interface {
	// run does the work a rep times as wall_s.
	run(tr *tracer, parent int) error
	// verify checks the outputs of run and returns their digest.
	verify() (string, error)
	// layers adds the per-layer counts read from the outputs to m.
	layers(tr *tracer, m map[string]float64)
}

// workloads are the benchmark's workloads at their benchmark sizes.
var workloads = []workload{
	gridWorkload(allApps(), 100),
	cityWorkload(1200),
	chaosWorkload(192, 2),
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func allApps() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return names
}

// prepare profiles and compiles the named apps on r, one
// experiments.Prepare span per app.
func prepare(r *experiments.Runner, tr *tracer, parent int, names []string, seed uint64) ([]*experiments.Env, error) {
	envs := make([]*experiments.Env, len(names))
	err := r.Do(len(names), func(i int) error {
		a := apps.ByName(names[i])
		if a == nil {
			return fmt.Errorf("unknown app %q", names[i])
		}
		sp := tr.begin("experiments.Prepare", parent)
		defer tr.end(sp)
		env, err := experiments.Prepare(a, seed)
		envs[i] = env
		return err
	})
	return envs, err
}

// gridWorkload is the Fig 7 strategy grid: every app × situation ×
// strategy cell, runs executions per cell, on the single-VM stack with
// each client's execution memo on. The memo replays repeated sizes, so
// a cell's host work is mostly one full execution per distinct size
// drawn; at 100 runs nearly every cell draws every size, which keeps
// the host work of a batch from depending on the seed.
func gridWorkload(names []string, runs int) workload {
	return workload{
		name: "fig7-grid",
		why: fmt.Sprintf("Fig 7 grid, %d apps x 3 situations x 7 strategies x %d runs, on the single-VM stack with the memo on; set-up profiles every app",
			len(names), runs),
		execs: len(names) * int(experiments.NumSituations) * len(core.Strategies) * runs,
		reps:  3,
		setup: func(tr *tracer, parent int, seed uint64) (batch, error) {
			r := experiments.NewRunner(workers)
			envs, err := prepare(r, tr, parent, names, seed)
			if err != nil {
				return nil, err
			}
			return &gridBatch{runner: r, envs: envs, runs: runs, seed: seed}, nil
		},
	}
}

type gridBatch struct {
	runner *experiments.Runner
	envs   []*experiments.Env
	runs   int
	seed   uint64

	// cells holds every Fig7Cell in RunFig7On's cell order: situation,
	// then strategy, then app.
	cells []experiments.Fig7Cell
	// normalized is RunFig7On's L1-normalized table; nil on traced
	// reps, which run the cells one by one.
	normalized *[experiments.NumSituations][7]float64
}

func (b *gridBatch) run(tr *tracer, parent int) error {
	nStrat, nEnv := len(core.Strategies), len(b.envs)
	if tr == nil {
		res, err := experiments.RunFig7On(b.runner, b.envs, b.runs, b.seed)
		if err != nil {
			return err
		}
		b.cells = make([]experiments.Fig7Cell, 0, int(experiments.NumSituations)*nStrat*nEnv)
		for sit := range res.Cells {
			for si := range core.Strategies {
				for _, env := range b.envs {
					b.cells = append(b.cells, res.Cells[sit][si][env.App.Name])
				}
			}
		}
		b.normalized = &res.Normalized
		return nil
	}
	// The same cells and seeds RunFig7On uses, one span per cell.
	b.cells = make([]experiments.Fig7Cell, int(experiments.NumSituations)*nStrat*nEnv)
	return b.runner.Do(len(b.cells), func(j int) error {
		sit := experiments.Situation(j / (nStrat * nEnv))
		strategy := core.Strategies[(j/nEnv)%nStrat]
		sp := tr.begin("experiments.RunScenario", parent)
		defer tr.end(sp)
		cell, err := experiments.RunScenario(b.envs[j%nEnv], sit, strategy, b.runs, b.seed+uint64(sit)*1000)
		b.cells[j] = cell
		return err
	})
}

func (b *gridBatch) verify() (string, error) {
	if err := checkGrid(b.cells, b.normalized); err != nil {
		return "", err
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, c := range b.cells {
		if err := enc.Encode(c); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkGrid holds the grid's outputs to what any correct run gives:
// every cell spent finite, positive energy, and L1 normalized to
// itself is exactly 1 in every situation.
func checkGrid(cells []experiments.Fig7Cell, normalized *[experiments.NumSituations][7]float64) error {
	for i, c := range cells {
		e := float64(c.Energy)
		if math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
			return fmt.Errorf("grid cell %d: energy %v is not finite and positive", i, e)
		}
	}
	if normalized == nil {
		return nil
	}
	for si, s := range core.Strategies {
		if s != core.StrategyL1 {
			continue
		}
		for sit := range normalized {
			if v := normalized[sit][si]; v != 1 {
				return fmt.Errorf("grid situation %d: L1 normalized to itself is %v, not 1", sit, v)
			}
		}
	}
	return nil
}

func (b *gridBatch) layers(tr *tracer, m map[string]float64) {
	var inv, local, hits, fallbacks int
	for _, c := range b.cells {
		for mode, n := range c.ModeCounts {
			inv += n
			if core.Mode(mode) != core.ModeRemote {
				local += n
			}
		}
		hits += c.MemoHits
		fallbacks += c.Fallbacks
	}
	m["core.memo_hits"] = float64(hits)
	m["core.memo_hit_ratio"] = ratio(hits, inv)
	m["core.local_frac"] = ratio(local, inv)
	m["core.fallbacks"] = float64(fallbacks)
	cells := tr.durations("experiments.RunScenario")
	m["experiments.cell_ms_p50"] = percentile(cells, 50)
	m["experiments.cell_ms_p90"] = percentile(cells, 90)
}

// fleetWorkload is a fleet run of n clients on one app; spec shapes the
// run from the prepared workload and the seed.
func fleetWorkload(name, why, app string, n, execsPerClient int,
	spec func(w fleet.Workload, seed uint64) (fleet.Spec, error)) workload {

	return workload{
		name:  name,
		why:   why,
		execs: n * execsPerClient,
		reps:  5,
		setup: func(tr *tracer, parent int, seed uint64) (batch, error) {
			envs, err := prepare(nil, tr, parent, []string{app}, seed)
			if err != nil {
				return nil, err
			}
			s, err := spec(fleet.WorkloadOf(envs[0]), seed)
			if err != nil {
				return nil, err
			}
			s.Concurrency = workers
			return &fleetBatch{spec: s, n: n}, nil
		},
	}
}

// cityWorkload is the city-scale run: n short-lived mf clients with
// identical inputs arriving over a diurnal curve on drifting channels,
// spread by p2c over four small backends, results streamed.
func cityWorkload(n int) workload {
	return fleetWorkload("fleet-city",
		fmt.Sprintf("city fleet, %d short-lived mf clients on identical inputs, diurnal arrivals, 4 p2c backends: launch-on-demand, emitter, population", n),
		"mf", n, 1,
		func(w fleet.Workload, seed uint64) (fleet.Spec, error) {
			arrival, err := fleet.ParseArrival("diurnal:0.5")
			if err != nil {
				return fleet.Spec{}, err
			}
			drift, err := fleet.ParseDrift("overnight")
			if err != nil {
				return fleet.Spec{}, err
			}
			return fleet.Spec{
				Workload: w,
				Population: fleet.NewPopulation(n, fleet.WithSeed(seed),
					fleet.WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
					fleet.WithExecutions(1), fleet.WithArrivalCurve(arrival),
					fleet.WithChannelMix(fleet.ChannelDrifting), fleet.WithChannelDrift(drift),
					fleet.WithSizes(16)),
				Server:    core.SessionConfig{Workers: 1, QueueCap: 16},
				Servers:   4,
				Placement: fleet.PlaceP2C,
				Telemetry: &fleet.TelemetrySpec{Tick: 0.01},
			}, nil
		})
}

// chaosArrivalRate is the chaos clients' arrival rate, in clients per
// virtual second: enough to keep the pool overloaded.
const chaosArrivalRate = 4800

// chaosWorkload is the chaos run: fe clients running execs executions
// each against two backends, one flapping and lossy, one browned out,
// with per-backend breakers and fine-grained telemetry. Every client
// uses one input size, and arrivals span many flap periods, so which
// executions fall back to the handset, and with it the host work of a
// batch, hardly depends on the seed.
func chaosWorkload(n, execs int) workload {
	return fleetWorkload("fleet-chaos",
		fmt.Sprintf("chaos fleet, %d fe clients x %d executions at size 20000 on a flapping lossy backend and a browned-out one: breakers, fallbacks, fine telemetry", n, execs),
		"fe", n, execs,
		func(w fleet.Workload, seed uint64) (fleet.Spec, error) {
			arrival, err := fleet.ParseArrival(fmt.Sprintf("uniform:%g", float64(n)/chaosArrivalRate))
			if err != nil {
				return fleet.Spec{}, err
			}
			return fleet.Spec{
				Workload: w,
				Population: fleet.NewPopulation(n, fleet.WithSeed(seed),
					fleet.WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
					fleet.WithExecutions(execs), fleet.WithArrivalCurve(arrival), fleet.WithSizes(20000)),
				Server:  core.SessionConfig{Workers: 2, QueueCap: 16},
				Servers: 2,
				Chaos: []fleet.BackendChaos{
					{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004, LossRate: 0.35, LossBurst: 4},
					{BrownoutAt: 0.0005, BrownoutFactor: 6},
				},
				Telemetry: &fleet.TelemetrySpec{Tick: 0.0005},
			}, nil
		})
}

type fleetBatch struct {
	spec fleet.Spec
	n    int
	res  *fleet.Result
	out  fleetOut
}

// fleetOut is what the benchmark folds from the streamed client
// records, in emission order, to check the fleet's own totals against.
type fleetOut struct {
	records      int
	energy       energy.Joules
	served, shed int
	errs         int
	firstErr     string
	stats        core.Stats // counters summed over clients
	sessionReqs  int
	seriesBytes  int64
	liveHeap     uint64 // traced reps: live heap at the cohort midpoint
	digest       hash.Hash
	digestErr    error
}

func (o *fleetOut) add(cr fleet.ClientResult) {
	o.records++
	o.energy += cr.Energy
	o.served += cr.Served
	o.shed += cr.Shed
	if cr.Err != "" {
		o.errs++
		if o.firstErr == "" {
			o.firstErr = cr.ID + ": " + cr.Err
		}
	}
	s := &cr.Stats
	for mode, n := range s.ModeCounts {
		o.stats.ModeCounts[mode] += n
	}
	o.stats.MemoHits += s.MemoHits
	o.stats.Retries += s.Retries
	o.stats.Probes += s.Probes
	o.stats.Fallbacks += s.Fallbacks
	o.stats.Sheds += s.Sheds
	o.stats.LocalCompiles += s.LocalCompiles
	o.stats.RemoteCompiles += s.RemoteCompiles
	o.sessionReqs += cr.Session.Requests
	if o.digestErr == nil {
		line, err := json.Marshal(cr)
		if err == nil {
			_, err = o.digest.Write(append(line, '\n'))
		}
		o.digestErr = err
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (b *fleetBatch) run(tr *tracer, parent int) error {
	b.out = fleetOut{digest: sha256.New()}
	spec := b.spec
	runSpan := -1
	spec.ResultSink = func(cr fleet.ClientResult) {
		sp := tr.begin("fleet.ResultSink", runSpan)
		b.out.add(cr)
		tr.end(sp)
		if tr != nil && b.out.records == b.n/2 {
			gc := tr.begin("runtime.GC", runSpan)
			b.out.liveHeap = liveHeap()
			tr.end(gc)
		}
	}
	runSpan = tr.begin("fleet.Run", parent)
	res, err := fleet.Run(spec)
	tr.end(runSpan)
	if err != nil {
		return err
	}
	b.res = res
	if res.Series == nil {
		return fmt.Errorf("fleet: run recorded no time series")
	}
	sp := tr.begin("obs.TimeSeries.WriteJSONL", parent)
	defer tr.end(sp)
	cw := &countingWriter{w: io.Discard}
	if err := res.Series.WriteJSONL(cw); err != nil {
		return err
	}
	b.out.seriesBytes = cw.n
	return nil
}

func (b *fleetBatch) verify() (string, error) {
	if b.out.digestErr != nil {
		return "", fmt.Errorf("fleet digest: %w", b.out.digestErr)
	}
	if err := checkFleet(&b.out, b.n, b.res); err != nil {
		return "", err
	}
	if err := writeStableSeries(b.out.digest, b.res.Series); err != nil {
		return "", fmt.Errorf("fleet digest: %w", err)
	}
	return hex.EncodeToString(b.out.digest.Sum(nil)), nil
}

// engineSampled reports whether a series is one the engine writes at
// tick boundaries (up, busy, depth) or on flap events (backend_down,
// backend_up, flushed). The engine stops rescheduling those events
// when the last client retires, and which client retires last depends
// on host timing, so their tail varies from run to run while every
// other series and every client record repeats exactly.
func engineSampled(series string) bool {
	for _, p := range []string{"up{", "busy{", "depth{", "backend_down{", "backend_up{", "flushed{"} {
		if strings.HasPrefix(series, p) {
			return true
		}
	}
	return false
}

// writeStableSeries writes the time series as JSONL without the
// engine-sampled series, dropping the windows this leaves empty at the
// end: the part of the series that repeats exactly.
func writeStableSeries(w io.Writer, ts *obs.TimeSeries) error {
	keep := func(m map[string]float64) map[string]float64 {
		var out map[string]float64
		for k, v := range m {
			if !engineSampled(k) {
				if out == nil {
					out = map[string]float64{}
				}
				out[k] = v
			}
		}
		return out
	}
	var wins []obs.Window
	for _, win := range ts.Windows() {
		win.Counters, win.Gauges = keep(win.Counters), keep(win.Gauges)
		wins = append(wins, win)
	}
	for len(wins) > 0 && wins[len(wins)-1].Counters == nil && wins[len(wins)-1].Gauges == nil {
		wins = wins[:len(wins)-1]
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(ts.Tick()); err != nil {
		return err
	}
	for i := range wins {
		if err := enc.Encode(&wins[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkFleet holds a fleet result to its conservation laws, checked
// from outside against the streamed records: every client retires
// exactly once and without error, the totals equal the sums of the
// records (energy bit for bit, summed in emission order), the
// per-client, pool and per-backend admission counts agree, and no
// queue exceeded its capacity.
func checkFleet(o *fleetOut, n int, res *fleet.Result) error {
	if o.records != n || res.Totals.Clients != n {
		return fmt.Errorf("fleet: %d records streamed and %d in totals for %d clients", o.records, res.Totals.Clients, n)
	}
	if o.errs > 0 || res.Totals.Errors > 0 {
		return fmt.Errorf("fleet: %d failed clients (totals say %d), first %s", o.errs, res.Totals.Errors, o.firstErr)
	}
	if math.Float64bits(float64(o.energy)) != math.Float64bits(float64(res.Totals.Energy)) {
		return fmt.Errorf("fleet: records sum to %v J, totals say %v J", float64(o.energy), float64(res.Totals.Energy))
	}
	var bServed, bShed int
	capacity := max(res.Server.QueueCap, 0)
	for _, b := range res.Backends {
		bServed += b.Served
		bShed += b.Shed
		if b.MaxQueueDepth > capacity {
			return fmt.Errorf("fleet: backend %s queue reached %d, capacity %d", b.ID, b.MaxQueueDepth, capacity)
		}
	}
	if o.served != res.Server.Served || bServed != res.Server.Served {
		return fmt.Errorf("fleet: served %d by clients, %d by pool, %d by backends", o.served, res.Server.Served, bServed)
	}
	if o.shed != res.Server.Shed || bShed != res.Server.Shed {
		return fmt.Errorf("fleet: shed %d by clients, %d by pool, %d by backends", o.shed, res.Server.Shed, bShed)
	}
	if res.Server.MaxQueueDepth > capacity {
		return fmt.Errorf("fleet: pool queue reached %d, capacity %d", res.Server.MaxQueueDepth, capacity)
	}
	return nil
}

func (b *fleetBatch) layers(tr *tracer, m map[string]float64) {
	o, res := &b.out, b.res
	var inv, local int
	for mode, n := range o.stats.ModeCounts {
		inv += n
		if core.Mode(mode) != core.ModeRemote {
			local += n
		}
	}
	m["core.memo_hits"] = float64(o.stats.MemoHits)
	m["core.memo_hit_ratio"] = ratio(o.stats.MemoHits, inv)
	m["core.local_frac"] = ratio(local, inv)
	m["core.retries"] = float64(o.stats.Retries)
	m["core.probes"] = float64(o.stats.Probes)
	m["core.fallbacks"] = float64(o.stats.Fallbacks)
	m["core.sheds"] = float64(o.stats.Sheds)
	m["core.local_compiles"] = float64(o.stats.LocalCompiles)
	m["core.remote_compiles"] = float64(o.stats.RemoteCompiles)
	m["fleet.shed_ratio"] = res.ShedRate()
	m["fleet.failovers"] = float64(res.TotalFailovers())
	m["fleet.warmups"] = float64(res.TotalWarmups())
	flaps := 0
	for _, b := range res.Backends {
		flaps += b.Flaps
	}
	m["fleet.flaps"] = float64(flaps)
	m["fleet.session_cache_hit_ratio"] = ratio(res.Server.CacheHits, o.sessionReqs)
	m["obs.windows"] = float64(len(res.Series.Windows()))
	m["obs.series_bytes"] = float64(o.seriesBytes)
	m["obs.series_write_s"] = tr.sum("obs.TimeSeries.WriteJSONL")
	m["fleet.sink_s"] = tr.sum("fleet.ResultSink")
	if i := tr.find("fleet.Run"); i >= 0 {
		m["fleet.run_self_s"] = tr.self(i)
	}
	m["runtime.live_heap_per_client_b"] = float64(o.liveHeap) / float64(b.n)

	// Host time between consecutive client retirements.
	var gaps []float64
	last := int64(-1)
	for _, s := range tr.spans {
		if s.Name != "fleet.ResultSink" {
			continue
		}
		if last >= 0 {
			gaps = append(gaps, float64(s.Start-last)/1e6)
		}
		last = s.Start
	}
	m["fleet.client_host_ms_p50"] = percentile(gaps, 50)
	m["fleet.client_host_ms_p90"] = percentile(gaps, 90)
	if len(gaps) >= 1000 {
		m["fleet.client_host_ms_p99"] = percentile(gaps, 99)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
