// Command benchreport runs the repo's headline benchmarks in-process
// and writes a machine-readable JSON report — the diffable perf
// trajectory artifact (BENCH_<n>.json) CI records per PR.
//
// The report carries the FigureGrid and Fleet timings (ns/op plus
// their reported metrics), the FleetScale streamed-population run
// (ns/op plus bytes_per_client — the mid-run live heap per handset,
// gating the streaming-results memory claim), the observability
// micro-benchmarks (P² sketch observation, cached registry child
// handles, windowed time-series writes — the telemetry hot path), the
// fleet placement sweep — shed rate, total energy and queue
// high-water mark per (fleet size, server count, placement) at equal
// aggregate server capacity — and the chaos sweep: fallbacks, served
// work and failovers per (fault shape, placement, breaker scope) with
// the fault injected on backend s0. The sweep numbers are
// deterministic — only the timings vary run to run.
//
// benchreport is also the trajectory's regression gate: -compare
// diffs ns_per_op against a previous report and exits non-zero when
// any benchmark regressed past -threshold (default 15%), unless the
// benchmark is named in -allow, or when any placement or chaos sweep
// row differs from the previous report's.
//
// Finally it is the schema checker for the telemetry artifacts:
// -validate-ts checks a fleetsim -timeseries JSONL file (header
// schema/tick, contiguous tick-aligned windows, finite non-negative
// counters), and -validate-prom checks a Prometheus text exposition
// (parseable samples; every family declared `# TYPE ... summary`
// carries quantile samples plus _sum and _count).
//
// Usage:
//
//	benchreport -out BENCH_10.json
//	benchreport -out /tmp/bench.json -compare BENCH_10.json
//	benchreport -compare BENCH_10.json -against /tmp/bench.json
//	benchreport -validate-ts ts.jsonl
//	benchreport -validate-prom metrics.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/experiments"
	"greenvm/internal/fleet"
	"greenvm/internal/obs"
	"greenvm/internal/rng"
)

type benchEntry struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	NsPerOp int64              `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type sweepRow struct {
	Clients   int     `json:"clients"`
	Servers   int     `json:"servers"`
	Placement string  `json:"placement"`
	Served    int     `json:"served"`
	Shed      int     `json:"shed"`
	ShedPct   float64 `json:"shed_pct"`
	EnergyJ   float64 `json:"total_energy_j"`
	MaxDepth  int     `json:"max_queue_depth"`
}

type chaosRow struct {
	Fault     string  `json:"fault"`
	Placement string  `json:"placement"`
	Breakers  string  `json:"breakers"`
	Served    int     `json:"served"`
	Shed      int     `json:"shed"`
	Fallbacks int     `json:"fallbacks"`
	Failovers int     `json:"failovers"`
	Warmups   int     `json:"warmups"`
	EnergyJ   float64 `json:"total_energy_j"`
}

type report struct {
	Schema         int          `json:"schema"`
	GoVersion      string       `json:"go_version"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	Benches        []benchEntry `json:"benches"`
	PlacementSweep []sweepRow   `json:"placement_sweep"`
	ChaosSweep     []chaosRow   `json:"chaos_sweep"`
}

func main() {
	out := flag.String("out", "BENCH_10.json", "report file; '-' for stdout")
	execs := flag.Int("execs", 4, "executions per client in the placement sweep")
	compare := flag.String("compare", "", "baseline report to diff ns_per_op and the sweep rows against; non-zero exit on regression or a changed row")
	against := flag.String("against", "", "with -compare: diff this report file instead of running the benchmarks")
	threshold := flag.Float64("threshold", 0.15, "with -compare: fractional ns_per_op growth that counts as a regression")
	allow := flag.String("allow", "", "with -compare: comma-separated benchmark names exempt from the gate")
	validateTS := flag.String("validate-ts", "", "validate a timeseries JSONL file ('-' for stdin) and exit; no benchmarks run")
	validateProm := flag.String("validate-prom", "", "validate a Prometheus text exposition file ('-' for stdin) and exit; no benchmarks run")
	flag.Parse()
	if *validateTS != "" || *validateProm != "" {
		if err := runValidate(os.Stdout, *validateTS, *validateProm); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *execs, *compare, *against, *threshold, allowSet(*allow)); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func allowSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			set[name] = true
		}
	}
	return set
}

func run(out string, execs int, compare, against string, threshold float64, allow map[string]bool) error {
	if compare != "" && against != "" {
		// Pure file-vs-file mode: gate a previously produced report
		// without re-running the benchmarks.
		cur, err := loadReport(against)
		if err != nil {
			return err
		}
		return gate(os.Stderr, compare, cur, threshold, allow)
	}
	rep, err := produce(out, execs)
	if err != nil {
		return err
	}
	if compare != "" {
		return gate(os.Stderr, compare, rep, threshold, allow)
	}
	return nil
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// gate diffs cur against the baseline report at basePath and returns
// an error when any non-allowlisted benchmark regressed past the
// threshold.
func gate(w io.Writer, basePath string, cur *report, threshold float64, allow map[string]bool) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	diffs, failed := compareReports(base, cur, threshold, allow)
	fmt.Fprintf(w, "bench comparison vs %s (threshold %+.0f%%):\n", basePath, 100*threshold)
	for _, d := range diffs {
		fmt.Fprintln(w, d)
	}
	if failed {
		return fmt.Errorf("benchmark regression past %.0f%% threshold, or sweep rows changed", 100*threshold)
	}
	return nil
}

// compareReports diffs ns_per_op per benchmark name. A benchmark
// regresses when its time grew by more than threshold; allowlisted
// names are reported but never fail the gate. Benchmarks present in
// only one report are informational. The sweep rows are deterministic,
// so any row that differs from the baseline's fails the gate.
func compareReports(base, cur *report, threshold float64, allow map[string]bool) (lines []string, failed bool) {
	old := map[string]benchEntry{}
	for _, b := range base.Benches {
		old[b.Name] = b
	}
	seen := map[string]bool{}
	for _, b := range cur.Benches {
		seen[b.Name] = true
		o, ok := old[b.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  %-24s %12d ns/op  (new benchmark)", b.Name, b.NsPerOp))
			continue
		}
		delta := float64(b.NsPerOp-o.NsPerOp) / float64(o.NsPerOp)
		tag := ""
		switch {
		case delta > threshold && allow[b.Name]:
			tag = "  REGRESSION (allowed)"
		case delta > threshold:
			tag = "  REGRESSION"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("  %-24s %12d -> %12d ns/op  %+6.1f%%%s",
			b.Name, o.NsPerOp, b.NsPerOp, 100*delta, tag))
	}
	for _, b := range base.Benches {
		if !seen[b.Name] {
			lines = append(lines, fmt.Sprintf("  %-24s missing from current report", b.Name))
		}
	}
	sweeps := append(diffRows("placement_sweep", base.PlacementSweep, cur.PlacementSweep),
		diffRows("chaos_sweep", base.ChaosSweep, cur.ChaosSweep)...)
	return append(lines, sweeps...), failed || len(sweeps) > 0
}

// diffRows lists the rows of a sweep that differ between two reports,
// matched by position.
func diffRows[T comparable](name string, base, cur []T) []string {
	var lines []string
	for i := 0; i < max(len(base), len(cur)); i++ {
		switch {
		case i >= len(base):
			lines = append(lines, fmt.Sprintf("  %s row %d: new %+v  SWEEP CHANGED", name, i, cur[i]))
		case i >= len(cur):
			lines = append(lines, fmt.Sprintf("  %s row %d: missing %+v  SWEEP CHANGED", name, i, base[i]))
		case base[i] != cur[i]:
			lines = append(lines, fmt.Sprintf("  %s row %d: %+v -> %+v  SWEEP CHANGED", name, i, base[i], cur[i]))
		}
	}
	return lines
}

func produce(out string, execs int) (*report, error) {
	fmt.Fprintln(os.Stderr, "profiling workloads...")
	feEnv, err := experiments.Prepare(apps.FE(), 42)
	if err != nil {
		return nil, err
	}
	sortEnv, err := experiments.Prepare(apps.Sort(), 42)
	if err != nil {
		return nil, err
	}
	envs := []*experiments.Env{feEnv, sortEnv}
	w := fleet.WorkloadOf(feEnv)
	// cohort is the mixed-strategy population every fleet bench and
	// sweep runs.
	cohort := func(n, execs int) *fleet.Population {
		return fleet.NewPopulation(n, fleet.WithSeed(42),
			fleet.WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
			fleet.WithExecutions(execs))
	}

	rep := &report{Schema: 10, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// FigureGrid: the Fig 7 scenario grid, serial and parallel — the
	// same shape as BenchmarkFigureGrid.
	for _, workers := range []int{1, 4} {
		workers := workers
		var norm float64
		r := testing.Benchmark(func(b *testing.B) {
			runner := experiments.NewRunner(workers)
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig7On(runner, envs, 20, 42)
				if err != nil {
					b.Fatal(err)
				}
				norm = res.Strategy(experiments.SitUniform, core.StrategyAL)
			}
		})
		rep.Benches = append(rep.Benches, benchEntry{
			Name: fmt.Sprintf("FigureGrid/workers=%d", workers),
			N:    r.N, NsPerOp: r.NsPerOp(),
			Metrics: map[string]float64{"AL_over_L1": norm},
		})
		fmt.Fprintf(os.Stderr, "FigureGrid/workers=%d: %d ns/op\n", workers, r.NsPerOp())
	}

	// Fleet: the 16-client mixed fleet, one and four simulation slots —
	// the same shape as BenchmarkFleet.
	for _, conc := range []int{1, 4} {
		conc := conc
		var rate float64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(fleet.Spec{Workload: w, Population: cohort(16, 3),
					Server: core.SessionConfig{Workers: 2, QueueCap: 4}, Concurrency: conc})
				if err != nil {
					b.Fatal(err)
				}
				if res.Totals.Errors > 0 {
					b.Fatalf("%d clients failed", res.Totals.Errors)
				}
				rate = res.ShedRate()
			}
		})
		rep.Benches = append(rep.Benches, benchEntry{
			Name: fmt.Sprintf("Fleet/slots=%d", conc),
			N:    r.N, NsPerOp: r.NsPerOp(),
			Metrics: map[string]float64{"shed_pct": 100 * rate},
		})
		fmt.Fprintf(os.Stderr, "Fleet/slots=%d: %d ns/op\n", conc, r.NsPerOp())
	}

	// FleetScale: the city-scale shape at bench size — a 2k-client
	// streamed population with diurnal arrivals and drifting channels,
	// records retired through a sink. bytes_per_client samples live
	// heap (after GC) at the cohort midpoint: it tracks the
	// launch-ahead window, not the fleet, and gates the streaming
	// memory claim alongside the wall-clock gate on ns_per_op.
	{
		const scaleN = 2000
		var bytesPerClient float64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arrival, err := fleet.ParseArrival("diurnal:0.5")
				if err != nil {
					b.Fatal(err)
				}
				drift, err := fleet.ParseDrift("overnight")
				if err != nil {
					b.Fatal(err)
				}
				spec := fleet.Spec{
					Workload: w,
					Population: fleet.NewPopulation(scaleN,
						fleet.WithSeed(42),
						fleet.WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
						fleet.WithExecutions(1),
						fleet.WithSizes(16),
						fleet.WithArrivalCurve(arrival),
						fleet.WithChannelMix(fleet.ChannelDrifting),
						fleet.WithChannelDrift(drift),
					),
					Server: core.SessionConfig{Workers: 4, QueueCap: 16},
				}
				runtime.GC()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				seen := 0
				spec.ResultSink = func(fleet.ClientResult) {
					if seen++; seen == scaleN/2 {
						runtime.GC()
						var m runtime.MemStats
						runtime.ReadMemStats(&m)
						bytesPerClient = (float64(m.HeapAlloc) - float64(before.HeapAlloc)) / scaleN
					}
				}
				res, err := fleet.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.Totals.Errors > 0 {
					b.Fatalf("%d clients failed", res.Totals.Errors)
				}
			}
		})
		rep.Benches = append(rep.Benches, benchEntry{
			Name: "FleetScale/clients=2000",
			N:    r.N, NsPerOp: r.NsPerOp(),
			Metrics: map[string]float64{"bytes_per_client": bytesPerClient},
		})
		fmt.Fprintf(os.Stderr, "FleetScale/clients=2000: %d ns/op, %.0f bytes/client\n", r.NsPerOp(), bytesPerClient)
	}

	// Observability micro-benchmarks: the per-event costs of the
	// telemetry hot path. P2Observe is one streaming-quantile update,
	// the child benchmarks are one counter/summary write through a
	// cached registry handle (label set resolved once, so the cost is a
	// mutex acquisition), and TimeSeriesAdd is one windowed counter
	// accumulation including amortized window materialization.
	for _, ob := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"P2Observe", func(b *testing.B) {
			p := obs.NewP2(0.95)
			r := rng.New(7)
			for i := 0; i < b.N; i++ {
				p.Observe(r.Float64())
			}
		}},
		{"CounterChildAdd", func(b *testing.B) {
			c := obs.NewRegistry().Counter("bench_events_total", "bench").WithLabels("backend", "s0")
			for i := 0; i < b.N; i++ {
				c.Add(1)
			}
		}},
		{"SummaryChildObserve", func(b *testing.B) {
			s := obs.NewRegistry().Summary("bench_wait_seconds", "bench").WithLabels("backend", "s0")
			r := rng.New(7)
			for i := 0; i < b.N; i++ {
				s.Observe(r.Float64())
			}
		}},
		{"TimeSeriesAdd", func(b *testing.B) {
			ts := obs.NewTimeSeries(0.0005, 512)
			name := obs.SeriesName("served", "backend", "s0")
			for i := 0; i < b.N; i++ {
				ts.AddIdx(int64(i>>4), name, 1)
			}
		}},
	} {
		r := testing.Benchmark(ob.fn)
		rep.Benches = append(rep.Benches, benchEntry{Name: ob.name, N: r.N, NsPerOp: r.NsPerOp()})
		fmt.Fprintf(os.Stderr, "%s: %d ns/op\n", ob.name, r.NsPerOp())
	}

	// Placement sweep at equal aggregate capacity: 4 workers total,
	// split across the pool; queue capacity 4 per backend.
	const aggregateWorkers, queuePerBackend = 4, 4
	for _, n := range []int{16, 32} {
		for _, servers := range []int{1, 2, 4} {
			placements := fleet.Placements
			if servers == 1 {
				placements = []fleet.Placement{fleet.PlaceCheapest}
			}
			for _, pl := range placements {
				res, err := fleet.Run(fleet.Spec{Workload: w, Population: cohort(n, execs),
					Server:  core.SessionConfig{Workers: aggregateWorkers / servers, QueueCap: queuePerBackend},
					Servers: servers, Placement: pl})
				if err != nil {
					return nil, err
				}
				if res.Totals.Errors > 0 {
					return nil, fmt.Errorf("placement sweep %d/%d/%s: %d clients failed", n, servers, pl, res.Totals.Errors)
				}
				rep.PlacementSweep = append(rep.PlacementSweep, sweepRow{
					Clients: n, Servers: servers, Placement: pl.String(),
					Served: res.Server.Served, Shed: res.Server.Shed,
					ShedPct:  100 * res.ShedRate(),
					EnergyJ:  float64(res.TotalEnergy()),
					MaxDepth: res.Server.MaxQueueDepth,
				})
			}
		}
	}

	// Chaos sweep (fleet.SweepChaos): every canonical fault shape on
	// backend s0 of a two-backend pool, crossed with placement and
	// breaker scope. 12 executions per client give an opened breaker
	// invocations left to shape.
	err = fleet.SweepChaos(fleet.Spec{Workload: w, Population: cohort(16, 12),
		Server: core.SessionConfig{Workers: 2, QueueCap: 16}, Servers: 2},
		func(fault string, pl fleet.Placement, mode fleet.BreakerMode, res *fleet.Result) {
			rep.ChaosSweep = append(rep.ChaosSweep, chaosRow{
				Fault: fault, Placement: pl.String(), Breakers: mode.String(),
				Served: res.Server.Served, Shed: res.Server.Shed,
				Fallbacks: res.TotalFallbacks(), Failovers: res.TotalFailovers(),
				Warmups: res.TotalWarmups(), EnergyJ: float64(res.TotalEnergy()),
			})
		})
	if err != nil {
		return nil, err
	}

	f := os.Stdout
	if out != "-" {
		f, err = os.Create(out)
		if err != nil {
			return nil, err
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}
