// Command greenbench is greenvm's benchmark: it runs fixed batches of
// simulator work (the Fig 7 strategy grid, a city-scale fleet and a
// chaos fleet), checks their outputs, and reports host time, memory
// and a per-package breakdown of where the time went.
//
// Each rep is a fresh child process running this same binary, so every
// rep starts from an empty heap and has its own peak RSS. A rep times
// set-up (building the inputs from the seed) and the batch separately.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fleet-city --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh -out new.json -compare bench/baseline.json
//
// Every metric prints as "workload metric value unit"; the last line
// of standard output is a JSON summary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A metricDef names a reported metric. Bound, for end-to-end metrics,
// is the share of the base median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off: medians over reps.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"execs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of the traced rep. Every workload reports
// every one; a layer a workload does not use reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range profiledPackages {
		defs = append(defs, metricDef{p + ".self_s", "s", "lower", 0})
	}
	for _, p := range setupPackages {
		defs = append(defs, metricDef{p + ".setup_self_s", "s", "lower", 0})
	}
	return append(defs, []metricDef{
		{"experiments.prepare_s", "s", "lower", 0},
		{"experiments.cell_ms_p50", "ms", "lower", 0},
		{"experiments.cell_ms_p90", "ms", "lower", 0},
		{"core.memo_hits", "count", "higher", 0},
		{"core.memo_hit_ratio", "ratio", "higher", 0},
		{"core.local_frac", "ratio", "lower", 0},
		{"core.retries", "count", "lower", 0},
		{"core.probes", "count", "lower", 0},
		{"core.fallbacks", "count", "lower", 0},
		{"core.sheds", "count", "lower", 0},
		{"core.local_compiles", "count", "lower", 0},
		{"core.remote_compiles", "count", "lower", 0},
		{"fleet.run_self_s", "s", "lower", 0},
		{"fleet.sink_s", "s", "lower", 0},
		{"fleet.client_host_ms_p50", "ms", "lower", 0},
		{"fleet.client_host_ms_p90", "ms", "lower", 0},
		{"fleet.client_host_ms_p99", "ms", "lower", 0},
		{"fleet.shed_ratio", "ratio", "lower", 0},
		{"fleet.failovers", "count", "lower", 0},
		{"fleet.warmups", "count", "lower", 0},
		{"fleet.flaps", "count", "lower", 0},
		{"fleet.session_cache_hit_ratio", "ratio", "higher", 0},
		{"obs.windows", "count", "lower", 0},
		{"obs.series_write_s", "s", "lower", 0},
		{"obs.series_bytes", "B", "lower", 0},
		{"runtime.cpu_util", "ratio", "higher", 0},
		{"runtime.alloc_mb", "MB", "lower", 0},
		{"runtime.gc_cpu_frac", "ratio", "lower", 0},
		{"runtime.live_heap_per_client_b", "B", "lower", 0},
		{"trace.overhead_frac", "ratio", "lower", 0},
		{"trace.samples", "count", "higher", 0},
		{"trace.pkg_coverage_frac", "ratio", "higher", 0},
		{"box.calib_ms", "ms", "lower", 0},
	}...)
}()

// repBudget caps the time one workload spends adding reps, so a run
// ends well within three minutes even on a slow host.
const repBudget = 150 * time.Second

// traceDir holds the traced reps' CPU profiles and spans.
var traceDir = filepath.Join(".bench_build", "trace")

func main() {
	name := flag.String("workload", "", "workload to run: fig7-grid, fleet-city or fleet-chaos (empty: all)")
	seed := flag.Uint64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "time end-to-end batches for at least this many seconds in all")
	reps := flag.Int("reps", 0, "minimum end-to-end reps per workload (0: the workload's own, 3 for the grid and 5 for the fleets)")
	trace := flag.Int("trace", -1, "0: end-to-end reps only; 1: traced per-layer run only; -1: both")
	out := flag.String("out", "", "write the full report as JSON to this file")
	compare := flag.String("compare", "", "compare this run against a report or baseline JSON file")
	child := flag.Bool("child", false, "run one rep in this process and print it as JSON (the benchmark runs its reps this way)")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *reps, *trace, *out, *compare, *child); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, minReps, trace int, out, compare string, child bool) error {
	var ws []workload
	if name == "" {
		ws = workloads
	} else if w, ok := workloadByName(name); ok {
		ws = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace < -1 || trace > 1 {
		return fmt.Errorf("-trace %d: want 0, 1 or -1", trace)
	}
	if minReps < 0 {
		return fmt.Errorf("-reps %d: want 0 or more", minReps)
	}
	if child {
		if len(ws) != 1 {
			return fmt.Errorf("-child needs one -workload")
		}
		rep := runRep(ws[0], seed, trace == 1, seconds)
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	var base *report
	if compare != "" {
		var err error
		if base, err = loadReport(compare); err != nil {
			return err
		}
	}

	rpt := &report{
		Seed:       seed,
		Go:         runtime.Version(),
		GOMAXPROCS: workers,
		NProc:      runtime.NumCPU(),
		CalibMS:    calibrate(),
	}
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "greenbench: %s, seed %d\n", w.name, seed)
		wr, err := measureWorkload(w, seed, seconds, minReps, trace, rpt.CalibMS)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rpt.Workloads = append(rpt.Workloads, *wr)
	}
	if out != "" {
		if err := writeReport(out, rpt); err != nil {
			return err
		}
	}
	if base != nil {
		writeComparison(os.Stdout, base, rpt)
	}
	return printMetrics(os.Stdout, rpt, trace)
}

// repResult is one rep's outcome, as the child prints it.
type repResult struct {
	Traced bool    `json:"traced,omitempty"`
	SetupS float64 `json:"setup_s"`
	// WallS holds each batch's timed run; a rep repeats its batch until
	// its share of the run's seconds is spent (a traced rep runs one).
	WallS     []float64          `json:"wall_s"`
	Execs     int                `json:"execs"` // per batch
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Digest    string             `json:"digest"`
	Err       string             `json:"err,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// attempted counts the rep's simulated executions: its timed batches,
// plus the batch it died in if it failed.
func (r repResult) attempted() int {
	n := len(r.WallS)
	if r.Err != "" {
		n++
	}
	return r.Execs * n
}

// runRep runs one rep of w in this process: set-up, then the batch
// until budget seconds of batches are timed, checking every batch's
// outputs and that all batches agree. A traced rep runs one batch
// under spans and a CPU profile and folds the profile by package.
func runRep(w workload, seed uint64, traced bool, budget float64) repResult {
	rep := repResult{Traced: traced, Execs: w.execs}
	if err := rep.measure(w, seed, traced, budget); err != nil {
		rep.Err = err.Error()
	}
	return rep
}

func (rep *repResult) measure(w workload, seed uint64, traced bool, budget float64) error {
	var tr *tracer
	var profile string
	var stopProfile func() error
	if traced {
		tr = newTracer()
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		profile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.pprof", w.name, seed))
		var err error
		if stopProfile, err = profileTo(profile); err != nil {
			return err
		}
		defer stopProfile() //nolint:errcheck // a no-op once the success path has stopped it and checked the error
	}

	var b batch
	var err error
	setupSpan := tr.begin("setup", -1)
	start := time.Now()
	inPhase("setup", func() { b, err = w.setup(tr, setupSpan, seed) })
	rep.SetupS = time.Since(start).Seconds()
	tr.end(setupSpan)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var before, after runtimeSample
	for total := 0.0; len(rep.WallS) == 0 || (!traced && total < budget); {
		before = readRuntime()
		runSpan := tr.begin("run", -1)
		inPhase("run", func() { err = b.run(tr, runSpan) })
		tr.end(runSpan)
		after = readRuntime()
		if err != nil {
			return err
		}
		digest, err := b.verify()
		if err != nil {
			return err
		}
		if rep.Digest != "" && digest != rep.Digest {
			return fmt.Errorf("batch %d digest %s differs from batch 0's %s", len(rep.WallS), digest, rep.Digest)
		}
		rep.Digest = digest
		wall := after.wall.Sub(before.wall).Seconds()
		rep.WallS = append(rep.WallS, wall)
		total += wall
		if len(rep.WallS) == 1 {
			// Later batches raise the peak by amounts that depend on
			// when the collector ran, so the peak is taken where a user's
			// single run would end: after set-up and one batch.
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				return fmt.Errorf("peak RSS: %w", err)
			}
			rep.PeakRSSMB = float64(ru.Maxrss) * 1024 / (1 << 20) // Maxrss is in KiB on Linux
		}
	}
	if !traced {
		return nil
	}
	if err := stopProfile(); err != nil {
		return err
	}
	rep.Layers, err = traceLayers(tr, b, before, after, profile)
	return err
}

// traceLayers gathers a traced rep's per-layer metrics: the batch's
// own counts, span sums, runtime counter deltas over the run, and the
// CPU profile's self time by package for each phase.
func traceLayers(tr *tracer, b batch, before, after runtimeSample, profile string) (map[string]float64, error) {
	m := map[string]float64{}
	b.layers(tr, m)
	m["experiments.prepare_s"] = tr.sum("experiments.Prepare")
	m["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	if cpu := after.totCPU - before.totCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	wall := after.wall.Sub(before.wall).Seconds()
	m["runtime.cpu_util"] = (after.procCPU - before.procCPU).Seconds() / (wall * float64(runtime.GOMAXPROCS(0)))

	runMS, total, err := foldProfile(profile, "run")
	if err != nil {
		return nil, err
	}
	var covered float64
	for _, p := range profiledPackages {
		m[p+".self_s"] = runMS[p] / 1000
		covered += runMS[p]
	}
	if total > 0 {
		m["trace.pkg_coverage_frac"] = covered / total
	}
	m["trace.samples"] = total / 10 // pprof samples every 10 ms
	setupMS, _, err := foldProfile(profile, "setup")
	if err != nil {
		return nil, err
	}
	for _, p := range setupPackages {
		m[p+".setup_self_s"] = setupMS[p] / 1000
	}

	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(strings.TrimSuffix(profile, ".pprof")+".spans.json", spans, 0o644)
}

// spawnRep runs one rep in a fresh child process.
func spawnRep(w workload, seed uint64, traced bool, budget float64) repResult {
	failed := func(err error) repResult {
		return repResult{Traced: traced, Execs: w.execs, Err: err.Error()}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(budget, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), repBudget)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return failed(fmt.Errorf("rep process: %w", err))
	}
	var rep repResult
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return failed(fmt.Errorf("rep output: %w", err))
	}
	return rep
}

// measureWorkload runs w's reps and folds them into a workload report.
// For trace 0 or -1 it adds end-to-end reps, each timing batches for
// seconds/minReps, until there are minReps reps (0: w.reps) and seconds
// of timed batches; for trace 1 or -1 it then adds one traced rep. A
// trace-1 run makes one single-batch untraced rep, the reference for
// the tracing overhead.
func measureWorkload(w workload, seed uint64, seconds float64, minReps, trace int, calibMS float64) (*workloadReport, error) {
	if minReps == 0 {
		minReps = w.reps
	}
	if trace == 1 {
		minReps, seconds = 1, 0
	}
	start := time.Now()
	var reps []repResult
	var batchS float64
	for len(reps) < minReps || batchS < seconds {
		repStart := time.Now()
		rep := spawnRep(w, seed, false, seconds/float64(minReps))
		reps = append(reps, rep)
		for _, s := range rep.WallS {
			batchS += s
		}
		if rep.Err != "" || time.Since(start)+time.Since(repStart) > repBudget {
			break
		}
	}
	if trace != 0 {
		reps = append(reps, spawnRep(w, seed, true, 0))
	}
	return fold(w, reps, trace, calibMS)
}

// fold checks reps against each other and summarizes them. Every
// rep's digest must equal the most common one; a rep that errored,
// failed a check or disagrees counts all its executions as failed.
// Times per batch are pooled over the reps.
func fold(w workload, reps []repResult, trace int, calibMS float64) (*workloadReport, error) {
	wr := &workloadReport{Name: w.name, Reps: reps}
	votes := map[string]int{}
	for _, r := range reps {
		if r.Err == "" {
			votes[r.Digest]++
		}
	}
	for d, n := range votes {
		if n > votes[wr.Digest] || (n == votes[wr.Digest] && d < wr.Digest) {
			wr.Digest = d
		}
	}
	var setups, walls, rates, rss []float64
	var traced *repResult
	for i, r := range reps {
		wr.Attempted += r.attempted()
		switch {
		case r.Err != "":
			wr.Failed += r.attempted()
			wr.Errors = append(wr.Errors, r.Err)
		case r.Digest != wr.Digest:
			wr.Failed += r.attempted()
			wr.Errors = append(wr.Errors, fmt.Sprintf("rep %d digest %s differs from %s", i, r.Digest, wr.Digest))
		case r.Traced:
			traced = &reps[i]
		default:
			setups = append(setups, r.SetupS)
			rss = append(rss, r.PeakRSSMB)
			for _, s := range r.WallS {
				walls = append(walls, s)
				rates = append(rates, float64(r.Execs)/s)
			}
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no rep succeeded: %v", wr.Errors)
	}
	wr.EndToEnd = map[string]stat{
		"setup_s":     statOf(setups),
		"wall_s":      statOf(walls),
		"execs_per_s": statOf(rates),
		"peak_rss_mb": statOf(rss),
	}
	if trace != 0 {
		wr.PerLayer = map[string]float64{}
		if traced != nil {
			for k, v := range traced.Layers {
				wr.PerLayer[k] = v
			}
			wr.PerLayer["trace.overhead_frac"] = traced.WallS[0]/wr.EndToEnd["wall_s"].Median - 1
		}
		wr.PerLayer["box.calib_ms"] = calibMS
	}
	return wr, nil
}

// stat is a metric's distribution over reps: median, first and third
// quartiles, and the number of reps.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func statOf(xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns the three quartiles of xs by the exclusive method
// (Python's statistics.quantiles default); for one value, all three
// are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// report is the full output of one invocation, as -out writes it.
type report struct {
	Seed       uint64           `json:"seed"`
	Go         string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	CalibMS    float64          `json:"box_calib_ms"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Reps      []repResult        `json:"reps"`
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baseline is the file of reference runs kept with the benchmark: two
// sets of the same code on one host.
type baseline struct {
	Sets []report `json:"sets"`
}

// loadReport reads a report written by -out, or a baseline file, whose
// last set it returns.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err == nil && len(b.Sets) > 0 {
		return &b.Sets[len(b.Sets)-1], nil
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads in report")
	}
	return &r, nil
}

// value is one metric in the summary line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics prints every metric as "workload metric value unit"
// (end-to-end ones with their quartiles and rep count), then the
// summary JSON line: with one workload the metrics keep their names,
// with several they are prefixed by the workload's.
func printMetrics(w io.Writer, r *report, trace int) error {
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	key := func(wl, metric string) string {
		if len(r.Workloads) == 1 {
			return metric
		}
		return wl + "." + metric
	}
	for _, wr := range r.Workloads {
		summary.Attempted += wr.Attempted
		summary.Failed += wr.Failed
		summary.Correct = summary.Correct && wr.Failed == 0
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stderr, "greenbench: %s: %s\n", wr.Name, e)
		}
		fmt.Fprintf(w, "%s failed_frac %g ratio (%d of %d executions) digest %s\n",
			wr.Name, float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted, wr.Digest)
		if trace != 1 {
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.Name]
				fmt.Fprintf(w, "%s %s %g %s q1=%g q3=%g n=%d\n", wr.Name, d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
				summary.Metrics[key(wr.Name, d.Name)] = value{s.Median, d.Unit}
			}
		}
		if trace != 0 {
			for _, d := range perLayer {
				v := wr.PerLayer[d.Name]
				fmt.Fprintf(w, "%s %s %g %s\n", wr.Name, d.Name, v, d.Unit)
				summary.Metrics[key(wr.Name, d.Name)] = value{v, d.Unit}
			}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
