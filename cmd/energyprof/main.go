// Command energyprof prints the platform energy model (the paper's
// Fig 1 and Fig 2 constants plus derived quantities) and, with -app,
// profiles benchmark applications: per-mode energy/time curves,
// serialized payload sizes, and compilation costs per level. With
// -outage it additionally drives a short scenario per strategy under
// a Gilbert–Elliott burst-outage process and prints each client's
// link telemetry (exchanges, losses, stalls, bytes) plus the
// retry/breaker counters.
//
// The observability flags drive an observed AL/AA scenario (situation
// iii, -runs executions per cell) with the internal/obs sinks
// attached: -audit prints per-method estimator prediction error and
// regret, -metrics writes per-cell Prometheus text, -trace-out writes
// a Chrome trace-event JSON timeline (open in chrome://tracing or
// Perfetto). Without -app they default to the fe and pf benchmarks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

func main() {
	app := flag.String("app", "", "profile benchmarks: a name (fe, pf, mf, hpf, ed, sort, jess, db), a comma-separated list, or \"all\"")
	seed := flag.Uint64("seed", 2003, "profiling seed")
	workers := flag.Int("workers", 0, "parallel profiling workers (0 = GOMAXPROCS)")
	outage := flag.Float64("outage", 0, "with -app: drive a faulty scenario at this outage rate and print link telemetry")
	burst := flag.Float64("burst", 5, "mean outage burst length in transfers (with -outage)")
	runs := flag.Int("runs", 30, "application executions per telemetry scenario (with -outage)")
	audit := flag.Bool("audit", false, "print per-method estimator prediction error and regret for AL and AA")
	metricsOut := flag.String("metrics", "", "write per-cell Prometheus metrics of the observed scenario to FILE (\"-\" = stdout)")
	traceOut := flag.String("trace-out", "", "write the observed scenario's Chrome trace-event JSON to FILE")
	flag.Parse()

	observing := *audit || *metricsOut != "" || *traceOut != ""
	if *app == "" {
		if !observing {
			renderPlatform(os.Stdout)
			return
		}
		*app = "fe,pf"
	}

	list, err := selectApps(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energyprof:", err)
		os.Exit(1)
	}
	envs, err := experiments.PrepareAllOn(experiments.NewRunner(*workers), list, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energyprof:", err)
		os.Exit(1)
	}
	for i, env := range envs {
		if i > 0 {
			fmt.Println()
		}
		renderProfile(os.Stdout, env.App, env.Prof)
		if *outage > 0 {
			fmt.Println()
			if err := renderTelemetry(os.Stdout, env, *outage, *burst, *runs, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "energyprof:", err)
				os.Exit(1)
			}
		}
	}
	if observing {
		if err := runObserved(envs, *runs, *seed, *workers, *audit, *metricsOut, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "energyprof:", err)
			os.Exit(1)
		}
	}
}

// runObserved drives the AL and AA strategies over every selected app
// in the uniform situation with the observability sinks attached, and
// renders the requested artifacts.
func runObserved(envs []*experiments.Env, runs int, seed uint64, workers int,
	audit bool, metricsOut, traceOut string) error {

	cells, err := experiments.RunObservedOn(experiments.NewRunner(workers), envs,
		[]core.Strategy{core.StrategyAL, core.StrategyAA},
		experiments.SitUniform, runs, seed)
	if err != nil {
		return err
	}
	if audit {
		fmt.Printf("\nestimator audit: AL and AA, situation %v, %d executions per cell\n\n",
			experiments.SitUniform, runs)
		experiments.RenderAudits(os.Stdout, cells)
	}
	if metricsOut != "" {
		if err := writeArtifact(metricsOut, func(w io.Writer) error {
			return experiments.WriteMetricsDump(w, cells)
		}); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeArtifact(traceOut, func(w io.Writer) error {
			return experiments.WriteTrace(w, cells)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote trace for %d cells to %s (open in chrome://tracing or Perfetto)\n",
			len(cells), traceOut)
	}
	return nil
}

// writeArtifact writes through fn to the named file, or to stdout for
// "-".
func writeArtifact(name string, fn func(io.Writer) error) error {
	if name == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderTelemetry drives one short scenario per strategy over a lossy
// link and prints the radio counters surfaced through the Stats sink.
func renderTelemetry(w *os.File, env *experiments.Env, outage, burst float64, runs int, seed uint64) error {
	fmt.Fprintf(w, "link telemetry under outage %.2f, mean burst %.0f (%d executions)\n\n", outage, burst, runs)
	fmt.Fprintf(w, "%-9s %10s | %6s %6s %6s %6s %9s %9s | %5s %5s %5s\n",
		"strategy", "energy", "exchg", "loss", "rtx", "stall", "tx B", "rx B", "retry", "probe", "down")
	for _, s := range core.Strategies {
		server := core.NewServer(env.Prog)
		c := core.New(core.ClientConfig{
			ID:       fmt.Sprintf("%s-%v", env.App.Name, s),
			Prog:     env.Prog,
			Server:   server,
			Channel:  radio.UniformChannel(rng.New(seed)),
			Strategy: s,
			Seed:     seed,
		}, core.WithFaultModel(radio.NewGilbertElliott(outage, burst)))
		if err := c.Register(env.Target, env.Prof); err != nil {
			return err
		}
		sizes := env.App.ScenarioSizes
		sizeR := rng.New(seed ^ 0xABCD)
		for run := 0; run < runs; run++ {
			size := sizes[sizeR.Intn(len(sizes))]
			if err := c.RunExecution(env.Target, size, seed+uint64(size)); err != nil {
				return err
			}
			c.StepChannel()
		}
		tel := c.Stats.Radio // the EvInvoke stream's last snapshot
		fmt.Fprintf(w, "%-9v %10v | %6d %6d %6d %6d %9d %9d | %5d %5d %5d\n",
			s, c.Energy(), tel.Exchanges, tel.Losses, tel.Retransmits, tel.Stalls,
			tel.BytesSent, tel.BytesReceived,
			c.Stats.Retries, c.Stats.Probes, c.Stats.LinkDowns)
	}
	return nil
}

// selectApps resolves the -app argument to a benchmark list.
func selectApps(arg string) ([]*apps.App, error) {
	if arg == "all" {
		return apps.All(), nil
	}
	var list []*apps.App
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		a := apps.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown app %q", name)
		}
		list = append(list, a)
	}
	return list, nil
}

// renderPlatform prints the platform energy model.
func renderPlatform(w *os.File) {
	experiments.RenderFig1(w)
	fmt.Fprintln(w)
	experiments.RenderFig2(w)
	fmt.Fprintln(w)
	model := energy.MicroSPARCIIep()
	fmt.Fprintf(w, "compiler-classes load/init: %v per execution that compiles locally\n",
		jit.CompilerLoadEnergy(model))
	chip := radio.WCDMA()
	fmt.Fprintf(w, "per-KB transfer at Class 4: tx %v, rx %v\n",
		chip.TxEnergy(1024, radio.Class4), chip.RxEnergy(1024, radio.Class4))
	fmt.Fprintf(w, "per-KB transfer at Class 1: tx %v, rx %v\n",
		chip.TxEnergy(1024, radio.Class1), chip.RxEnergy(1024, radio.Class1))
}

// renderProfile prints one app's profiled curves and compile costs.
func renderProfile(w *os.File, a *apps.App, prof *core.Profile) {
	fmt.Fprintf(w, "%s — %s (size parameter: %s)\n\n", a.Name, a.Desc, a.SizeDesc)
	fmt.Fprintf(w, "%8s | %11s %11s %11s %11s | %9s %9s | %10s\n",
		"size", "I", "L1", "L2", "L3", "tx B", "rx B", "server t")
	for _, s := range a.ProfileSizes {
		x := float64(s)
		fmt.Fprintf(w, "%8d | %11v %11v %11v %11v | %9.0f %9.0f | %8.2f ms\n",
			s,
			energy.Joules(prof.EnergyOf[core.ModeInterp].Eval(x)),
			energy.Joules(prof.EnergyOf[core.ModeL1].Eval(x)),
			energy.Joules(prof.EnergyOf[core.ModeL2].Eval(x)),
			energy.Joules(prof.EnergyOf[core.ModeL3].Eval(x)),
			prof.TxBytes.Eval(x), prof.RxBytes.Eval(x),
			prof.ServerTime.Eval(x)*1e3)
	}
	fmt.Fprintln(w)
	for lv := 0; lv < 3; lv++ {
		fmt.Fprintf(w, "compile plan at L%d: %v, %d B native code\n",
			lv+1, prof.CompileEnergy[lv], prof.PlanCodeBytes[lv])
	}
	fmt.Fprintf(w, "worst training-fit error: %.2f%%\n", prof.MaxFitErr*100)
}
