package experiments

import (
	"fmt"
	"io"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

// Situation is one of the paper's three scenario families (§3.2).
type Situation int

// The three situations of Fig 7.
const (
	SitGoodDominant Situation = iota // (i) channel predominantly good, one size dominates
	SitPoorDominant                  // (ii) channel predominantly poor, one size dominates
	SitUniform                       // (iii) channel and sizes uniformly distributed

	NumSituations
)

// String names the situation.
func (s Situation) String() string {
	switch s {
	case SitGoodDominant:
		return "i (good channel, dominant size)"
	case SitPoorDominant:
		return "ii (poor channel, dominant size)"
	case SitUniform:
		return "iii (uniform channel and sizes)"
	default:
		return fmt.Sprintf("Situation(%d)", int(s))
	}
}

func (s Situation) channel(r *rng.RNG) radio.Channel {
	switch s {
	case SitGoodDominant:
		return radio.PredominantlyGood(r)
	case SitPoorDominant:
		return radio.PredominantlyPoor(r)
	default:
		return radio.UniformChannel(r)
	}
}

// sizeWeights returns the draw weights over an app's scenario sizes:
// dominant situations put 80% of the mass on the middle size.
func (s Situation) sizeWeights(n int) []float64 {
	w := make([]float64, n)
	if s == SitUniform {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for i := range w {
		w[i] = 0.2 / float64(n-1)
	}
	w[n-2] = 0.8
	return w
}

// Fig7Cell is one (app, situation, strategy) scenario outcome.
type Fig7Cell struct {
	Energy     energy.Joules
	Time       energy.Seconds
	ModeCounts [core.NumModes]int
	Fallbacks  int
	MemoHits   int
}

// Fig7Result holds the full Fig 7 dataset.
type Fig7Result struct {
	Runs int
	// Cells[situation][strategy][appIndex].
	Cells [NumSituations][7]map[string]Fig7Cell
	// Normalized[situation][strategy] is the average over apps of
	// energy normalized to the same app's L1 energy — the quantity the
	// paper plots.
	Normalized [NumSituations][7]float64
}

// RunScenario executes one (app, situation, strategy) scenario of the
// given number of application executions.
func RunScenario(env *Env, sit Situation, strategy core.Strategy, runs int, seed uint64) (Fig7Cell, error) {
	return runScenarioWith(env, sit, strategy, runs, seed, nil)
}

// runScenarioWith is RunScenario with an attach hook: observers
// register their event sinks on the freshly built client before the
// scenario starts. The scenario itself is unchanged — sinks only
// listen — so an observed cell measures exactly what RunScenario
// measures.
func runScenarioWith(env *Env, sit Situation, strategy core.Strategy, runs int, seed uint64,
	attach func(*core.Client)) (Fig7Cell, error) {

	chR := rng.New(seed ^ 0xC0FFEE)
	client, err := env.newClient(strategy, sit.channel(chR), seed)
	if err != nil {
		return Fig7Cell{}, err
	}
	if attach != nil {
		attach(client)
	}
	sizes := env.App.ScenarioSizes
	weights := sit.sizeWeights(len(sizes))
	sizeR := rng.New(seed ^ 0xBEEF)

	for run := 0; run < runs; run++ {
		size := sizes[sizeR.Pick(weights)]
		// Each run is a fresh application execution: classes reload,
		// so any compilation is paid again (Fig 6 includes it for a
		// single execution; Fig 7 scenarios repeat that 300 times).
		if err := client.RunExecution(env.Target, size, inputSeed(env.App.Name, size, seed)); err != nil {
			return Fig7Cell{}, fmt.Errorf("%s/%v/%v run %d: %w", env.App.Name, sit, strategy, run, err)
		}
		client.StepChannel()
	}
	// Fold the link's final telemetry into Stats: a trailing failed
	// exchange would otherwise never be reflected there.
	client.SyncStats()
	return Fig7Cell{
		Energy:     client.Energy(),
		Time:       client.Clock,
		ModeCounts: client.Stats.ModeCounts,
		Fallbacks:  client.Stats.Fallbacks,
		MemoHits:   client.Stats.MemoHits,
	}, nil
}

// RunFig7 runs all situations and strategies over the prepared apps.
func RunFig7(envs []*Env, runs int, seed uint64) (*Fig7Result, error) {
	return RunFig7On(nil, envs, runs, seed)
}

// RunFig7On runs the full (situation × strategy × app) grid with the
// cells sharded across the runner. Every cell derives its RNGs from
// the same per-situation seed the serial run uses and writes to its
// own slot, so the result is identical to RunFig7's.
func RunFig7On(r *Runner, envs []*Env, runs int, seed uint64) (*Fig7Result, error) {
	res := &Fig7Result{Runs: runs}
	nStrat := len(core.Strategies)
	nEnv := len(envs)
	cells := make([]Fig7Cell, int(NumSituations)*nStrat*nEnv)
	err := r.Do(len(cells), func(j int) error {
		sit := Situation(j / (nStrat * nEnv))
		si := (j / nEnv) % nStrat
		env := envs[j%nEnv]
		cell, err := RunScenario(env, sit, core.Strategies[si], runs, seed+uint64(sit)*1000)
		if err != nil {
			return err
		}
		cells[j] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for sit := Situation(0); sit < NumSituations; sit++ {
		for si := range core.Strategies {
			res.Cells[sit][si] = map[string]Fig7Cell{}
			for ei, env := range envs {
				res.Cells[sit][si][env.App.Name] = cells[(int(sit)*nStrat+si)*nEnv+ei]
			}
		}
	}
	// Normalize to L1 per app, then average over apps. The sum runs in
	// envs order, not map order, so Normalized is bit-stable.
	for sit := Situation(0); sit < NumSituations; sit++ {
		l1 := res.Cells[sit][indexOf(core.StrategyL1)]
		for si := range core.Strategies {
			var sum float64
			var n int
			for _, env := range envs {
				cell := res.Cells[sit][si][env.App.Name]
				base := l1[env.App.Name].Energy
				if base > 0 {
					sum += float64(cell.Energy) / float64(base)
					n++
				}
			}
			if n > 0 {
				res.Normalized[sit][si] = sum / float64(n)
			}
		}
	}
	return res, nil
}

func indexOf(s core.Strategy) int {
	for i, x := range core.Strategies {
		if x == s {
			return i
		}
	}
	return -1
}

// Strategy returns the normalized average energy of a strategy in a
// situation.
func (r *Fig7Result) Strategy(sit Situation, s core.Strategy) float64 {
	return r.Normalized[sit][indexOf(s)]
}

// BestStatic returns the best static strategy and its normalized value
// in a situation.
func (r *Fig7Result) BestStatic(sit Situation) (core.Strategy, float64) {
	best, bestV := core.StrategyL1, r.Strategy(sit, core.StrategyL1)
	for _, s := range []core.Strategy{core.StrategyR, core.StrategyI, core.StrategyL2, core.StrategyL3} {
		if v := r.Strategy(sit, s); v < bestV {
			best, bestV = s, v
		}
	}
	return best, bestV
}

// RenderFig7 prints the normalized averages, one row per situation.
func RenderFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintf(w, "Fig 7: average normalized energy of the eight benchmarks (%d executions\n", r.Runs)
	fmt.Fprintln(w, "per scenario), normalized to L1; lower is better")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-36s", "situation")
	for _, s := range core.Strategies {
		fmt.Fprintf(w, " %6s", s)
	}
	fmt.Fprintln(w)
	for sit := Situation(0); sit < NumSituations; sit++ {
		fmt.Fprintf(w, "%-36s", sit)
		for si := range core.Strategies {
			fmt.Fprintf(w, " %6.3f", r.Normalized[sit][si])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for sit := Situation(0); sit < NumSituations; sit++ {
		best, bestV := r.BestStatic(sit)
		al := r.Strategy(sit, core.StrategyAL)
		aa := r.Strategy(sit, core.StrategyAA)
		fmt.Fprintf(w, "situation %-34v best static %-2v=%0.3f  AL=%0.3f (%+.0f%%)  AA=%0.3f (%+.0f%%)\n",
			sit, best, bestV, al, (al-bestV)/bestV*100, aa, (aa-bestV)/bestV*100)
	}
}

// RenderFig7PerApp prints the per-app normalized table for one
// situation (useful for drilling into the averages).
func RenderFig7PerApp(w io.Writer, r *Fig7Result, sit Situation) {
	fmt.Fprintf(w, "Fig 7 detail, situation %v (energy normalized to L1 per app)\n\n", sit)
	fmt.Fprintf(w, "%-6s", "app")
	for _, s := range core.Strategies {
		fmt.Fprintf(w, " %6s", s)
	}
	fmt.Fprintln(w)
	l1 := r.Cells[sit][indexOf(core.StrategyL1)]
	apps := make([]string, 0, len(l1))
	for app := range l1 {
		apps = append(apps, app)
	}
	sortStrings(apps)
	for _, app := range apps {
		fmt.Fprintf(w, "%-6s", app)
		for si := range core.Strategies {
			cell := r.Cells[sit][si][app]
			fmt.Fprintf(w, " %6.3f", float64(cell.Energy)/float64(l1[app].Energy))
		}
		fmt.Fprintln(w)
	}
}

func sortStrings(s []string) {
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
}
