package experiments

import (
	"fmt"
	"io"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
)

// Claims collects the quantitative statements of §3 that are not
// figures, measured on our reproduction.
type Claims struct {
	// EstimatorWorstErr is the worst relative error of the curve-fit
	// energy estimators at held-out sizes, per app (paper: within 2%).
	EstimatorWorstErr map[string]float64
	// ALSavings[sit] is the fraction by which AL beats the best static
	// strategy in each situation (paper: 25%, 10%, 22%).
	ALSavings [NumSituations]float64
	// AAVsAL[sit] is AA's additional saving over AL (paper: AA saves
	// more than AL).
	AAVsAL [NumSituations]float64
	// Speedups[app] is local-time / remote-time at the large input
	// under the best channel, where remote execution is preferred
	// (paper: between 2.5x and 10x).
	Speedups map[string]float64
}

// MeasureEstimatorAccuracyOn validates profiles at held-out sizes,
// one app per runner job.
func MeasureEstimatorAccuracyOn(r *Runner, envs []*Env, seed uint64) (map[string]float64, error) {
	worsts := make([]float64, len(envs))
	err := r.Do(len(envs), func(i int) error {
		env := envs[i]
		pr := &core.Profiler{
			Prog:        env.Prog,
			ClientModel: energy.MicroSPARCIIep(),
			Seed:        seed,
		}
		ps := env.App.ProfileSizes
		held := []int{
			(ps[0] + ps[1]) / 2,
			(ps[len(ps)/2] + ps[len(ps)/2+1]) / 2,
			(ps[len(ps)-2] + ps[len(ps)-1]) / 2,
		}
		worst, err := pr.ValidateProfile(env.Target, env.Prof, held)
		if err != nil {
			return err
		}
		worsts[i] = worst
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, env := range envs {
		out[env.App.Name] = worsts[i]
	}
	return out, nil
}

// MeasureSpeedups compares local and remote wall-clock time per app at
// the large input size under the best channel, using the profiled
// time estimators plus the communication model (the paper reports
// 2.5x-10x when remote execution is preferred).
func MeasureSpeedups(envs []*Env) map[string]float64 {
	chip := radio.WCDMA()
	out := map[string]float64{}
	for _, env := range envs {
		s := float64(env.App.LargeSize)
		// Best local time across the compiled modes.
		local := env.Prof.TimeOf[core.ModeL1].Eval(s)
		for _, m := range []core.Mode{core.ModeL2, core.ModeL3} {
			if t := env.Prof.TimeOf[m].Eval(s); t < local {
				local = t
			}
		}
		tx := env.Prof.TxBytes.Eval(s)
		rx := env.Prof.RxBytes.Eval(s)
		remote := float64(chip.AirTime(int(tx), radio.Class4)) + env.Prof.ServerTime.Eval(s) +
			float64(chip.AirTime(int(rx), radio.Class4))
		if remote > 0 {
			out[env.App.Name] = local / remote
		}
	}
	return out
}

// MeasureClaims produces the full claims report given Fig 7 results.
func MeasureClaims(envs []*Env, fig7 *Fig7Result, seed uint64) (*Claims, error) {
	return MeasureClaimsOn(nil, envs, fig7, seed)
}

// MeasureClaimsOn produces the claims report with the estimator
// validation sharded across the runner.
func MeasureClaimsOn(r *Runner, envs []*Env, fig7 *Fig7Result, seed uint64) (*Claims, error) {
	c := &Claims{Speedups: MeasureSpeedups(envs)}
	var err error
	if c.EstimatorWorstErr, err = MeasureEstimatorAccuracyOn(r, envs, seed); err != nil {
		return nil, err
	}
	for sit := Situation(0); sit < NumSituations; sit++ {
		_, best := fig7.BestStatic(sit)
		al := fig7.Strategy(sit, core.StrategyAL)
		aa := fig7.Strategy(sit, core.StrategyAA)
		if best > 0 {
			c.ALSavings[sit] = (best - al) / best
		}
		if al > 0 {
			c.AAVsAL[sit] = (al - aa) / al
		}
	}
	return c, nil
}

// RenderClaims prints paper-vs-measured for each claim.
func RenderClaims(w io.Writer, c *Claims) {
	fmt.Fprintln(w, "Claims of §3, paper vs. measured")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "1. Curve-fit energy estimators within 2% of actual (held-out inputs):")
	worst := 0.0
	for _, app := range sortedKeys(c.EstimatorWorstErr) {
		e := c.EstimatorWorstErr[app]
		fmt.Fprintf(w, "   %-6s %.2f%%\n", app, e*100)
		if e > worst {
			worst = e
		}
	}
	fmt.Fprintf(w, "   worst: %.2f%%\n\n", worst*100)

	fmt.Fprintln(w, "2. AL vs best static strategy (paper: saves 25%, 10%, 22% in i, ii, iii):")
	for sit := Situation(0); sit < NumSituations; sit++ {
		fmt.Fprintf(w, "   situation %-34v AL saves %.0f%%\n", sit, c.ALSavings[sit]*100)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "3. AA saves more energy than AL (paper: §3.3):")
	for sit := Situation(0); sit < NumSituations; sit++ {
		fmt.Fprintf(w, "   situation %-34v AA saves a further %.1f%% over AL\n", sit, c.AAVsAL[sit]*100)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "4. Speedup of remote over local execution at large inputs (paper: 2.5x-10x")
	fmt.Fprintln(w, "   where remote execution is preferred):")
	for _, app := range sortedKeys(c.Speedups) {
		fmt.Fprintf(w, "   %-6s %.1fx\n", app, c.Speedups[app])
	}
}

// sortedKeys returns a map's keys in sorted order so renders are
// deterministic regardless of map iteration.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}
