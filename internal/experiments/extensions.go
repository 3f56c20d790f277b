package experiments

import (
	"fmt"
	"io"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

// Extension experiments beyond the paper's figures, probing two of its
// assumptions:
//
//   - The channel process: the paper draws conditions i.i.d. per
//     scenario distribution; real fading is temporally correlated.
//     MarkovSweep measures AL under a Markov channel across stay
//     probabilities.
//   - Channel estimation: the paper notes that a "fairly accurate and
//     fast channel condition estimation mechanism is necessary".
//     TrackerErrorSweep measures how AL degrades as the pilot
//     tracker's estimate gets noisier.

// MarkovPoint is one (stay probability) sample of the sweep.
type MarkovPoint struct {
	StayProb float64
	AL       float64 // energy normalized to the same channel's L2
	R        float64
	ModeMix  [core.NumModes]int
}

// driveScenario runs the given number of fresh application executions
// on a wired client with uniformly drawn sizes and returns the total
// energy.
func driveScenario(env *Env, client *core.Client, runs int, seed uint64) (float64, error) {
	sizes := env.App.ScenarioSizes
	sizeR := rng.New(seed ^ 0xABCD)
	for run := 0; run < runs; run++ {
		size := sizes[sizeR.Intn(len(sizes))]
		if err := client.RunExecution(env.Target, size, inputSeed(env.App.Name, size, seed)); err != nil {
			return 0, err
		}
		client.StepChannel()
	}
	return float64(client.Energy()), nil
}

// runSequence executes n fresh application executions with the given
// channel under a strategy and returns the total energy.
func runSequence(env *Env, strategy core.Strategy, ch radio.Channel, runs int, seed uint64) (float64, [core.NumModes]int, error) {
	client, err := env.newClient(strategy, ch, seed)
	if err != nil {
		return 0, [core.NumModes]int{}, err
	}
	e, err := driveScenario(env, client, runs, seed)
	if err != nil {
		return 0, [core.NumModes]int{}, err
	}
	return e, client.Stats.ModeCounts, nil
}

// markovStays are the sweep's channel stay probabilities (0 = the
// paper's i.i.d. draw, 0.9 = strongly correlated fading).
var markovStays = []float64{0.0, 0.3, 0.6, 0.9}

// RunMarkovSweepOn measures AL (and R, L2 baselines) under Markov
// channels of varying temporal correlation, the sweep's (stay
// probability × strategy) measurements sharded across the runner.
func RunMarkovSweepOn(r *Runner, env *Env, runs int, seed uint64) ([]MarkovPoint, error) {
	strats := []core.Strategy{core.StrategyL2, core.StrategyAL, core.StrategyR}
	raw := make([]float64, len(markovStays)*len(strats))
	mixes := make([][core.NumModes]int, len(markovStays))
	err := r.Do(len(raw), func(j int) error {
		strat := strats[j%len(strats)]
		stay := markovStays[j/len(strats)]
		ch := radio.NewMarkov(radio.Class3, stay, rng.New(seed))
		e, mix, err := runSequence(env, strat, ch, runs, seed)
		if err != nil {
			return err
		}
		raw[j] = e
		if strat == core.StrategyAL {
			mixes[j/len(strats)] = mix
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []MarkovPoint
	for i, stay := range markovStays {
		l2, al, rr := raw[i*len(strats)], raw[i*len(strats)+1], raw[i*len(strats)+2]
		out = append(out, MarkovPoint{StayProb: stay, AL: al / l2, R: rr / l2, ModeMix: mixes[i]})
	}
	return out, nil
}

// RenderMarkovSweep prints the sweep.
func RenderMarkovSweep(w io.Writer, app string, pts []MarkovPoint) {
	fmt.Fprintf(w, "Extension: AL under a Markov fading channel (%s), normalized to L2\n\n", app)
	fmt.Fprintf(w, "%9s %8s %8s   %s\n", "stayProb", "AL/L2", "R/L2", "AL mode mix [I L1 L2 L3 R]")
	for _, p := range pts {
		fmt.Fprintf(w, "%9.1f %8.3f %8.3f   %v\n", p.StayProb, p.AL, p.R, p.ModeMix)
	}
}

// TrackerPoint is one estimation-error sample.
type TrackerPoint struct {
	ErrProb   float64
	AL        float64 // normalized to the error-free AL
	Fallbacks int
}

// trackerErrProbs are the sweep's per-estimate error probabilities.
var trackerErrProbs = []float64{0, 0.1, 0.25, 0.5}

// RunTrackerErrorSweepOn measures AL as the pilot tracker's estimate
// gets noisier (wrong by one class with the given probability). The
// sweep's points are sharded across the runner; normalization to the
// error-free point happens afterwards.
func RunTrackerErrorSweepOn(r *Runner, env *Env, runs int, seed uint64) ([]TrackerPoint, error) {
	raw := make([]float64, len(trackerErrProbs))
	falls := make([]int, len(trackerErrProbs))
	err := r.Do(len(trackerErrProbs), func(i int) error {
		errProb := trackerErrProbs[i]
		ch := radio.UniformChannel(rng.New(seed))
		client, err := env.newClient(core.StrategyAL, ch, seed)
		if err != nil {
			return err
		}
		client.Link.Tracker = radio.NewPilotTracker(ch, errProb, rng.New(seed^0xF00D))
		e, err := driveScenario(env, client, runs, seed)
		if err != nil {
			return err
		}
		raw[i], falls[i] = e, client.Stats.Fallbacks
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []TrackerPoint
	for i, errProb := range trackerErrProbs {
		out = append(out, TrackerPoint{ErrProb: errProb, AL: raw[i] / raw[0], Fallbacks: falls[i]})
	}
	return out, nil
}

// RenderTrackerErrorSweep prints the sweep.
func RenderTrackerErrorSweep(w io.Writer, app string, pts []TrackerPoint) {
	fmt.Fprintf(w, "Extension: AL vs pilot-tracker estimation error (%s), normalized to\n", app)
	fmt.Fprintln(w, "the error-free tracker (the paper: accurate channel estimation is necessary)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s %10s\n", "errProb", "AL energy")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.2f %10.3f\n", p.ErrProb, p.AL)
	}
}

// ComponentBreakdown reports where one strategy's energy goes in a
// scenario: core, memory, radio, leakage, compile share.
type ComponentBreakdown struct {
	Strategy core.Strategy
	Total    float64
	Share    map[string]float64
}

// RunBreakdownOn measures the component shares of each strategy over a
// uniform scenario, one strategy per runner job.
func RunBreakdownOn(r *Runner, env *Env, runs int, seed uint64) ([]ComponentBreakdown, error) {
	out := make([]ComponentBreakdown, len(core.Strategies))
	err := r.Do(len(core.Strategies), func(i int) error {
		strat := core.Strategies[i]
		ch := radio.UniformChannel(rng.New(seed))
		client, err := env.newClient(strat, ch, seed)
		if err != nil {
			return err
		}
		total, err := driveScenario(env, client, runs, seed)
		if err != nil {
			return err
		}
		acct := client.VM.Acct
		bd := ComponentBreakdown{Strategy: strat, Total: total, Share: map[string]float64{}}
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"core", float64(acct.Component(energy.CompCore))},
			{"memory", float64(acct.Component(energy.CompMemory))},
			{"radio-tx", float64(acct.Component(energy.CompRadioTx))},
			{"radio-rx", float64(acct.Component(energy.CompRadioRx))},
			{"leakage", float64(acct.Component(energy.CompLeakage))},
			{"compile", float64(acct.Component(energy.CompCompile))},
		} {
			if total > 0 {
				bd.Share[c.name] = c.v / total
			}
		}
		out[i] = bd
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderBreakdown prints component shares per strategy.
func RenderBreakdown(w io.Writer, app string, rows []ComponentBreakdown) {
	fmt.Fprintf(w, "Extension: energy component shares per strategy (%s, uniform scenario)\n\n", app)
	fmt.Fprintf(w, "%-9s %10s | %6s %6s %6s %6s %6s %9s\n",
		"strategy", "total(mJ)", "core", "mem", "tx", "rx", "leak", "(compile)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9v %10.2f | %5.0f%% %5.0f%% %5.0f%% %5.0f%% %5.0f%% %8.0f%%\n",
			r.Strategy, r.Total*1e3,
			r.Share["core"]*100, r.Share["memory"]*100,
			r.Share["radio-tx"]*100, r.Share["radio-rx"]*100,
			r.Share["leakage"]*100, r.Share["compile"]*100)
	}
}

// CachePoint is one code-cache-size sample.
type CachePoint struct {
	CacheBytes int // 0 = unlimited
	AL         float64
	Evictions  int
}

// cacheSizes are the sweep's code-cache budgets (0 = unlimited).
var cacheSizes = []int{0, 4096, 1024, 256}

// RunCodeCacheSweepOn measures AL as the client's code cache shrinks:
// the paper's memory-footprint tradeoff ("compilation ... requires
// additional memory footprint for storing the compiled code"). With a
// tight cache, bodies are evicted between invocations and
// re-compilation (or re-download) eats into the compiled modes'
// advantage. The sweep's points are sharded across the runner;
// normalization to the unlimited cache happens afterwards.
func RunCodeCacheSweepOn(r *Runner, env *Env, runs int, seed uint64) ([]CachePoint, error) {
	raw := make([]float64, len(cacheSizes))
	evs := make([]int, len(cacheSizes))
	err := r.Do(len(cacheSizes), func(i int) error {
		ch := radio.UniformChannel(rng.New(seed))
		client, err := env.newClient(core.StrategyAL, ch, seed)
		if err != nil {
			return err
		}
		client.Exec.Cache.MaxBytes = cacheSizes[i]
		e, err := driveScenario(env, client, runs, seed)
		if err != nil {
			return err
		}
		raw[i], evs[i] = e, client.Stats.Evictions
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []CachePoint
	for i, cache := range cacheSizes {
		out = append(out, CachePoint{CacheBytes: cache, AL: raw[i] / raw[0], Evictions: evs[i]})
	}
	return out, nil
}

// RenderCodeCacheSweep prints the sweep.
func RenderCodeCacheSweep(w io.Writer, app string, pts []CachePoint) {
	fmt.Fprintf(w, "Extension: AL vs client code-cache size (%s), normalized to unlimited\n\n", app)
	fmt.Fprintf(w, "%12s %10s %10s\n", "cache(B)", "AL energy", "evictions")
	for _, p := range pts {
		label := fmt.Sprintf("%d", p.CacheBytes)
		if p.CacheBytes == 0 {
			label = "unlimited"
		}
		fmt.Fprintf(w, "%12s %10.3f %10d\n", label, p.AL, p.Evictions)
	}
}

// ResiliencePoint is one (outage rate × mean burst) cell of the
// resilience sweep: per-strategy energy normalized to the same cell's
// L2 (local compiled execution never touches the radio, so it is
// outage-invariant), plus the degradation counters that explain the
// shape.
type ResiliencePoint struct {
	OutageRate float64
	MeanBurst  float64
	R, AL, AA  float64
	// RFallbacks counts static R's forced local fallbacks — its losses
	// are pure waste (a transmit plus a timeout listen each).
	RFallbacks int
	// AA's graceful-degradation machinery at work.
	AARetries   int
	AAProbes    int
	AALinkDowns int
	AALosses    int
}

// The sweep grid: a fault-free baseline plus outage rate × mean burst
// length cells of the Gilbert–Elliott process.
var (
	outageRates  = []float64{0.05, 0.2, 0.4}
	outageBursts = []float64{1, 5, 20}
)

// resilienceCells enumerates the grid as (rate, burst) pairs.
func resilienceCells() [][2]float64 {
	cells := [][2]float64{{0, 1}} // fault-free baseline
	for _, rate := range outageRates {
		for _, b := range outageBursts {
			cells = append(cells, [2]float64{rate, b})
		}
	}
	return cells
}

// RunResilienceSweepOn measures how the strategies degrade under burst
// outages: static R keeps paying for losses while the adaptive
// strategies (retries, circuit breaker, remote taken off the table
// while Down) degrade toward the best local mode. The (cell ×
// strategy) grid is sharded across the runner; every cell builds its
// own client with its own seeded fault process, so parallel and
// serial runs are identical.
func RunResilienceSweepOn(r *Runner, env *Env, runs int, seed uint64) ([]ResiliencePoint, error) {
	cells := resilienceCells()
	strats := []core.Strategy{core.StrategyL2, core.StrategyR, core.StrategyAL, core.StrategyAA}
	type cellRun struct {
		energy    float64
		fallbacks int
		retries   int
		probes    int
		linkDowns int
		losses    int
	}
	raw := make([]cellRun, len(cells)*len(strats))
	err := r.Do(len(raw), func(j int) error {
		strat := strats[j%len(strats)]
		cell := cells[j/len(strats)]
		ch := radio.UniformChannel(rng.New(seed))
		client, err := env.newClient(strat, ch, seed)
		if err != nil {
			return err
		}
		if cell[0] > 0 {
			client.Link.Fault = radio.NewGilbertElliott(cell[0], cell[1])
		}
		e, err := driveScenario(env, client, runs, seed)
		if err != nil {
			return err
		}
		raw[j] = cellRun{
			energy:    e,
			fallbacks: client.Stats.Fallbacks,
			retries:   client.Stats.Retries,
			probes:    client.Stats.Probes,
			linkDowns: client.Stats.LinkDowns,
			losses:    client.Link.Telemetry().Losses,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ResiliencePoint
	for i, cell := range cells {
		l2 := raw[i*len(strats)].energy
		rr := raw[i*len(strats)+1]
		al := raw[i*len(strats)+2]
		aa := raw[i*len(strats)+3]
		out = append(out, ResiliencePoint{
			OutageRate:  cell[0],
			MeanBurst:   cell[1],
			R:           rr.energy / l2,
			AL:          al.energy / l2,
			AA:          aa.energy / l2,
			RFallbacks:  rr.fallbacks,
			AARetries:   aa.retries,
			AAProbes:    aa.probes,
			AALinkDowns: aa.linkDowns,
			AALosses:    aa.losses,
		})
	}
	return out, nil
}

// RenderResilienceSweep prints the sweep.
func RenderResilienceSweep(w io.Writer, app string, pts []ResiliencePoint) {
	fmt.Fprintf(w, "Extension: strategy energy under burst outages (%s), normalized to L2\n", app)
	fmt.Fprintln(w, "(Gilbert-Elliott loss process; R falls back per loss, AA retries, probes")
	fmt.Fprintln(w, "and takes remote off the table while the link breaker is open)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%7s %6s | %7s %7s %7s | %7s %7s %7s %6s %7s\n",
		"outage", "burst", "R/L2", "AL/L2", "AA/L2",
		"R falls", "AA rtry", "AA prob", "AA dwn", "AA loss")
	for _, p := range pts {
		fmt.Fprintf(w, "%7.2f %6.0f | %7.3f %7.3f %7.3f | %7d %7d %7d %6d %7d\n",
			p.OutageRate, p.MeanBurst, p.R, p.AL, p.AA,
			p.RFallbacks, p.AARetries, p.AAProbes, p.AALinkDowns, p.AALosses)
	}
}
