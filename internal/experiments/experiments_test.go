package experiments

import (
	"math"
	"strings"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/radio"
)

// testEnvs prepares a fast two-app subset (fe is compute-heavy with
// tiny payloads; sort is data-heavy) shared across tests.
var cachedEnvs []*Env

func testEnvs(t *testing.T) []*Env {
	t.Helper()
	if cachedEnvs != nil {
		return cachedEnvs
	}
	list := []*apps.App{apps.FE(), apps.Sort()}
	envs, err := PrepareAllOn(nil, list, 42)
	if err != nil {
		t.Fatal(err)
	}
	cachedEnvs = envs
	return envs
}

func TestFig6Shapes(t *testing.T) {
	envs := testEnvs(t)
	bars, err := RunFig6On(nil, envs[:1], 42) // fe only
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 2 {
		t.Fatalf("want small+large bars, got %d", len(bars))
	}
	for _, b := range bars {
		// Remote energy grows monotonically as the channel degrades.
		for i := 0; i < 3; i++ {
			if b.R[i] >= b.R[i+1] {
				t.Errorf("%s@%d: R stacked bars not increasing: %v", b.App, b.Size, b.R)
			}
		}
		// fe ships almost no data: remote under the best channel beats
		// every local alternative in a single execution.
		if b.R[0] >= b.L[0] {
			t.Errorf("%s@%d: R(C4)=%v should beat L1=%v", b.App, b.Size, b.R[0], b.L[0])
		}
		if b.Normalizer != b.L[0] {
			t.Error("bars must normalize to L1")
		}
	}
	small, large := bars[0], bars[1]
	// For a single small execution, interpretation avoids compilation
	// and beats L1; for the large one it must not.
	if small.I >= small.L[0] {
		t.Errorf("small: I=%v should beat L1=%v (compilation dominates)", small.I, small.L[0])
	}
	if large.I <= large.L[1] {
		t.Errorf("large: L2=%v should beat I=%v", large.L[1], large.I)
	}
	if got := large.BestStatic(radio.Class1); got == "" {
		t.Errorf("BestStatic(C1) = %q", got)
	}
	// fe's payloads are tiny, so remote wins even under Class 1 at the
	// large input; under the best channel it must win outright.
	if got := large.BestStatic(radio.Class4); got != "R" {
		t.Errorf("BestStatic(C4) = %q, want R for fe", got)
	}
}

func TestFig7ShapesAndDeterminism(t *testing.T) {
	envs := testEnvs(t)
	const runs = 40
	res, err := RunFig7On(nil, envs, runs, 42)
	if err != nil {
		t.Fatal(err)
	}
	for sit := Situation(0); sit < NumSituations; sit++ {
		_, best := res.BestStatic(sit)
		al := res.Strategy(sit, core.StrategyAL)
		aa := res.Strategy(sit, core.StrategyAA)
		// The paper's headline: the adaptive strategies beat every
		// static one (small tolerance for the tiny-run configuration).
		if al > best*1.05 {
			t.Errorf("%v: AL=%.3f worse than best static %.3f", sit, al, best)
		}
		if aa > al*1.10 {
			t.Errorf("%v: AA=%.3f should not lose to AL=%.3f", sit, aa, al)
		}
	}
	// Remote is costlier under the predominantly poor channel.
	if res.Strategy(SitPoorDominant, core.StrategyR) <= res.Strategy(SitGoodDominant, core.StrategyR) {
		t.Error("R should cost more under a poor channel")
	}
	// Determinism.
	if testing.Short() {
		return
	}
	res2, err := RunFig7On(nil, envs, runs, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normalized != res2.Normalized {
		t.Error("identical Fig 7 runs differ")
	}
}

// TestFig7NormalizedBitStable: the per-situation average over apps is
// summed in envs order, so repeated runs agree to the last bit. With
// three or more apps a summation order taken from a map would change
// the rounding from run to run.
func TestFig7NormalizedBitStable(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats a three-app Fig 7 grid; skipped under -short")
	}
	// fe plus the two apps that prepare and run fastest.
	envs := []*Env{testEnvs(t)[0]}
	for _, a := range []*apps.App{apps.PF(), apps.Jess()} {
		env, err := Prepare(a, 42)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	const runs = 2
	first, err := RunFig7On(nil, envs, runs, 42)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := RunFig7On(NewRunner(2), envs, runs, 42)
		if err != nil {
			t.Fatal(err)
		}
		for sit := range first.Normalized {
			for si, v := range first.Normalized[sit] {
				if w := again.Normalized[sit][si]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("rep %d: Normalized[%d][%d] = %v, first run %v", rep, sit, si, w, v)
				}
			}
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	envs := testEnvs(t)
	rows, err := RunFig8On(nil, envs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(envs)*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Remote compilation gets cheaper as the channel improves.
		for i := 0; i < 3; i++ {
			if r.Remote[i] <= r.Remote[i+1] {
				t.Errorf("%s %v: remote not decreasing with class: %v", r.App, r.Level, r.Remote)
			}
		}
		if r.CodeSz <= 0 || r.Methods <= 0 {
			t.Errorf("%s %v: bad code size/methods", r.App, r.Level)
		}
	}
	// Local compilation energy grows with optimization level (L1->L2).
	for i := 0; i < len(rows); i += 3 {
		if rows[i].Local >= rows[i+1].Local {
			t.Errorf("%s: local L2 (%v) should cost more than L1 (%v)",
				rows[i].App, rows[i+1].Local, rows[i].Local)
		}
	}
}

func TestClaims(t *testing.T) {
	envs := testEnvs(t)
	fig7, err := RunFig7On(nil, envs, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureClaimsOn(nil, envs, fig7, 43)
	if err != nil {
		t.Fatal(err)
	}
	for app, e := range c.EstimatorWorstErr {
		if e > 0.12 {
			t.Errorf("%s: estimator error %.3f implausibly large", app, e)
		}
	}
	if s := c.Speedups["fe"]; s < 2 {
		t.Errorf("fe offload speedup = %.2f, want >= 2x (paper: 2.5-10x)", s)
	}
}

func TestSituationMachinery(t *testing.T) {
	for sit := Situation(0); sit < NumSituations; sit++ {
		w := sit.sizeWeights(5)
		var sum float64
		for _, x := range w {
			if x < 0 {
				t.Errorf("%v: negative weight", sit)
			}
			sum += x
		}
		if sum <= 0 {
			t.Errorf("%v: zero weight sum", sit)
		}
		if sit != SitUniform && w[3] < 0.5 {
			t.Errorf("%v: dominant size not dominant: %v", sit, w)
		}
		if sit.String() == "" {
			t.Error("empty situation name")
		}
	}
}

func TestRenderersSmoke(t *testing.T) {
	var b strings.Builder
	RenderFig1(&b)
	RenderFig2(&b)
	RenderFig3(&b)
	RenderFig5(&b)
	out := b.String()
	for _, want := range []string{
		"4.814", "2.846", // Fig 1 values
		"5.88", "2.3 Mbps", // Fig 2 values
		"median filtering", "quicksort", // Fig 3 rows
		"adaptive", // Fig 5
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("rendered tables missing %q", want)
		}
	}

	envs := testEnvs(t)
	bars, err := RunFig6On(nil, envs[:1], 42)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderFig6(&b, bars)
	if !strings.Contains(b.String(), "normalized to L1") {
		t.Error("Fig 6 header missing")
	}

	fig7, err := RunFig7On(nil, envs, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderFig7(&b, fig7)
	RenderFig7PerApp(&b, fig7, SitUniform)
	if !strings.Contains(b.String(), "best static") {
		t.Error("Fig 7 summary missing")
	}

	rows, err := RunFig8On(nil, envs)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderFig8(&b, rows)
	if !strings.Contains(b.String(), "local L1 = 100") {
		t.Error("Fig 8 header missing")
	}

	claims, err := MeasureClaimsOn(nil, envs, fig7, 44)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderClaims(&b, claims)
	if !strings.Contains(b.String(), "Curve-fit") {
		t.Error("claims render missing")
	}
}

func TestScenarioModeAccounting(t *testing.T) {
	envs := testEnvs(t)
	cell, err := RunScenario(envs[0], SitGoodDominant, core.StrategyAL, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range cell.ModeCounts {
		total += n
	}
	if total != 25 {
		t.Errorf("mode counts sum to %d, want 25", total)
	}
	if cell.Energy <= 0 || cell.Time <= 0 {
		t.Error("scenario should consume energy and time")
	}
	// Only local runs replay.
	if local := total - cell.ModeCounts[core.ModeRemote]; cell.MemoHits > local {
		t.Errorf("%d replays from %d local runs", cell.MemoHits, local)
	}
	// A local-only strategy replays every run but the first of each
	// input drawn.
	l2, err := RunScenario(envs[0], SitGoodDominant, core.StrategyL2, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if min := 25 - len(envs[0].App.ScenarioSizes); l2.MemoHits < min || l2.MemoHits >= 25 {
		t.Errorf("L2 scenario replayed %d of 25 runs, want at least %d and fewer than 25", l2.MemoHits, min)
	}
}

func TestExtensionSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow under -race/-short")
	}
	envs := testEnvs(t)
	fe := envs[0]

	pts, err := RunMarkovSweepOn(nil, fe, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("markov points = %d", len(pts))
	}
	for _, p := range pts {
		if p.AL <= 0 || p.R <= 0 {
			t.Errorf("stay=%v: non-positive normalized energies %+v", p.StayProb, p)
		}
		if p.AL > 1.1 {
			t.Errorf("stay=%v: AL=%.3f should not lose badly to L2", p.StayProb, p.AL)
		}
	}

	tps, err := RunTrackerErrorSweepOn(nil, fe, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if tps[0].AL != 1.0 {
		t.Errorf("error-free point should normalize to 1, got %v", tps[0].AL)
	}
	// Estimation errors cost energy (retransmissions + wrong power),
	// so the noisiest tracker must not be cheaper than the exact one.
	if tps[len(tps)-1].AL < 1.0 {
		t.Errorf("noisy tracker cheaper than exact: %+v", tps)
	}

	rows, err := RunBreakdownOn(nil, fe, 15, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(core.Strategies) {
		t.Fatalf("breakdown rows = %d", len(rows))
	}
	for _, r := range rows {
		var sum float64
		for _, v := range r.Share {
			sum += v
		}
		// Shares of total (compile overlaps core+memory, so exclude it
		// from the sum check).
		sum -= r.Share["compile"]
		if sum < 0.95 || sum > 1.05 {
			t.Errorf("%v: component shares sum to %.3f", r.Strategy, sum)
		}
	}
	// Shape: the remote strategy's energy is radio-dominated; the
	// interpreter's is core-dominated.
	for _, r := range rows {
		switch r.Strategy {
		case core.StrategyR:
			if r.Share["radio-tx"]+r.Share["radio-rx"] < 0.5 {
				t.Errorf("R: radio share %.2f should dominate", r.Share["radio-tx"]+r.Share["radio-rx"])
			}
		case core.StrategyI:
			if r.Share["core"] < 0.5 {
				t.Errorf("I: core share %.2f should dominate", r.Share["core"])
			}
		}
	}
}

func TestCodeCacheSweep(t *testing.T) {
	envs := testEnvs(t)
	pts, err := RunCodeCacheSweepOn(nil, envs[1], 20, 42) // sort: biggest plan
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].AL != 1.0 || pts[0].Evictions != 0 {
		t.Errorf("unlimited cache baseline wrong: %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Evictions == 0 {
		t.Errorf("256-byte cache should evict (plan is ~%d B)", 684)
	}
	if last.AL < 1.0 {
		t.Errorf("thrashing cache should not be cheaper: %+v", last)
	}
}
