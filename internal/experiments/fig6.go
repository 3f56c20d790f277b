package experiments

import (
	"fmt"
	"io"
	"sort"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
)

// Fig6Bar is one benchmark/input-size group of Fig 6: the energy of a
// single application execution under each static strategy. Remote
// execution is reported per channel class (the paper stacks the extra
// energy of worse channel conditions over the Class 4 bar); the
// compiled strategies include compilation and compiler-load energy, as
// in the paper.
type Fig6Bar struct {
	App  string
	Size int
	// R[i] is the remote-execution energy under Class 4-i (R[0] =
	// Class 4, best .. R[3] = Class 1, worst).
	R          [4]energy.Joules
	I          energy.Joules
	L          [3]energy.Joules // L1, L2, L3
	Normalizer energy.Joules    // the L1 energy bars are normalized by
}

// fig6PerBar is the number of measurements behind one Fig 6 bar
// group: remote under the four channel classes, the interpreter, and
// the three compiled levels.
const fig6PerBar = 8

// RunFig6On measures the static strategies on the given prepared apps
// at their small and large input sizes, with the bar measurements
// sharded across the runner: each (app, size, strategy/class) cell
// builds its own client and writes one slot of its bar.
func RunFig6On(r *Runner, envs []*Env, seed uint64) ([]Fig6Bar, error) {
	type barSpec struct {
		env  *Env
		size int
	}
	var specs []barSpec
	for _, env := range envs {
		for _, size := range []int{env.App.SmallSize, env.App.LargeSize} {
			specs = append(specs, barSpec{env, size})
		}
	}
	bars := make([]Fig6Bar, len(specs))
	for i, sp := range specs {
		bars[i] = Fig6Bar{App: sp.env.App.Name, Size: sp.size}
	}
	measure := func(env *Env, strat core.Strategy, ch radio.Channel, size int) (energy.Joules, error) {
		c, err := env.newClient(strat, ch, seed)
		if err != nil {
			return 0, err
		}
		e, _, err := env.runOnceOn(c, size, seed)
		return e, err
	}
	err := r.Do(len(specs)*fig6PerBar, func(j int) error {
		bi, k := j/fig6PerBar, j%fig6PerBar
		sp := specs[bi]
		switch {
		case k < 4:
			// Remote under each channel class.
			cls := radio.Class4 - radio.Class(k)
			e, err := measure(sp.env, core.StrategyR, radio.Fixed{Cls: cls}, sp.size)
			if err != nil {
				return err
			}
			bars[bi].R[k] = e
		case k == 4:
			// Interpreter.
			e, err := measure(sp.env, core.StrategyI, radio.Fixed{Cls: radio.Class4}, sp.size)
			if err != nil {
				return err
			}
			bars[bi].I = e
		default:
			// Compiled locals (single execution: compile + run).
			lv := k - 5
			strat := []core.Strategy{core.StrategyL1, core.StrategyL2, core.StrategyL3}[lv]
			e, err := measure(sp.env, strat, radio.Fixed{Cls: radio.Class4}, sp.size)
			if err != nil {
				return err
			}
			bars[bi].L[lv] = e
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range bars {
		bars[i].Normalizer = bars[i].L[0]
	}
	return bars, nil
}

// BestStatic returns the name of the cheapest static strategy in the
// bar, with remote priced at the given class.
func (b *Fig6Bar) BestStatic(cls radio.Class) string {
	type cand struct {
		name string
		e    energy.Joules
	}
	cands := []cand{
		{"R", b.R[radio.Class4-cls]},
		{"I", b.I},
		{"L1", b.L[0]},
		{"L2", b.L[1]},
		{"L3", b.L[2]},
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].e < cands[j].e })
	return cands[0].name
}

// RenderFig6 prints the figure as a normalized table (L1 = 1.00).
func RenderFig6(w io.Writer, bars []Fig6Bar) {
	fmt.Fprintln(w, "Fig 6: energy of static execution strategies, normalized to L1")
	fmt.Fprintln(w, "(single application execution; compiled strategies include compilation")
	fmt.Fprintln(w, "and compiler-load energy; R shown per channel class)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-5s %6s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"app", "size", "R(C4)", "R(C3)", "R(C2)", "R(C1)", "I", "L1", "L2", "L3")
	for _, b := range bars {
		n := float64(b.Normalizer)
		fmt.Fprintf(w, "%-5s %6d | %7.2f %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f %7.2f\n",
			b.App, b.Size,
			float64(b.R[0])/n, float64(b.R[1])/n, float64(b.R[2])/n, float64(b.R[3])/n,
			float64(b.I)/n, float64(b.L[0])/n, float64(b.L[1])/n, float64(b.L[2])/n)
	}
}
