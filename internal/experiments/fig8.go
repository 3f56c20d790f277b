package experiments

import (
	"fmt"
	"io"

	"greenvm/internal/energy"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
)

// Fig8Row is the local and remote compilation energies of one
// application at one optimization level, normalized to the app's
// local-L1 energy = 100 (the paper's Fig 8 convention). Remote
// compilation is priced per channel class: transmit the fully
// qualified method names, receive the pre-compiled bodies.
type Fig8Row struct {
	App     string
	Level   jit.Level
	Local   float64
	Remote  [4]float64 // C1..C4 (paper's column order: worst..best)
	LocalJ  energy.Joules
	CodeSz  int
	Methods int
}

// RunFig8On computes compilation energies for the prepared apps from
// the profiled compile costs and code sizes, with apps sharded across
// the runner (the rows are derived from each app's profile
// independently).
func RunFig8On(r *Runner, envs []*Env) ([]Fig8Row, error) {
	chip := radio.WCDMA()
	perApp := make([][]Fig8Row, len(envs))
	err := r.Do(len(envs), func(i int) error {
		env := envs[i]
		m := env.Prog.FindMethod(env.App.Class, env.App.Method)
		if m == nil {
			return fmt.Errorf("fig8: no method for %s", env.App.Name)
		}
		base := float64(env.Prof.CompileEnergy[0])
		rows := make([]Fig8Row, 0, int(jit.Level3))
		for lv := jit.Level1; lv <= jit.Level3; lv++ {
			row := Fig8Row{
				App:    env.App.Name,
				Level:  lv,
				LocalJ: env.Prof.CompileEnergy[lv-1],
				CodeSz: env.Prof.PlanCodeBytes[lv-1],
			}
			row.Local = float64(env.Prof.CompileEnergy[lv-1]) / base * 100
			// Remote: one request per method of the plan plus the
			// download of its body.
			nMethods := planSize(env)
			row.Methods = nMethods
			for ci := 0; ci < 4; ci++ {
				cls := radio.Class1 + radio.Class(ci)
				e := chip.TxEnergy(64*nMethods, cls) + chip.RxEnergy(env.Prof.PlanCodeBytes[lv-1], cls)
				row.Remote[ci] = float64(e) / base * 100
			}
			rows = append(rows, row)
		}
		perApp[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for _, rs := range perApp {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// planSize counts the methods in the app's compilation plan by
// recomputing it from the potential method's attributes: the profiler
// stored per-method compile attrs on every plan member.
func planSize(env *Env) int {
	n := 0
	for _, m := range env.Prog.Methods {
		if m.Attr("compile.bytes.L1", -1) > 0 {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// RenderFig8 prints the table in the paper's layout.
func RenderFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Fig 8: local and remote compilation energies, normalized to local L1 = 100")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-5s %-5s %9s | %8s %8s %8s %8s | %9s\n",
		"app", "opt", "local", "C1", "C2", "C3", "C4", "code(B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-5s %9.1f | %8.1f %8.1f %8.1f %8.1f | %9d\n",
			r.App, r.Level, r.Local, r.Remote[0], r.Remote[1], r.Remote[2], r.Remote[3], r.CodeSz)
	}
}
