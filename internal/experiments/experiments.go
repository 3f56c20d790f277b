// Package experiments reproduces every table and figure of the
// paper's evaluation: the model-parameter tables (Figs 1-3, 5), the
// static-strategy comparison (Fig 6), the adaptive-strategy scenarios
// (Fig 7), the local-vs-remote compilation energies (Fig 8), and the
// quantitative claims of §3 (estimator accuracy, AL savings over the
// best static strategy, offload speedups, AA vs AL).
package experiments

import (
	"fmt"

	"greenvm/internal/apps"
	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
)

// Env is a prepared application: program, profile, target. Preparing
// is done once per app and shared across scenarios (profiling is the
// offline step the paper performs when the application is deployed on
// the server).
type Env struct {
	App    *apps.App
	Prog   *bytecode.Program
	Target *core.Target
	Prof   *core.Profile
}

// Prepare compiles and profiles one application.
func Prepare(a *apps.App, seed uint64) (*Env, error) {
	prog, err := a.FreshProgram()
	if err != nil {
		return nil, err
	}
	target := a.Target()
	pr := &core.Profiler{
		Prog:        prog,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        seed,
	}
	prof, err := pr.ProfileTarget(target)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return &Env{App: a, Prog: prog, Target: target, Prof: prof}, nil
}

// PrepareAllOn prepares a set of applications, profiling them in
// parallel on the runner (each app gets its own fresh Program, so
// preparations are independent; a nil runner runs serially).
func PrepareAllOn(r *Runner, list []*apps.App, seed uint64) ([]*Env, error) {
	envs := make([]*Env, len(list))
	err := r.Do(len(list), func(i int) error {
		e, err := Prepare(list[i], seed)
		if err != nil {
			return err
		}
		envs[i] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return envs, nil
}

// inputSeed fixes the input content per (app, size) so identical
// invocations are replayable.
func inputSeed(app string, size int, seed uint64) uint64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for _, c := range app {
		h = h*1099511628211 ^ uint64(c)
	}
	return h*2654435761 + uint64(size)
}

// newClient wires a fresh client+server for one scenario.
func (e *Env) newClient(strategy core.Strategy, ch radio.Channel, seed uint64) (*core.Client, error) {
	server := core.NewServer(e.Prog)
	c := core.New(core.ClientConfig{
		ID:       fmt.Sprintf("%s-%v", e.App.Name, strategy),
		Prog:     e.Prog,
		Server:   server,
		Channel:  ch,
		Strategy: strategy,
		Seed:     seed,
	})
	if err := c.Register(e.Target, e.Prof); err != nil {
		return nil, err
	}
	return c, nil
}

// runOnceOn runs one application execution on the client with an
// input of the given size and returns its energy and time.
func (e *Env) runOnceOn(c *core.Client, size int, seed uint64) (energy.Joules, energy.Seconds, error) {
	e0, t0 := c.Energy(), c.Clock
	if err := c.RunExecution(e.Target, size, inputSeed(e.App.Name, size, seed)); err != nil {
		return 0, 0, err
	}
	return c.Energy() - e0, c.Clock - t0, nil
}
