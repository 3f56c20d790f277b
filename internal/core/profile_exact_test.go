package core_test

import (
	"fmt"
	"math"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// referencePoint measures one profile size with six simulations: one
// per local mode, a second interpreted run on a fresh VM that
// serializes the arguments and the result, and an L3 run on a VM with
// the server's CPU model for the server time.
func referencePoint(prog *bytecode.Program, t *core.Target, bodies [3]map[*bytecode.Method]*isa.Code,
	size int, seed uint64) (core.ProfilePoint, error) {

	var pt core.ProfilePoint
	m := prog.FindMethod(t.Class, t.Method)
	runOnce := func(model *energy.CPUModel, mode core.Mode) (*energy.Account, error) {
		v := vm.New(prog, model)
		if mode.IsCompiled() {
			b := bodies[mode.Level()-jit.Level1]
			v.Dispatch = vm.DispatchFunc(func(mm *bytecode.Method) *isa.Code { return b[mm] })
		}
		args, err := t.MakeArgs(v, size, rng.New(seed))
		if err != nil {
			return nil, err
		}
		v.Acct.Reset()
		v.Hier.Flush()
		if _, err := v.Invoke(m, args); err != nil {
			return nil, err
		}
		return v.Acct, nil
	}
	for mode := core.ModeInterp; mode <= core.ModeL3; mode++ {
		acct, err := runOnce(energy.MicroSPARCIIep(), mode)
		if err != nil {
			return pt, err
		}
		pt.Energy[mode] = float64(acct.Total())
		pt.Time[mode] = float64(acct.Time())
	}

	v := vm.New(prog, energy.MicroSPARCIIep())
	args, err := t.MakeArgs(v, size, rng.New(seed))
	if err != nil {
		return pt, err
	}
	ab, err := v.Heap.EncodeArgs(m, args)
	if err != nil {
		return pt, err
	}
	res, err := v.Invoke(m, args)
	if err != nil {
		return pt, err
	}
	rb, err := v.Heap.EncodeValue(m.Ret.Kind, res)
	if err != nil {
		return pt, err
	}
	pt.TxBytes, pt.RxBytes = float64(len(ab)), float64(len(rb))

	acct, err := runOnce(energy.ServerSPARC(), core.ModeL3)
	if err != nil {
		return pt, err
	}
	pt.ServerTime = float64(acct.Time())
	return pt, nil
}

// TestProfileMeasurementMatchesSixRunReference holds the profiler's
// four simulations per size to the six-simulation measurement they
// replace: per-mode energy and time, wire sizes and server time must
// be bit-identical for every app at its smallest and largest profile
// size. Because the reference runs the server model itself, an edit
// that gives the server other cycle costs than the handset fails here.
func TestProfileMeasurementMatchesSixRunReference(t *testing.T) {
	seeds := []uint64{42, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			sizes := []int{a.ProfileSizes[0], a.ProfileSizes[len(a.ProfileSizes)-1]}
			if testing.Short() {
				sizes = sizes[:1]
			}
			for _, seed := range seeds {
				prog, err := a.FreshProgram()
				if err != nil {
					t.Fatal(err)
				}
				target := a.Target()
				pr := &core.Profiler{Prog: prog, ClientModel: energy.MicroSPARCIIep(), Seed: seed}
				got, err := pr.MeasureProfilePoints(target, sizes)
				if err != nil {
					t.Fatal(err)
				}
				bodies, err := core.PlanBodies(prog, prog.FindMethod(target.Class, target.Method))
				if err != nil {
					t.Fatal(err)
				}
				for i, size := range sizes {
					want, err := referencePoint(prog, target, bodies, size, seed)
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range diffPoints(got[i], want) {
						t.Errorf("seed %d size %d: %s", seed, size, d)
					}
				}
			}
		})
	}
}

// diffPoints lists the fields of two profile points whose bits differ.
func diffPoints(got, want core.ProfilePoint) []string {
	var out []string
	check := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			out = append(out, fmt.Sprintf("%s = %v, six-run reference %v", name, g, w))
		}
	}
	for mode := core.ModeInterp; mode <= core.ModeL3; mode++ {
		check(fmt.Sprintf("energy[%v]", mode), got.Energy[mode], want.Energy[mode])
		check(fmt.Sprintf("time[%v]", mode), got.Time[mode], want.Time[mode])
	}
	check("txBytes", got.TxBytes, want.TxBytes)
	check("rxBytes", got.RxBytes, want.RxBytes)
	check("serverTime", got.ServerTime, want.ServerTime)
	return out
}
