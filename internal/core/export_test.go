package core

import (
	"fmt"

	"greenvm/internal/bytecode"
	"greenvm/internal/isa"
)

// ProfilePoint is one profiled size point with exported fields, for the
// external profiler tests.
type ProfilePoint struct {
	Energy, Time                 [numLocalModes]float64
	TxBytes, RxBytes, ServerTime float64
}

// MeasureProfilePoints runs the profiler's own measurement of the
// target at the given sizes.
func (p *Profiler) MeasureProfilePoints(t *Target, sizes []int) ([]ProfilePoint, error) {
	m := p.Prog.FindMethod(t.Class, t.Method)
	if m == nil {
		return nil, fmt.Errorf("no method %s", t.QName())
	}
	bodies, _, err := compilePlanBodies(p.Prog, compilePlan(p.Prog, m))
	if err != nil {
		return nil, err
	}
	ms, err := p.measureSizes(t, m, bodies, sizes)
	if err != nil {
		return nil, err
	}
	pts := make([]ProfilePoint, len(ms))
	for i, mr := range ms {
		pts[i] = ProfilePoint{Energy: mr.energy, Time: mr.time,
			TxBytes: mr.txBytes, RxBytes: mr.rxBytes, ServerTime: mr.servTime}
	}
	return pts, nil
}

// PlanBodies returns the native bodies of the method's compilation plan
// at each level: PlanBodies(...)[level-1].
func PlanBodies(prog *bytecode.Program, m *bytecode.Method) ([3]map[*bytecode.Method]*isa.Code, error) {
	bodies, _, err := compilePlanBodies(prog, compilePlan(prog, m))
	return bodies, err
}
