package core

import (
	"fmt"
	"math"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/fit"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// Target binds a potential method to its workload: how to build
// arguments of a given size parameter, and how to read the size
// parameter back from arguments at runtime (the helper method's view).
type Target struct {
	Class, Method string
	// MakeArgs builds arguments with the given size parameter in the
	// VM's heap. It must be deterministic for a given (size, seed).
	MakeArgs func(v *vm.VM, size int, r *rng.RNG) ([]vm.Slot, error)
	// SizeOf recovers the size parameter from live arguments.
	SizeOf func(v *vm.VM, args []vm.Slot) (float64, error)
	// ProfileSizes is the grid the profiler measures; it should span
	// the sizes the workload will use.
	ProfileSizes []int
	// NLogN hints that cost curves follow n*log n (e.g. sorting).
	NLogN bool
}

// QName returns the qualified method name.
func (t *Target) QName() string { return t.Class + "." + t.Method }

// Profile is the per-method data the paper embeds in class files as
// static final variables for the helper methods: curve-fitted energy
// and time estimators per execution mode, serialized argument/result
// sizes, server execution time, and per-plan compile costs and code
// sizes per optimization level.
type Profile struct {
	Target *Target

	// EnergyOf[mode] estimates client energy (J) vs size parameter for
	// the four local modes.
	EnergyOf [numLocalModes]fit.Predictor
	// TimeOf[mode] estimates client execution time (s) vs size.
	TimeOf [numLocalModes]fit.Predictor
	// TxBytes/RxBytes estimate serialized argument and result sizes.
	TxBytes fit.Predictor
	RxBytes fit.Predictor
	// ServerTime estimates the server-side execution time (s) vs size.
	ServerTime fit.Predictor

	// CompileEnergy[level-1] is the energy to locally compile the whole
	// compilation plan (the potential method plus its callees) at that
	// level, excluding the one-time compiler-classes load.
	CompileEnergy [3]energy.Joules
	// PlanCodeBytes[level-1] is the total native code size of the plan,
	// which a remote compilation must download.
	PlanCodeBytes [3]int

	// MaxFitErr is the worst relative error observed when validating
	// the curves against held-out runs (the paper reports <= 2%).
	MaxFitErr float64
}

// Profiler measures methods on scratch VMs and fits estimator curves.
// The server side of the profile describes the server every offload
// runs on (energy.ServerSPARC, as Server uses).
type Profiler struct {
	Prog        *bytecode.Program
	ClientModel *energy.CPUModel
	Seed        uint64
}

// measurement is one profiled data point.
type measurement struct {
	size     int
	energy   [numLocalModes]float64
	time     [numLocalModes]float64
	txBytes  float64
	rxBytes  float64
	servTime float64
}

// compilePlan returns the potential method and every method statically
// reachable from it through calls (its "compilation plan", paper
// §3.1), excluding other potential methods (they are intercepted and
// decided independently).
func compilePlan(prog *bytecode.Program, root *bytecode.Method) []*bytecode.Method {
	seen := map[*bytecode.Method]bool{root: true}
	order := []*bytecode.Method{root}
	for i := 0; i < len(order); i++ {
		for _, in := range order[i].Code {
			if in.Op != bytecode.INVOKESTATIC && in.Op != bytecode.INVOKEVIRTUAL {
				continue
			}
			callee := prog.Method(int(in.A))
			if callee == nil || seen[callee] || callee.Potential || len(callee.Code) == 0 {
				continue
			}
			seen[callee] = true
			order = append(order, callee)
			// Virtual calls may dispatch to overrides; include them.
			if in.Op == bytecode.INVOKEVIRTUAL {
				for _, c := range prog.Classes {
					if m := c.Own(callee.Name); m != nil && !m.Static && !seen[m] &&
						c.IsSubclassOf(callee.Class) && len(m.Code) > 0 && !m.Potential {
						seen[m] = true
						order = append(order, m)
					}
				}
			}
		}
	}
	return order
}

// planBodies is a compilation plan's native bodies at each
// optimization level: planBodies[level-1] maps every plan method to
// its body.
type planBodies [3]map[*bytecode.Method]*isa.Code

// compilePlanBodies compiles every plan method at every level through
// the shared JIT memo. stats[level-1][i] describes plan[i]'s
// compilation at that level.
func compilePlanBodies(prog *bytecode.Program, plan []*bytecode.Method) (planBodies, [3][]*jit.Stats, error) {
	var bodies planBodies
	var stats [3][]*jit.Stats
	for lv := jit.Level1; lv <= jit.Level3; lv++ {
		bodies[lv-jit.Level1] = make(map[*bytecode.Method]*isa.Code, len(plan))
		for _, mm := range plan {
			code, st, err := jit.CompileCached(prog, mm, lv)
			if err != nil {
				return planBodies{}, [3][]*jit.Stats{}, err
			}
			bodies[lv-jit.Level1][mm] = code
			stats[lv-jit.Level1] = append(stats[lv-jit.Level1], st)
		}
	}
	return bodies, stats, nil
}

// profileRun is one measured execution of a profiled target.
type profileRun struct {
	energy energy.Joules
	time   energy.Seconds
	cycles uint64
	// txBytes and rxBytes are the serialized argument and result
	// sizes, set only when the run was asked to serialize.
	txBytes, rxBytes int
}

// measure executes the target once on a fresh client VM in the given
// local mode, excluding input construction from the account. With
// wire set it also serializes the arguments and the result; encoding
// only reads the heap, so it leaves every charge of the run unchanged.
func (p *Profiler) measure(t *Target, m *bytecode.Method, bodies planBodies,
	size int, seed uint64, mode Mode, wire bool) (profileRun, error) {

	v := vm.New(p.Prog, p.ClientModel)
	if mode.IsCompiled() {
		levelBodies := bodies[mode.Level()-jit.Level1]
		v.Dispatch = vm.DispatchFunc(func(mm *bytecode.Method) *isa.Code { return levelBodies[mm] })
	}
	args, err := t.MakeArgs(v, size, rng.New(seed))
	if err != nil {
		return profileRun{}, err
	}
	var r profileRun
	if wire {
		ab, err := v.Heap.EncodeArgs(m, args)
		if err != nil {
			return profileRun{}, err
		}
		r.txBytes = len(ab)
	}
	v.Acct.Reset()
	v.Hier.Flush()
	res, err := v.Invoke(m, args)
	if err != nil {
		return profileRun{}, fmt.Errorf("core: profiling %s at %v: %w", t.QName(), mode, err)
	}
	if wire {
		rb, err := v.Heap.EncodeValue(m.Ret.Kind, res)
		if err != nil {
			return profileRun{}, err
		}
		r.rxBytes = len(rb)
	}
	r.energy, r.time, r.cycles = v.Acct.Total(), v.Acct.Time(), v.Acct.Cycles
	return r, nil
}

// measureSizes measures the target at each size with four simulations
// per size, one per local mode. The interpreted run also yields the
// wire sizes. The server time comes from the L3 run's cycle count: the
// server is the handset's ISA and cache hierarchy at a faster clock,
// so it charges exactly the cycles the handset does at L3, and the
// quotient below is the expression Account.Time evaluates on it.
func (p *Profiler) measureSizes(t *Target, m *bytecode.Method, bodies planBodies, sizes []int) ([]measurement, error) {
	server := energy.ServerSPARC()
	if p.ClientModel.MissPenaltyCycles != server.MissPenaltyCycles {
		return nil, fmt.Errorf("core: profiler client model %s stalls %d cycles per miss, the server %d; server time is derived from client cycles",
			p.ClientModel.Name, p.ClientModel.MissPenaltyCycles, server.MissPenaltyCycles)
	}
	ms := make([]measurement, 0, len(sizes))
	for _, size := range sizes {
		mr := measurement{size: size}
		for mode := ModeInterp; mode <= ModeL3; mode++ {
			r, err := p.measure(t, m, bodies, size, p.Seed, mode, mode == ModeInterp)
			if err != nil {
				return nil, err
			}
			mr.energy[mode] = float64(r.energy)
			mr.time[mode] = float64(r.time)
			switch mode {
			case ModeInterp:
				mr.txBytes, mr.rxBytes = float64(r.txBytes), float64(r.rxBytes)
			case ModeL3:
				mr.servTime = float64(energy.Seconds(float64(r.cycles) / server.ClockHz))
			}
		}
		ms = append(ms, mr)
	}
	return ms, nil
}

// ProfileTarget measures the target across its size grid, fits the
// estimator curves, stores them as method attributes, and returns the
// profile.
func (p *Profiler) ProfileTarget(t *Target) (*Profile, error) {
	m := p.Prog.FindMethod(t.Class, t.Method)
	if m == nil {
		return nil, fmt.Errorf("core: no method %s", t.QName())
	}
	if len(t.ProfileSizes) < 4 {
		return nil, fmt.Errorf("core: %s: need at least 4 profile sizes", t.QName())
	}
	plan := compilePlan(p.Prog, m)
	bodies, stats, err := compilePlanBodies(p.Prog, plan)
	if err != nil {
		return nil, err
	}

	prof := &Profile{Target: t}

	// Per-level plan compile cost and code size.
	for lv := jit.Level1; lv <= jit.Level3; lv++ {
		acct := energy.NewAccount(p.ClientModel)
		total := 0
		for i, st := range stats[lv-jit.Level1] {
			st.Charge(acct)
			total += st.CodeBytes()
			// Per-method attributes for the AA compile decision.
			plan[i].SetAttr(fmt.Sprintf("compile.energy.%s", lv), float64(st.Energy(p.ClientModel)))
			plan[i].SetAttr(fmt.Sprintf("compile.bytes.%s", lv), float64(st.CodeBytes()))
		}
		prof.CompileEnergy[lv-jit.Level1] = acct.Total()
		prof.PlanCodeBytes[lv-jit.Level1] = total
	}

	ms, err := p.measureSizes(t, m, bodies, t.ProfileSizes)
	if err != nil {
		return nil, err
	}

	// Fit curves.
	bases := []fit.Basis{fit.Poly(2), fit.Poly(1)}
	if t.NLogN {
		bases = append([]fit.Basis{fit.PolyLog()}, bases...)
	}
	xs := make([]float64, len(ms))
	for i, mr := range ms {
		xs[i] = float64(mr.size)
	}
	column := func(get func(measurement) float64) []float64 {
		ys := make([]float64, len(ms))
		for i, mr := range ms {
			ys[i] = get(mr)
		}
		return ys
	}
	// The paper fits parametric curves; when a curve cannot explain
	// the deterministic measurements within 2% (cache-regime changes),
	// the profile falls back to a table-assisted estimator.
	const fitTol = 0.02
	for mode := ModeInterp; mode <= ModeL3; mode++ {
		mode := mode
		if prof.EnergyOf[mode], err = fit.BestPredictor(xs, column(func(m measurement) float64 { return m.energy[mode] }), fitTol, bases...); err != nil {
			return nil, err
		}
		if prof.TimeOf[mode], err = fit.BestPredictor(xs, column(func(m measurement) float64 { return m.time[mode] }), fitTol, bases...); err != nil {
			return nil, err
		}
	}
	if prof.TxBytes, err = fit.BestPredictor(xs, column(func(m measurement) float64 { return m.txBytes }), fitTol, bases...); err != nil {
		return nil, err
	}
	if prof.RxBytes, err = fit.BestPredictor(xs, column(func(m measurement) float64 { return m.rxBytes }), fitTol, bases...); err != nil {
		return nil, err
	}
	if prof.ServerTime, err = fit.BestPredictor(xs, column(func(m measurement) float64 { return m.servTime }), fitTol, bases...); err != nil {
		return nil, err
	}
	for mode := ModeInterp; mode <= ModeL3; mode++ {
		if e := fit.PredictorMaxRelErr(prof.EnergyOf[mode], xs, column(func(m measurement) float64 { return m.energy[mode] })); e > prof.MaxFitErr {
			prof.MaxFitErr = e
		}
	}

	// Mirror key estimator constants into class-file attributes, as
	// the paper stores them for the helper methods.
	for lv := 0; lv < 3; lv++ {
		m.SetAttr(fmt.Sprintf("plan.compile.energy.L%d", lv+1), float64(prof.CompileEnergy[lv]))
		m.SetAttr(fmt.Sprintf("plan.code.bytes.L%d", lv+1), float64(prof.PlanCodeBytes[lv]))
	}
	if mod, ok := prof.EnergyOf[ModeInterp].(*fit.Model); ok {
		for i, c := range mod.Coef {
			m.SetAttr(fmt.Sprintf("curve.interp.c%d", i), c)
		}
	}
	return prof, nil
}

// ValidateProfile re-runs the target at held-out sizes and returns the
// worst relative error of the local-mode energy estimators — the
// paper's "within 2% of the actual energy value" check.
func (p *Profiler) ValidateProfile(t *Target, prof *Profile, sizes []int) (float64, error) {
	m := p.Prog.FindMethod(t.Class, t.Method)
	if m == nil {
		return 0, fmt.Errorf("core: no method %s", t.QName())
	}
	bodies, _, err := compilePlanBodies(p.Prog, compilePlan(p.Prog, m))
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, size := range sizes {
		for mode := ModeInterp; mode <= ModeL3; mode++ {
			r, err := p.measure(t, m, bodies, size, p.Seed+1, mode, false)
			if err != nil {
				return 0, err
			}
			est := prof.EnergyOf[mode].Eval(float64(size))
			if actual := float64(r.energy); actual > 0 {
				if rel := math.Abs(est-actual) / actual; rel > worst {
					worst = rel
				}
			}
		}
	}
	return worst, nil
}
