package core

import (
	"context"

	"math"
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/jit"
	"greenvm/internal/lang"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

const testAppSrc = `
class App {
  potential static int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      s = s + helper(i) % 1000;
    }
    return s;
  }
  static int helper(int x) { return x * x + 3 * x + 7; }

  potential static int vecsum(int[] a) {
    int s = 0;
    for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
    return s;
  }
}
`

func testProgram(t testing.TB) *bytecode.Program {
	t.Helper()
	p, err := lang.Compile(testAppSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func workTarget() *Target {
	return &Target{
		Class:  "App",
		Method: "work",
		MakeArgs: func(v *vm.VM, size int, r *rng.RNG) ([]vm.Slot, error) {
			return []vm.Slot{vm.IntSlot(int32(size))}, nil
		},
		SizeOf: func(v *vm.VM, args []vm.Slot) (float64, error) {
			return float64(args[0].I), nil
		},
		ProfileSizes: []int{50, 100, 200, 400, 800},
	}
}

func vecsumTarget() *Target {
	return &Target{
		Class:  "App",
		Method: "vecsum",
		MakeArgs: func(v *vm.VM, size int, r *rng.RNG) ([]vm.Slot, error) {
			h, err := v.Heap.NewArray(bytecode.ElemInt, int64(size))
			if err != nil {
				return nil, err
			}
			for i := 0; i < size; i++ {
				if err := v.Heap.SetElemI(h, int64(i), int64(r.Intn(100))); err != nil {
					return nil, err
				}
			}
			return []vm.Slot{vm.RefSlot(h)}, nil
		},
		SizeOf: func(v *vm.VM, args []vm.Slot) (float64, error) {
			n, err := v.Heap.ArrayLen(args[0].I)
			return float64(n), err
		},
		ProfileSizes: []int{32, 64, 128, 256, 512},
	}
}

func newProfiler(p *bytecode.Program) *Profiler {
	return &Profiler{
		Prog:        p,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        99,
	}
}

func TestProfileTarget(t *testing.T) {
	p := testProgram(t)
	prof, err := newProfiler(p).ProfileTarget(workTarget())
	if err != nil {
		t.Fatal(err)
	}
	// Interpretation must be estimated costlier than compiled modes.
	eI := prof.EnergyOf[ModeInterp].Eval(500)
	eL1 := prof.EnergyOf[ModeL1].Eval(500)
	if eI <= eL1 {
		t.Errorf("interp estimate %g <= L1 estimate %g", eI, eL1)
	}
	// Compile energy grows with level.
	if !(prof.CompileEnergy[0] < prof.CompileEnergy[1] && prof.CompileEnergy[1] < prof.CompileEnergy[2]) {
		t.Errorf("compile energies not increasing: %v", prof.CompileEnergy)
	}
	for lv := 0; lv < 3; lv++ {
		if prof.PlanCodeBytes[lv] <= 0 {
			t.Errorf("no code bytes at L%d", lv+1)
		}
	}
	if prof.MaxFitErr > 0.05 {
		t.Errorf("training fit error %g too large", prof.MaxFitErr)
	}
	// Attributes mirrored into the class file.
	m := p.FindMethod("App", "work")
	if m.Attr("plan.compile.energy.L1", -1) <= 0 {
		t.Error("plan compile attr missing")
	}
	if m.Attr("compile.energy.L1", -1) <= 0 {
		t.Error("per-method compile attr missing")
	}
}

func TestProfileAccuracyWithinTwoPercent(t *testing.T) {
	p := testProgram(t)
	pr := newProfiler(p)
	target := workTarget()
	prof, err := pr.ProfileTarget(target)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := pr.ValidateProfile(target, prof, []int{75, 150, 300, 600})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.02 {
		t.Errorf("held-out estimator error %.4f exceeds the paper's 2%%", worst)
	}
}

// newTestClient wires a client+server for one strategy.
func newTestClient(t *testing.T, p *bytecode.Program, strategy Strategy, ch radio.Channel, targets ...*Target) *Client {
	t.Helper()
	server := NewServer(p)
	c := New(ClientConfig{ID: "client-1", Prog: p, Server: server, Channel: ch, Strategy: strategy, Seed: 7})
	pr := newProfiler(p)
	for _, tg := range targets {
		prof, err := pr.ProfileTarget(tg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(tg, prof); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAllStrategiesComputeSameResult(t *testing.T) {
	var want int64
	first := true
	for _, s := range Strategies {
		p := testProgram(t)
		c := newTestClient(t, p, s, radio.Fixed{Cls: radio.Class4}, workTarget())
		res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(200)})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if first {
			want = res.I
			first = false
		} else if res.I != want {
			t.Errorf("%v: result %d, want %d", s, res.I, want)
		}
		if c.Energy() <= 0 {
			t.Errorf("%v: no energy charged", s)
		}
		if c.Clock <= 0 {
			t.Errorf("%v: clock did not advance", s)
		}
	}
}

func TestRemoteRefArguments(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, vecsumTarget())
	tg := c.targets[p.FindMethod("App", "vecsum")]
	args, err := tg.MakeArgs(c.VM, 100, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Reference result computed locally on a scratch VM.
	v2 := vm.New(p, energy.MicroSPARCIIep())
	args2, _ := tg.MakeArgs(v2, 100, rng.New(3))
	want, err := v2.InvokeByName("App", "vecsum", args2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Invoke(context.Background(), "App", "vecsum", args)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I {
		t.Errorf("remote vecsum = %d, want %d", got.I, want.I)
	}
	if c.Stats.ModeCounts[ModeRemote] != 1 {
		t.Errorf("mode counts = %v", c.Stats.ModeCounts)
	}
	if c.VM.Acct.Component(energy.CompRadioTx) <= 0 ||
		c.VM.Acct.Component(energy.CompRadioRx) <= 0 ||
		c.VM.Acct.Component(energy.CompLeakage) <= 0 {
		t.Error("remote execution should charge radio tx, rx and leakage")
	}
}

func TestStaticCompiledStrategiesCompileOnce(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyL2, radio.Fixed{Cls: radio.Class4}, workTarget())
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(100)}); err != nil {
			t.Fatal(err)
		}
	}
	// Plan = work + helper, compiled once at L2.
	if c.Stats.LocalCompiles != 2 {
		t.Errorf("LocalCompiles = %d, want 2", c.Stats.LocalCompiles)
	}
	if c.Stats.ModeCounts[ModeL2] != 3 {
		t.Errorf("mode counts = %v", c.Stats.ModeCounts)
	}
	if c.VM.Acct.Component(energy.CompCompile) <= 0 {
		t.Error("no compile energy recorded")
	}
}

func TestConnectionLossFallsBackLocally(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	c.Link.Fault = radio.IIDLoss{P: 1}
	res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(150)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Fallbacks == 0 {
		t.Error("expected a fallback")
	}
	if c.Stats.ModeCounts[ModeRemote] != 1 {
		t.Errorf("mode counts = %v (remote attempt should be recorded)", c.Stats.ModeCounts)
	}
	// The local result must still be correct.
	v2 := vm.New(p, energy.MicroSPARCIIep())
	want, _ := v2.InvokeByName("App", "work", []vm.Slot{vm.IntSlot(150)})
	if res.I != want.I {
		t.Errorf("fallback result %d, want %d", res.I, want.I)
	}
}

func TestAdaptiveCompilesHotMethod(t *testing.T) {
	p := testProgram(t)
	// Poor channel makes remote expensive; repeated invocations make
	// compilation worthwhile.
	c := newTestClient(t, p, StrategyAL, radio.Fixed{Cls: radio.Class1}, workTarget())
	for i := 0; i < 40; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(600)}); err != nil {
			t.Fatal(err)
		}
		c.StepChannel()
	}
	compiled := c.Stats.ModeCounts[ModeL1] + c.Stats.ModeCounts[ModeL2] + c.Stats.ModeCounts[ModeL3]
	if compiled == 0 {
		t.Errorf("AL never chose a compiled mode over 40 hot invocations: %v", c.Stats.ModeCounts)
	}
	if c.Stats.ModeCounts[ModeRemote] > 0 {
		t.Errorf("AL offloaded under a Class 1 channel: %v", c.Stats.ModeCounts)
	}
}

func TestAdaptiveOffloadsUnderGoodChannel(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAL, radio.Fixed{Cls: radio.Class4}, workTarget())
	for i := 0; i < 10; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(800)}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats.ModeCounts[ModeRemote] == 0 {
		t.Errorf("AL never offloaded under Class 4 with large inputs: %v", c.Stats.ModeCounts)
	}
}

func TestAARemoteCompilation(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAA, radio.Fixed{Cls: radio.Class4}, workTarget())
	// Force a compiled mode by invoking repeatedly under a poor-for-
	// offload configuration: use moderate size where compiled local
	// execution wins.
	for i := 0; i < 30; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(400)}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats.RemoteCompiles == 0 && c.Stats.LocalCompiles == 0 {
		t.Skip("AA never compiled in this configuration")
	}
	// Under a good channel, downloading beats paying the compiler
	// load locally for the first compilation.
	if c.Stats.RemoteCompiles == 0 {
		t.Errorf("AA with good channel should download pre-compiled code (local=%d remote=%d)",
			c.Stats.LocalCompiles, c.Stats.RemoteCompiles)
	}
}

func TestAAFallsBackToLocalCompileOnLoss(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAA, radio.Fixed{Cls: radio.Class4}, workTarget())
	c.Link.Fault = radio.IIDLoss{P: 1}
	// Remote execution impossible; remote compile impossible; client
	// must still make progress locally.
	res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(300)})
	if err != nil {
		t.Fatal(err)
	}
	v2 := vm.New(p, energy.MicroSPARCIIep())
	want, _ := v2.InvokeByName("App", "work", []vm.Slot{vm.IntSlot(300)})
	if res.I != want.I {
		t.Errorf("result %d, want %d", res.I, want.I)
	}
	if c.Stats.RemoteCompiles != 0 {
		t.Error("remote compile should be impossible with a dead link")
	}
}

func TestServerStatusTableQueuesEarlyResults(t *testing.T) {
	p := testProgram(t)
	server := NewServer(p)
	v := vm.New(p, energy.MicroSPARCIIep())
	m := p.FindMethod("App", "work")
	args, _ := v.Heap.EncodeArgs(m, []vm.Slot{vm.IntSlot(100)})
	// Client claims it will sleep for a long time: result gets queued.
	_, servTime, queued, err := server.Execute(context.Background(), "c1", "App", "work", args, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !queued {
		t.Error("result should be queued for a sleeping client")
	}
	if servTime <= 0 {
		t.Error("server time should be positive")
	}
	st := server.Status("c1")
	if !st.Queued || st.LastResult == nil {
		t.Error("status table row not updated")
	}
	// Client that wakes immediately: not queued.
	_, _, queued, err = server.Execute(context.Background(), "c1", "App", "work", args, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if queued {
		t.Error("result should not be queued when the client is awake")
	}
}

func TestServerCompiledBodyCache(t *testing.T) {
	p := testProgram(t)
	server := NewServer(p)
	c1, n1, err := server.CompiledBody(context.Background(), "App.helper", jit.Level2)
	if err != nil {
		t.Fatal(err)
	}
	c2, n2, err := server.CompiledBody(context.Background(), "App.helper", jit.Level2)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 <= 0 {
		t.Errorf("sizes %d, %d", n1, n2)
	}
	if c1 == c2 {
		t.Error("server must hand out clones, not shared bodies")
	}
	if _, _, err := server.CompiledBody(context.Background(), "No.Such", jit.Level1); err == nil {
		t.Error("unknown method should error")
	}
}

func TestCompilePlanCoversCallees(t *testing.T) {
	p := testProgram(t)
	plan := compilePlan(p, p.FindMethod("App", "work"))
	names := map[string]bool{}
	for _, m := range plan {
		names[m.QName()] = true
	}
	if !names["App.work"] || !names["App.helper"] {
		t.Errorf("plan = %v", names)
	}
	// Potential methods are not pulled into other plans.
	if names["App.vecsum"] {
		t.Error("unrelated potential method in plan")
	}
}

func TestDeterministicScenario(t *testing.T) {
	runOnce := func() energy.Joules {
		p := testProgram(t)
		c := newTestClient(t, p, StrategyAA, radio.UniformChannel(rng.New(5)), workTarget())
		for i := 0; i < 15; i++ {
			if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(int32(100 + 50*i))}); err != nil {
				t.Fatal(err)
			}
			c.StepChannel()
		}
		return c.Energy()
	}
	if runOnce() != runOnce() {
		t.Error("identical scenarios must consume identical energy")
	}
}

// TestMemoReplayMatchesReal: replaying a recorded local run charges
// exactly what simulating it again charges. Energy and time are
// bit-identical with replay on and off over repeated executions of two
// heap inputs, for local strategies and for offloading ones on a lossy
// link, whose fallbacks run locally too.
func TestMemoReplayMatchesReal(t *testing.T) {
	for _, s := range []Strategy{StrategyI, StrategyL2, StrategyR, StrategyAL, StrategyAA} {
		p := testProgram(t)
		run := func(replay bool) (energy.Joules, energy.Seconds, int) {
			defer SetReplay(SetReplay(replay))
			tg := vecsumTarget()
			c := newTestClient(t, p, s, radio.UniformChannel(rng.New(3)), tg)
			c.Link.Fault = radio.NewGilbertElliott(0.3, 3)
			for i := 0; i < 12; i++ {
				if err := c.RunExecution(tg, []int{64, 256}[i%2], 7); err != nil {
					t.Fatal(err)
				}
				c.StepChannel()
			}
			return c.Energy(), c.Clock, c.Stats.MemoHits
		}
		eOn, tOn, hits := run(true)
		eOff, tOff, offHits := run(false)
		if math.Float64bits(float64(eOn)) != math.Float64bits(float64(eOff)) ||
			math.Float64bits(float64(tOn)) != math.Float64bits(float64(tOff)) {
			t.Errorf("%v: replay on %v over %v s, off %v over %v s", s, eOn, tOn, eOff, tOff)
		}
		if offHits != 0 {
			t.Errorf("%v: %d replays with replay off", s, offHits)
		}
		if s != StrategyR && hits == 0 {
			t.Errorf("%v: no run was replayed", s)
		}
	}
}

func TestMemoCountsHits(t *testing.T) {
	p := testProgram(t)
	tg := workTarget()
	c := newTestClient(t, p, StrategyI, radio.Fixed{Cls: radio.Class4}, tg)
	exec := func(size int, seed uint64) {
		t.Helper()
		if err := c.RunExecution(tg, size, seed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		exec(100, 7)
	}
	if c.Stats.MemoHits != 2 {
		t.Errorf("MemoHits = %d, want 2", c.Stats.MemoHits)
	}
	// Another size or input seed runs for real, and so does Invoke.
	exec(100, 8)
	exec(120, 7)
	if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(100)}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.MemoHits != 2 {
		t.Errorf("MemoHits = %d after new inputs and Invoke, want 2", c.Stats.MemoHits)
	}
	exec(100, 8)
	if c.Stats.MemoHits != 3 {
		t.Errorf("MemoHits = %d, want 3", c.Stats.MemoHits)
	}
}
