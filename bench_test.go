// Benchmarks regenerating the paper's tables and figures (one
// Benchmark per table/figure, with the reproduced quantity reported
// via b.ReportMetric) plus microbenchmarks of the substrates and
// ablations of the design choices called out in DESIGN.md.
//
// The figure benches run scaled-down configurations; `go run
// ./cmd/figures` produces the full-size outputs recorded in
// EXPERIMENTS.md.
package greenvm

import (
	"context"
	"net"
	"sync"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/lang"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// Shared prepared environments (profiled once; preparation is the
// paper's offline step and must stay out of the timed region).
var (
	envOnce sync.Once
	envFE   *experiments.Env
	envSort *experiments.Env
	envErr  error
)

func preparedEnvs(b *testing.B) (*experiments.Env, *experiments.Env) {
	b.Helper()
	envOnce.Do(func() {
		envFE, envErr = experiments.Prepare(apps.FE(), 42)
		if envErr == nil {
			envSort, envErr = experiments.Prepare(apps.Sort(), 42)
		}
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envFE, envSort
}

// BenchmarkFig1EnergyModel exercises the Fig 1 accounting hot path:
// charging instruction mixes to an account.
func BenchmarkFig1EnergyModel(b *testing.B) {
	model := energy.MicroSPARCIIep()
	acct := energy.NewAccount(model)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acct.AddInstr(energy.Load, 2)
		acct.AddInstr(energy.Store, 1)
		acct.AddInstr(energy.ALUSimple, 3)
		acct.AddInstr(energy.Branch, 1)
		acct.AddMemAccess(1)
	}
	b.ReportMetric(float64(acct.Total())*1e9/float64(b.N), "nJ/op")
}

// BenchmarkFig2RadioModel exercises the Fig 2 communication model: the
// energy of a 1 KB exchange per channel class.
func BenchmarkFig2RadioModel(b *testing.B) {
	chip := radio.WCDMA()
	var sink energy.Joules
	for i := 0; i < b.N; i++ {
		cls := radio.Class1 + radio.Class(i%4)
		sink += chip.TxEnergy(1024, cls) + chip.RxEnergy(1024, cls)
	}
	b.ReportMetric(float64(sink)/float64(b.N)*1e3, "mJ/exchange")
}

// BenchmarkFig3Workloads regenerates every benchmark's input at its
// small size and verifies it against the Go reference.
func BenchmarkFig3Workloads(b *testing.B) {
	list := apps.All()
	for i := 0; i < b.N; i++ {
		a := list[i%len(list)]
		in := a.MakeInput(a.ProfileSizes[0], uint64(i))
		prog, err := a.Program()
		if err != nil {
			b.Fatal(err)
		}
		v := vm.New(prog, energy.MicroSPARCIIep())
		args, err := in.Args(v)
		if err != nil {
			b.Fatal(err)
		}
		res, err := v.InvokeByName(a.Class, a.Method, args)
		if err != nil {
			b.Fatal(err)
		}
		if err := in.Check(v, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6StaticStrategies regenerates one Fig 6 bar group
// (single execution of fe under every static strategy) per iteration.
func BenchmarkFig6StaticStrategies(b *testing.B) {
	fe, _ := preparedEnvs(b)
	b.ResetTimer()
	var norm float64
	for i := 0; i < b.N; i++ {
		bars, err := experiments.RunFig6On(nil, []*experiments.Env{fe}, 42)
		if err != nil {
			b.Fatal(err)
		}
		norm = float64(bars[0].R[0]) / float64(bars[0].Normalizer)
	}
	b.ReportMetric(norm, "R(C4)/L1")
}

// BenchmarkFig7AdaptiveStrategies runs one scaled-down Fig 7 scenario
// (fe, uniform situation, AL, 20 executions) per iteration.
func BenchmarkFig7AdaptiveStrategies(b *testing.B) {
	fe, _ := preparedEnvs(b)
	b.ResetTimer()
	var perRun float64
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunScenario(fe, experiments.SitUniform, core.StrategyAL, 20, 42)
		if err != nil {
			b.Fatal(err)
		}
		perRun = float64(cell.Energy) / 20 * 1e3
	}
	b.ReportMetric(perRun, "mJ/execution")
}

// BenchmarkFig8CompilationEnergy regenerates the Fig 8 compilation
// table for the prepared apps.
func BenchmarkFig8CompilationEnergy(b *testing.B) {
	fe, srt := preparedEnvs(b)
	envs := []*experiments.Env{fe, srt}
	b.ResetTimer()
	var c4 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig8On(nil, envs)
		if err != nil {
			b.Fatal(err)
		}
		c4 = rows[0].Remote[3]
	}
	b.ReportMetric(c4, "remoteC4/localL1*100")
}

// --- Substrate microbenchmarks ---

const benchSrc = `
class B {
  static int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      s = s + (i * i + 3 * i + 7) % 1000;
    }
    return s;
  }
}
`

func benchProgram(b *testing.B) *bytecode.Program {
	b.Helper()
	p, err := lang.Compile(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkInterpreter measures the bytecode interpreter's simulation
// throughput.
func BenchmarkInterpreter(b *testing.B) {
	p := benchProgram(b)
	v := vm.New(p, energy.MicroSPARCIIep())
	args := []vm.Slot{vm.IntSlot(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.InvokeByName("B", "work", args); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Steps())/float64(b.N), "bytecodes/op")
}

// BenchmarkMachineNative measures the native machine simulator.
func BenchmarkMachineNative(b *testing.B) {
	p := benchProgram(b)
	m := p.FindMethod("B", "work")
	code, _, err := jit.Compile(p, m, jit.Level2)
	if err != nil {
		b.Fatal(err)
	}
	v := vm.New(p, energy.MicroSPARCIIep())
	v.InstallCode(code)
	v.Dispatch = vm.DispatchFunc(func(mm *bytecode.Method) *isa.Code { return code })
	args := []vm.Slot{vm.IntSlot(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Invoke(m, args); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Mach.Steps)/float64(b.N), "instrs/op")
}

// BenchmarkJITCompile measures compilation throughput per level.
func BenchmarkJITCompile(b *testing.B) {
	p := benchProgram(b)
	m := p.FindMethod("B", "work")
	for _, lv := range []jit.Level{jit.Level1, jit.Level2, jit.Level3} {
		b.Run(lv.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := jit.Compile(p, m, lv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSerialization measures object-graph serialization of a
// 4 KB array.
func BenchmarkSerialization(b *testing.B) {
	p := benchProgram(b)
	v := vm.New(p, energy.MicroSPARCIIep())
	h, err := v.Heap.NewArray(bytecode.ElemInt, 1024)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(5)
	for i := int64(0); i < 1024; i++ {
		if err := v.Heap.SetElemI(h, i, int64(r.Intn(1<<16))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		buf, err := v.Heap.SerializeGraph(h)
		if err != nil {
			b.Fatal(err)
		}
		n = len(buf)
	}
	b.ReportMetric(float64(n), "bytes")
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationOptLevels quantifies what each JIT level buys: the
// simulated energy of one execution per level.
func BenchmarkAblationOptLevels(b *testing.B) {
	p := benchProgram(b)
	m := p.FindMethod("B", "work")
	for _, lv := range []jit.Level{jit.Level1, jit.Level2, jit.Level3} {
		code, _, err := jit.Compile(p, m, lv)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(lv.String(), func(b *testing.B) {
			v := vm.New(p, energy.MicroSPARCIIep())
			v.InstallCode(code)
			v.Dispatch = vm.DispatchFunc(func(mm *bytecode.Method) *isa.Code { return code })
			args := []vm.Slot{vm.IntSlot(1000)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.Invoke(m, args); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(v.Acct.Total())/float64(b.N)*1e6, "uJ/exec")
		})
	}
}

// BenchmarkAblationMemo quantifies handset replay: 15 executions of
// one input through RunExecution, which replays every repeat, and
// through Invoke from the same canonical state, which simulates every
// run. Both must charge the same energy.
func BenchmarkAblationMemo(b *testing.B) {
	fe, _ := preparedEnvs(b)
	const seed = 3
	scenario := func(replay bool) (energy.Joules, error) {
		server := core.NewServer(fe.Prog)
		client := core.New(core.ClientConfig{
			ID: "bench", Prog: fe.Prog, Server: server,
			Channel: radio.Fixed{Cls: radio.Class4}, Strategy: core.StrategyL2, Seed: 7,
		})
		if err := client.Register(fe.Target, fe.Prof); err != nil {
			return 0, err
		}
		if replay {
			for run := 0; run < 15; run++ {
				if err := client.RunExecution(fe.Target, fe.App.SmallSize, seed); err != nil {
					return 0, err
				}
			}
			return client.Energy(), nil
		}
		acct := client.VM.Acct.Snapshot()
		args, err := fe.Target.MakeArgs(client.VM, fe.App.SmallSize, rng.New(seed))
		if err != nil {
			return 0, err
		}
		*client.VM.Acct = acct
		img := client.VM.Heap.Snapshot()
		for run := 0; run < 15; run++ {
			client.NewExecution()
			client.VM.ResetRun(img)
			if _, err := client.Invoke(context.Background(), fe.App.Class, fe.App.Method, args); err != nil {
				return 0, err
			}
		}
		return client.Energy(), nil
	}
	energies := map[bool]energy.Joules{}
	for _, replay := range []bool{true, false} {
		name := "memo"
		if !replay {
			name = "nomemo"
		}
		b.Run(name, func(b *testing.B) {
			var e energy.Joules
			for i := 0; i < b.N; i++ {
				var err error
				if e, err = scenario(replay); err != nil {
					b.Fatal(err)
				}
			}
			energies[replay] = e
			b.ReportMetric(float64(e)*1e3, "mJ/scenario")
		})
	}
	if energies[true] != energies[false] {
		b.Errorf("replayed scenario charged %v, simulated %v", energies[true], energies[false])
	}
}

// BenchmarkTCPRoundtrip measures one offloaded execution over the real
// loopback TCP transport (serialization + protocol + server included).
func BenchmarkTCPRoundtrip(b *testing.B) {
	fe, _ := preparedEnvs(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go core.NewTCPServer(core.NewServer(fe.Prog), core.SessionConfig{}).Serve(l) //nolint:errcheck
	remote, err := core.DialServer(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	client := core.New(core.ClientConfig{
		ID: "bench", Prog: fe.Prog, Server: remote,
		Channel: radio.Fixed{Cls: radio.Class4}, Strategy: core.StrategyR, Seed: 7,
	})
	if err := client.Register(fe.Target, fe.Prof); err != nil {
		b.Fatal(err)
	}
	args, err := fe.Target.MakeArgs(client.VM, fe.App.SmallSize, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(context.Background(), fe.App.Class, fe.App.Method, args); err != nil {
			b.Fatal(err)
		}
	}
}
