package core_test

import (
	"context"

	"fmt"
	"log"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/lang"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// Example shows the full offloading workflow: compile an MJ program
// with a potential method, profile it, and let the AA strategy decide
// where to execute and compile.
func Example() {
	const src = `
class App {
  potential static int sumsq(int n) {
    int s = 0;
    for (int i = 1; i <= n; i = i + 1) { s = s + i * i; }
    return s;
  }
}`
	prog, err := lang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	target := &core.Target{
		Class:  "App",
		Method: "sumsq",
		MakeArgs: func(v *vm.VM, size int, r *rng.RNG) ([]vm.Slot, error) {
			return []vm.Slot{vm.IntSlot(int32(size))}, nil
		},
		SizeOf: func(v *vm.VM, args []vm.Slot) (float64, error) {
			return float64(args[0].I), nil
		},
		ProfileSizes: []int{100, 200, 400, 800, 1600},
	}

	profiler := &core.Profiler{
		Prog:        prog,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        1,
	}
	prof, err := profiler.ProfileTarget(target)
	if err != nil {
		log.Fatal(err)
	}

	server := core.NewServer(prog)
	client := core.New(core.ClientConfig{
		ID: "pda", Prog: prog, Server: server,
		Channel: radio.Fixed{Cls: radio.Class4}, Strategy: core.StrategyAA, Seed: 7,
	})
	if err := client.Register(target, prof); err != nil {
		log.Fatal(err)
	}

	res, err := client.Invoke(context.Background(), "App", "sumsq", []vm.Slot{vm.IntSlot(1000)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("result:", res.I)
	fmt.Println("offloaded:", client.Stats.ModeCounts[core.ModeRemote] == 1)
	// Output:
	// result: 333833500
	// offloaded: true
}
