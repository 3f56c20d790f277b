// Quickstart: compile an MJ program with a potential method, profile
// it, and compare all seven execution/compilation strategies of the
// paper on the same workload.
package main

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

// The application: a naive prime counter. `potential` marks countPrimes
// as a candidate for remote execution, the paper's class-file
// annotation.
const src = `
class Primes {
  potential static int countPrimes(int n) {
    int count = 0;
    for (int x = 2; x <= n; x = x + 1) {
      if (isPrime(x)) { count = count + 1; }
    }
    return count;
  }
  static int isPrime(int x) {
    for (int d = 2; d * d <= x; d = d + 1) {
      if (x % d == 0) { return 0; }
    }
    return 1;
  }
}
`

func main() {
	prog, err := lang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	// Describe the workload: how to build inputs of a given size and
	// how the helper method reads the size parameter back.
	target := &core.Target{
		Class:  "Primes",
		Method: "countPrimes",
		MakeArgs: func(v *vm.VM, size int, r *rng.RNG) ([]vm.Slot, error) {
			return []vm.Slot{vm.IntSlot(int32(size))}, nil
		},
		SizeOf: func(v *vm.VM, args []vm.Slot) (float64, error) {
			return float64(args[0].I), nil
		},
		ProfileSizes: []int{500, 1000, 2000, 4000, 8000},
	}

	// Profile offline (the paper does this when the application is
	// deployed on the server): fits the per-mode energy estimators and
	// stores the helper-method constants in the class file.
	profiler := &core.Profiler{
		Prog:        prog,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        1,
	}
	prof, err := profiler.ProfileTarget(target)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Primes.countPrimes(6000), 10 application executions, Class 4 channel")
	fmt.Println()
	fmt.Printf("%-9s %12s %12s   %s\n", "strategy", "energy", "avg time", "modes chosen [R I L1 L2 L3]")
	for _, strategy := range core.Strategies {
		server := core.NewServer(prog)
		client := core.New(core.ClientConfig{
			ID: "pda-1", Prog: prog, Server: server,
			Channel: radio.Fixed{Cls: radio.Class4}, Strategy: strategy, Seed: 7,
		})
		if err := client.Register(target, prof); err != nil {
			log.Fatal(err)
		}
		for run := 0; run < 10; run++ {
			client.NewExecution() // classes reload per app execution
			res, err := client.Invoke(context.Background(), "Primes", "countPrimes", []vm.Slot{vm.IntSlot(6000)})
			if err != nil {
				log.Fatal(err)
			}
			if res.I != 783 {
				log.Fatalf("wrong result %d", res.I)
			}
		}
		fmt.Printf("%-9s %12v %10.1f ms   [%d %d %d %d %d]\n",
			strategy, client.Energy(), float64(client.Clock)/10*1e3,
			client.Stats.ModeCounts[core.ModeRemote], client.Stats.ModeCounts[core.ModeInterp],
			client.Stats.ModeCounts[core.ModeL1], client.Stats.ModeCounts[core.ModeL2], client.Stats.ModeCounts[core.ModeL3])
	}
	fmt.Println()
	fmt.Println("AL picks the cheapest mode per invocation; AA additionally downloads")
	fmt.Println("pre-compiled code from the server instead of running the JIT locally.")
}
