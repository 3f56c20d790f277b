// Adaptive traces the AL strategy's per-invocation decisions while the
// wireless channel drifts through a Markov fading process and the
// input size varies: the timeline shows the client offloading under
// good conditions, interpreting one-shot small inputs, and compiling
// when a size becomes hot — the tradeoff space of the paper's §3.2.
package main

import (
	"fmt"
	"log"
	"strings"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

func main() {
	app := apps.FE()
	prog, err := app.FreshProgram()
	if err != nil {
		log.Fatal(err)
	}
	profiler := &core.Profiler{
		Prog:        prog,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        9,
	}
	target := app.Target()
	prof, err := profiler.ProfileTarget(target)
	if err != nil {
		log.Fatal(err)
	}

	chRand := rng.New(77)
	channel := radio.NewMarkov(radio.Class3, 0.55, chRand)
	server := core.NewServer(prog)
	client := core.New(core.ClientConfig{
		ID: "pda-2", Prog: prog, Server: server,
		Channel: channel, Strategy: core.StrategyAL, Seed: 13,
	})
	if err := client.Register(target, prof); err != nil {
		log.Fatal(err)
	}
	trace := client.EnableTrace()

	sizes := app.ScenarioSizes
	sizeRand := rng.New(99)

	fmt.Println("AL over a Markov-fading channel, FE.integrate, 40 invocations")
	fmt.Println()
	fmt.Println(" #  channel      size     mode      energy      note")
	for i := 0; i < 40; i++ {
		size := sizes[sizeRand.Intn(len(sizes))]
		if err := client.RunExecution(target, size, uint64(size)); err != nil {
			log.Fatal(err)
		}
		rec := trace.Records[len(trace.Records)-1]
		note := ""
		switch {
		case rec.Mode == core.ModeRemote && channel.Current() >= radio.Class3:
			note = "good channel: offload"
		case rec.Mode == core.ModeInterp:
			note = "one-shot: interpret, skip compilation"
		case rec.Mode.IsCompiled():
			note = "hot enough to pay the JIT"
		}
		bar := strings.Repeat("#", int(channel.Current()))
		fmt.Printf("%2d  %-4s %s %8d  %-6v %10v   %s\n",
			i+1, bar, strings.Repeat(".", 4-int(channel.Current())), size, rec.Mode, rec.Energy, note)
		client.StepChannel()
	}

	fmt.Println()
	fmt.Printf("total energy %v over %.2f s virtual time\n", client.Energy(), float64(client.Clock))
	fmt.Printf("mode counts [I L1 L2 L3 R] = %v, fallbacks = %d\n", client.Stats.ModeCounts, client.Stats.Fallbacks)

	// Compare with the static strategies on the identical sequence.
	fmt.Println()
	for _, strat := range []core.Strategy{core.StrategyR, core.StrategyI, core.StrategyL2} {
		ch := radio.NewMarkov(radio.Class3, 0.55, rng.New(77))
		srv := core.NewServer(prog)
		cl := core.New(core.ClientConfig{
			ID: "pda-2", Prog: prog, Server: srv,
			Channel: ch, Strategy: strat, Seed: 13,
		})
		if err := cl.Register(target, prof); err != nil {
			log.Fatal(err)
		}
		sr := rng.New(99)
		for i := 0; i < 40; i++ {
			size := sizes[sr.Intn(len(sizes))]
			if err := cl.RunExecution(target, size, uint64(size)); err != nil {
				log.Fatal(err)
			}
			cl.StepChannel()
		}
		fmt.Printf("static %-3v on the same sequence: %v\n", strat, cl.Energy())
	}
}
