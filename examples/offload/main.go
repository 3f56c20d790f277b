// Offload walks through the remote-execution machinery of Fig 4 step
// by step: object serialization of the arguments, reflective
// invocation on the server, the mobile status table and client
// power-down, and the connection-loss fallback to local execution.
package main

import (
	"context"
	"fmt"
	"log"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

func main() {
	// Use the Path-Finder benchmark: its input is an object graph (an
	// edge-list array), so offloading exercises real serialization.
	app := apps.PF()
	prog, err := app.FreshProgram()
	if err != nil {
		log.Fatal(err)
	}

	profiler := &core.Profiler{
		Prog:        prog,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        3,
	}
	target := app.Target()
	prof, err := profiler.ProfileTarget(target)
	if err != nil {
		log.Fatal(err)
	}

	server := core.NewServer(prog)
	client := core.New(core.ClientConfig{
		ID: "pda-7", Prog: prog, Server: server,
		Channel: radio.Fixed{Cls: radio.Class3}, Strategy: core.StrategyR, Seed: 11,
	})
	if err := client.Register(target, prof); err != nil {
		log.Fatal(err)
	}
	trace := client.EnableTrace()

	const size = 200
	args, err := target.MakeArgs(client.VM, size, rng.New(5))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1. client invokes PF.shortest — the JVM intercepts the potential method")
	res, err := client.Invoke(context.Background(), app.Class, app.Method, args)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := client.VM.Heap.ArrayLen(res.I)
	rec := trace.Records[len(trace.Records)-1]
	fmt.Printf("   mode=%v  result: shortest-path tree with %d nodes\n", rec.Mode, n)
	fmt.Printf("   bytes sent %d, received %d\n", client.Link.BytesSent, client.Link.BytesReceived)
	fmt.Printf("   invocation energy %v, time %.1f ms\n", rec.Energy, float64(rec.Time)*1e3)
	fmt.Printf("   breakdown: %v\n", client.VM.Acct)

	st := server.Status("pda-7")
	fmt.Printf("2. mobile status table row: request at t=%.3fs, estimated wake t=%.3fs, queued=%v\n",
		float64(st.RequestTime), float64(st.EstimatedEnd), st.Queued)

	fmt.Println("3. the channel drops — the client times out and falls back locally")
	client.Link.Fault = radio.IIDLoss{P: 1}
	res2, err := client.Invoke(context.Background(), app.Class, app.Method, args)
	if err != nil {
		log.Fatal(err)
	}
	rec = trace.Records[len(trace.Records)-1]
	fmt.Printf("   fallbacks=%d  (decision was %v; executed locally after timeout)\n",
		client.Stats.Fallbacks, rec.Mode)

	// The fallback result must match the remote one.
	a, _ := client.VM.Heap.ElemI(res.I, 0)
	b, _ := client.VM.Heap.ElemI(res2.I, 0)
	same := "match"
	if a != b {
		same = "MISMATCH"
	}
	fmt.Printf("   remote and local results %s\n", same)

	fmt.Println("4. remote compilation: download the pre-compiled body instead of running the JIT")
	client.Link.Fault = nil
	body, bytes, err := server.CompiledBody(context.Background(), "PF.shortest", 2)
	if err != nil {
		log.Fatal(err)
	}
	chip := client.Link.Chip
	fmt.Printf("   PF.shortest at L2: %d native instructions, %d B\n", len(body.Instrs), bytes)
	fmt.Printf("   download at Class 4: %v  vs  Class 1: %v  vs  local JIT+load: %v\n",
		chip.TxEnergy(64, radio.Class4)+chip.RxEnergy(bytes, radio.Class4),
		chip.TxEnergy(64, radio.Class1)+chip.RxEnergy(bytes, radio.Class1),
		energy.Joules(prof.CompileEnergy[1]))
}
