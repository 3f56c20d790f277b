// Imagepipeline runs the paper's three image benchmarks as a pipeline
// on one PGM image — median filter (denoise), high-pass filter
// (sharpen), edge detection — deciding independently for each stage
// whether to offload, and writes the intermediate images to disk.
//
// Usage: imagepipeline [input.pgm] [output-prefix]
// Without arguments it synthesizes a test scene.
package main

import (
	"context"

	"fmt"
	"log"
	"os"

	"greenvm/internal/apps"
	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/lang"
	"greenvm/internal/pgm"
	"greenvm/internal/radio"
	"greenvm/internal/vm"
)

func main() {
	var img *pgm.Image
	prefix := "pipeline"
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		img, err = pgm.Decode(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		img = pgm.Synthetic(96, 96, 2003)
	}
	if len(os.Args) > 2 {
		prefix = os.Args[2]
	}

	// One combined program containing all three stages.
	stages := []*apps.App{apps.MF(), apps.HPF(), apps.ED()}
	prog, err := combine(stages)
	if err != nil {
		log.Fatal(err)
	}

	server := core.NewServer(prog)
	client := core.New(core.ClientConfig{
		ID: "camera-1", Prog: prog, Server: server,
		Channel: radio.Fixed{Cls: radio.Class4}, Strategy: core.StrategyAL, Seed: 5,
	})
	profiler := &core.Profiler{
		Prog:        prog,
		ClientModel: energy.MicroSPARCIIep(),
		Seed:        17,
	}
	for _, a := range stages {
		t := a.Target()
		prof, err := profiler.ProfileTarget(t)
		if err != nil {
			log.Fatal(err)
		}
		if err := client.Register(t, prof); err != nil {
			log.Fatal(err)
		}
	}
	trace := client.EnableTrace()

	// Load the image into the client VM heap.
	pixels, err := intArray(client.VM, img.Pix)
	if err != nil {
		log.Fatal(err)
	}
	w, h := int32(img.W), int32(img.H)

	run := func(class, method string, args []vm.Slot) int64 {
		res, err := client.Invoke(context.Background(), class, method, args)
		if err != nil {
			log.Fatal(err)
		}
		rec := trace.Records[len(trace.Records)-1]
		fmt.Printf("%-11s mode=%-2v energy=%10v time=%6.1f ms\n",
			class+"."+method, rec.Mode, rec.Energy, float64(rec.Time)*1e3)
		return res.I
	}

	fmt.Printf("pipeline over a %dx%d image under a Class 4 channel (AL strategy)\n\n", img.W, img.H)
	denoised := run("MF", "filter", []vm.Slot{vm.RefSlot(pixels), vm.IntSlot(w), vm.IntSlot(h), vm.IntSlot(3)})
	sharpened := run("HPF", "filter", []vm.Slot{vm.RefSlot(denoised), vm.IntSlot(w), vm.IntSlot(h), vm.IntSlot(50)})
	edges := run("ED", "detect", []vm.Slot{vm.RefSlot(sharpened), vm.IntSlot(w), vm.IntSlot(h)})

	fmt.Printf("\ntotal client energy %v, %v\n", client.Energy(), client.VM.Acct)

	for _, out := range []struct {
		handle int64
		name   string
	}{
		{denoised, prefix + "-1-median.pgm"},
		{sharpened, prefix + "-2-highpass.pgm"},
		{edges, prefix + "-3-edges.pgm"},
	} {
		im := &pgm.Image{W: img.W, H: img.H, Pix: make([]int, img.W*img.H)}
		for i := range im.Pix {
			v, err := client.VM.Heap.ElemI(out.handle, int64(i))
			if err != nil {
				log.Fatal(err)
			}
			im.Pix[i] = int(v)
		}
		f, err := os.Create(out.name)
		if err != nil {
			log.Fatal(err)
		}
		if err := pgm.Encode(f, im); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Println("wrote", out.name)
	}
}

// combine builds one program containing all three stage classes.
func combine(stages []*apps.App) (*bytecode.Program, error) {
	src := ""
	for _, a := range stages {
		src += a.Source + "\n"
	}
	return lang.Compile(src)
}

func intArray(v *vm.VM, data []int) (int64, error) {
	h, err := v.Heap.NewArray(bytecode.ElemInt, int64(len(data)))
	if err != nil {
		return 0, err
	}
	for i, x := range data {
		if err := v.Heap.SetElemI(h, int64(i), int64(x)); err != nil {
			return 0, err
		}
	}
	return h, nil
}
