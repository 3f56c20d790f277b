package vm

import (
	"fmt"
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/rng"
)

// heapState renders everything a run can observe of a heap: each
// object under its handle, with its address and contents, and the
// allocator position.
func heapState(h *Heap) string {
	s := fmt.Sprintf("alloc %+v\n", *h.alloc)
	for i, o := range h.objects {
		s += fmt.Sprintf("%d: class %d kind %d arr %v len %d addr %#x I %v F %v\n",
			i+1, o.ClassID, o.Kind, o.IsArr, o.Len, o.Addr, o.I, o.F)
	}
	return s
}

// buildInput puts a random graph plus a float array on v's empty heap,
// the way a target's MakeArgs builds an input.
func buildInput(t *testing.T, v *VM, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	randomGraph(t, v, r)
	fa, err := v.Heap.NewArray(bytecode.ElemFloat, int64(r.Intn(40)))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := v.Heap.ArrayLen(fa)
	for i := int64(0); i < n; i++ {
		if err := v.Heap.SetElemF(fa, i, r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// overwrite writes new values to every int and float slot of the
// object under handle h, through the heap's setters as a run does.
func overwrite(t *testing.T, heap *Heap, h int64, r *rng.RNG) {
	t.Helper()
	o, err := heap.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o.I {
		if o.IsArr {
			err = heap.SetElemI(h, int64(i), int64(r.Intn(1<<30)))
		} else {
			err = heap.SetFieldI(h, i, int64(r.Intn(1<<30)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range o.F {
		if o.IsArr {
			err = heap.SetElemF(h, int64(i), r.Float64())
		} else {
			err = heap.SetFieldF(h, i, r.Float64())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// scribble plays a run on the heap: it overwrites every live object,
// then allocates fresh objects of random shapes.
func scribble(t *testing.T, h *Heap, r *rng.RNG) {
	t.Helper()
	for i := range h.objects {
		overwrite(t, h, int64(i+1), r)
	}
	for k := r.Intn(6); k >= 0; k-- {
		kind := []bytecode.ElemKind{bytecode.ElemInt, bytecode.ElemFloat, bytecode.ElemRef}[r.Intn(3)]
		if _, err := h.NewArray(kind, int64(r.Intn(100))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeapRestoreProperty: over random object graphs, ResetRun with a
// heap image puts back exactly what Snapshot saw — handles, addresses,
// contents and the allocator position — whatever the runs in between
// wrote, allocated or emptied, and the next allocation lands where it
// lands right after building the input on a fresh heap.
func TestHeapRestoreProperty(t *testing.T) {
	p := buildTestProgram(t)
	model := energy.MicroSPARCIIep()
	for trial := 0; trial < 60; trial++ {
		seed := uint64(trial)*2654435761 + 17
		v := New(p, model)
		buildInput(t, v, seed)
		want := heapState(v.Heap)
		img := v.Heap.Snapshot()

		// Where the first allocation after the input lands on a fresh
		// heap.
		ref := New(p, model)
		buildInput(t, ref, seed)
		probe := func(v *VM) string {
			h, err := v.Heap.NewArray(bytecode.ElemInt, 9)
			if err != nil {
				t.Fatal(err)
			}
			o, err := v.Heap.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("handle %d addr %#x", h, o.Addr)
		}
		wantNext := probe(ref)

		r := rng.New(seed ^ 0x5EED)
		for round := 0; round < 4; round++ {
			scribble(t, v.Heap, r)
			if round%2 == 1 {
				// An emptied heap refilled with other objects must
				// leave no trace in the restored one.
				v.ResetRun(nil)
				scribble(t, v.Heap, r)
			}
			v.ResetRun(img)
			if got := heapState(v.Heap); got != want {
				t.Fatalf("trial %d round %d: restored heap\n%s\nwant\n%s", trial, round, got, want)
			}
			if got := probe(v); got != wantNext {
				t.Fatalf("trial %d round %d: next allocation %s, want %s", trial, round, got, wantNext)
			}
		}
	}
}

// TestRestoreReusesObjects: once each image has been restored, runs
// that alternate between two inputs and write to them restore without
// allocating.
func TestRestoreReusesObjects(t *testing.T) {
	v := New(buildTestProgram(t), energy.MicroSPARCIIep())
	buildInput(t, v, 3)
	a := v.Heap.Snapshot()
	v.ResetRun(nil)
	buildInput(t, v, 4)
	b := v.Heap.Snapshot()
	r := rng.New(5)
	run := func(img *HeapImage) {
		v.Heap.Restore(img)
		for i := range v.Heap.objects {
			overwrite(t, v.Heap, int64(i+1), r)
		}
	}
	run(a)
	run(b)
	if n := testing.AllocsPerRun(20, func() {
		run(a)
		run(b)
	}); n != 0 {
		t.Errorf("%v allocations per pair of restores, want 0", n)
	}
}
