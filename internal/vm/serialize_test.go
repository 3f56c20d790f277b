package vm

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/rng"
)

func twoHeaps(t *testing.T) (*VM, *VM) {
	t.Helper()
	// Client and server share the program but have separate heaps.
	p := buildTestProgram(t)
	return New(p, energy.MicroSPARCIIep()), New(p, energy.MicroSPARCIIep())
}

func TestSerializeNull(t *testing.T) {
	v, w := twoHeaps(t)
	b, err := v.Heap.SerializeGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	root, used, err := w.Heap.DeserializeGraph(b)
	if err != nil || root != 0 || used != len(b) {
		t.Errorf("null roundtrip: root=%d used=%d err=%v", root, used, err)
	}
}

func TestSerializeIntArray(t *testing.T) {
	v, w := twoHeaps(t)
	h, _ := v.Heap.NewArray(bytecode.ElemInt, 5)
	for i := int64(0); i < 5; i++ {
		if err := v.Heap.SetElemI(h, i, -100*i); err != nil {
			t.Fatal(err)
		}
	}
	b, err := v.Heap.SerializeGraph(h)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := w.Heap.DeserializeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		got, err := w.Heap.ElemI(root, i)
		if err != nil || got != -100*i {
			t.Errorf("elem %d = %d, %v; want %d", i, got, err, -100*i)
		}
	}
}

func TestSerializeFloatArray(t *testing.T) {
	v, w := twoHeaps(t)
	h, _ := v.Heap.NewArray(bytecode.ElemFloat, 3)
	want := []float64{1.5, -2.25, 3.125}
	for i, x := range want {
		if err := v.Heap.SetElemF(h, int64(i), x); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := v.Heap.SerializeGraph(h)
	root, _, err := w.Heap.DeserializeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range want {
		if got, _ := w.Heap.ElemF(root, int64(i)); got != x {
			t.Errorf("elem %d = %g, want %g", i, got, x)
		}
	}
}

// buildList creates a linked list of Node objects; cyclic when cycle.
func buildList(t *testing.T, v *VM, vals []int64, cycle bool) int64 {
	t.Helper()
	nc := v.Prog.Class("Node")
	valSlot := nc.FieldSlot("val").Slot
	nextSlot := nc.FieldSlot("next").Slot
	var first, prev int64
	for _, x := range vals {
		h, err := v.Heap.NewObject(int32(nc.ID))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Heap.SetFieldI(h, valSlot, x); err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := v.Heap.SetFieldI(prev, nextSlot, h); err != nil {
				t.Fatal(err)
			}
		} else {
			first = h
		}
		prev = h
	}
	if cycle && prev != 0 {
		if err := v.Heap.SetFieldI(prev, nextSlot, first); err != nil {
			t.Fatal(err)
		}
	}
	return first
}

func TestSerializeLinkedList(t *testing.T) {
	v, w := twoHeaps(t)
	root := buildList(t, v, []int64{10, 20, 30}, false)
	b, err := v.Heap.SerializeGraph(root)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := w.Heap.DeserializeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	nc := w.Prog.Class("Node")
	valSlot, nextSlot := nc.FieldSlot("val").Slot, nc.FieldSlot("next").Slot
	want := []int64{10, 20, 30}
	for i, x := range want {
		val, err := w.Heap.FieldI(got, valSlot)
		if err != nil || val != x {
			t.Fatalf("node %d val = %d, %v; want %d", i, val, err, x)
		}
		got, err = w.Heap.FieldI(got, nextSlot)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got != 0 {
		t.Error("list should end in null")
	}
}

func TestSerializeCycle(t *testing.T) {
	v, w := twoHeaps(t)
	root := buildList(t, v, []int64{1, 2}, true)
	b, err := v.Heap.SerializeGraph(root)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := w.Heap.DeserializeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	nc := w.Prog.Class("Node")
	nextSlot := nc.FieldSlot("next").Slot
	n2, _ := w.Heap.FieldI(got, nextSlot)
	n3, _ := w.Heap.FieldI(n2, nextSlot)
	if n3 != got {
		t.Error("cycle not preserved")
	}
}

func TestSerializeSharing(t *testing.T) {
	v, w := twoHeaps(t)
	// Ref array with the same object at both indices.
	nc := v.Prog.Class("Node")
	obj, _ := v.Heap.NewObject(int32(nc.ID))
	arr, _ := v.Heap.NewArray(bytecode.ElemRef, 2)
	if err := v.Heap.SetElemI(arr, 0, obj); err != nil {
		t.Fatal(err)
	}
	if err := v.Heap.SetElemI(arr, 1, obj); err != nil {
		t.Fatal(err)
	}
	b, _ := v.Heap.SerializeGraph(arr)
	root, _, err := w.Heap.DeserializeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := w.Heap.ElemI(root, 0)
	a1, _ := w.Heap.ElemI(root, 1)
	if a0 != a1 || a0 == 0 {
		t.Error("shared reference duplicated or lost")
	}
}

func TestEncodeArgsRoundtrip(t *testing.T) {
	v, w := twoHeaps(t)
	m := v.Prog.FindMethod("Disp", "callArea")
	sq := v.Prog.Class("Square")
	h, _ := v.Heap.NewObject(int32(sq.ID))
	if err := v.Heap.SetFieldI(h, sq.FieldSlot("side").Slot, 6); err != nil {
		t.Fatal(err)
	}
	b, err := v.Heap.EncodeArgs(m, []Slot{RefSlot(h)})
	if err != nil {
		t.Fatal(err)
	}
	args, err := w.Heap.DecodeArgs(m, b)
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized square must compute its area on the other VM.
	res, err := w.Invoke(m, args)
	if err != nil || res.I != 36 {
		t.Errorf("offloaded callArea = %d, %v; want 36", res.I, err)
	}
}

func TestEncodeArgsMixedKinds(t *testing.T) {
	v, w := twoHeaps(t)
	m := &bytecode.Method{Name: "mix", Static: true,
		Params: []bytecode.Type{bytecode.TInt, bytecode.TFloat, bytecode.TArray(bytecode.TInt)},
		Ret:    bytecode.TVoid}
	arr, _ := v.Heap.NewArray(bytecode.ElemInt, 2)
	if err := v.Heap.SetElemI(arr, 1, 77); err != nil {
		t.Fatal(err)
	}
	b, err := v.Heap.EncodeArgs(m, []Slot{IntSlot(-5), FloatSlot(1.25), RefSlot(arr)})
	if err != nil {
		t.Fatal(err)
	}
	args, err := w.Heap.DecodeArgs(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if args[0].I != -5 || args[1].F != 1.25 {
		t.Errorf("scalar args = %v", args[:2])
	}
	if got, _ := w.Heap.ElemI(args[2].I, 1); got != 77 {
		t.Errorf("array arg elem = %d, want 77", got)
	}
}

func TestEncodeDecodeValue(t *testing.T) {
	v, w := twoHeaps(t)
	cases := []struct {
		kind bytecode.Kind
		s    Slot
	}{
		{bytecode.KVoid, Slot{}},
		{bytecode.KInt, IntSlot(-123456)},
		{bytecode.KFloat, FloatSlot(3.14159)},
	}
	for _, c := range cases {
		b, err := v.Heap.EncodeValue(c.kind, c.s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Heap.DecodeValue(c.kind, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.s {
			t.Errorf("%v roundtrip = %+v, want %+v", c.kind, got, c.s)
		}
	}
}

func TestDeserializeErrors(t *testing.T) {
	_, w := twoHeaps(t)
	if _, _, err := w.Heap.DeserializeGraph([]byte{0xFF}); !errors.Is(err, ErrSerialize) {
		t.Errorf("truncated: %v", err)
	}
	// Object count claims more than plausible.
	if _, _, err := w.Heap.DeserializeGraph([]byte{0x80, 0x80, 0x80, 0x80, 0x10}); err == nil {
		t.Error("absurd count should error")
	}
}

// Property: int-array serialization roundtrips arbitrary contents and
// the encoded size grows with magnitude (varint coding).
func TestSerializeIntArrayProperty(t *testing.T) {
	p := buildTestProgram(t)
	f := func(vals []int32) bool {
		v := New(p, energy.MicroSPARCIIep())
		w := New(p, energy.MicroSPARCIIep())
		h, err := v.Heap.NewArray(bytecode.ElemInt, int64(len(vals)))
		if err != nil {
			return false
		}
		for i, x := range vals {
			if err := v.Heap.SetElemI(h, int64(i), int64(x)); err != nil {
				return false
			}
		}
		b, err := v.Heap.SerializeGraph(h)
		if err != nil {
			return false
		}
		root, used, err := w.Heap.DeserializeGraph(b)
		if err != nil || used != len(b) {
			return false
		}
		for i, x := range vals {
			got, err := w.Heap.ElemI(root, int64(i))
			if err != nil || got != int64(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChargeSerialization(t *testing.T) {
	v, _ := twoHeaps(t)
	before := v.Acct.Total()
	v.ChargeSerialization(4096)
	if v.Acct.Total() <= before {
		t.Error("serialization charged no energy")
	}
	if v.Acct.InstrCount(energy.Load) != 1024 || v.Acct.InstrCount(energy.Store) != 1024 {
		t.Error("expected one load+store per word")
	}
}

// randomGraph builds a randomly shaped object graph on v's heap: 1 to
// 24 Node instances with int payloads and next pointers wired
// arbitrarily (cycles, sharing, nulls), then a ref array of n elements
// pointing into the graph. It returns the array's handle and n.
func randomGraph(t *testing.T, v *VM, r *rng.RNG) (int64, int) {
	t.Helper()
	nc := v.Prog.Class("Node")
	valSlot := nc.FieldSlot("val").Slot
	nextSlot := nc.FieldSlot("next").Slot
	n := 1 + r.Intn(24)
	nodes := make([]int64, n)
	for i := range nodes {
		h, err := v.Heap.NewObject(int32(nc.ID))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = h
		if err := v.Heap.SetFieldI(h, valSlot, int64(r.Intn(1<<20))); err != nil {
			t.Fatal(err)
		}
	}
	// Random next-pointers: null 1/4 of the time, else any node
	// (cycles and sharing arise naturally).
	for _, h := range nodes {
		if r.Intn(4) != 0 {
			if err := v.Heap.SetFieldI(h, nextSlot, nodes[r.Intn(n)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	arr, err := v.Heap.NewArray(bytecode.ElemRef, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := v.Heap.SetElemI(arr, int64(i), nodes[r.Intn(n)]); err != nil {
			t.Fatal(err)
		}
	}
	return arr, n
}

// TestSerializeRandomGraphs round-trips randomly shaped object graphs:
// nodes with ref fields wired arbitrarily (cycles, sharing, nulls) and
// int payloads, plus ref arrays pointing into the graph.
func TestSerializeRandomGraphs(t *testing.T) {
	p := buildTestProgram(t)
	nc := p.Class("Node")
	valSlot := nc.FieldSlot("val").Slot
	nextSlot := nc.FieldSlot("next").Slot

	for trial := 0; trial < 60; trial++ {
		seed := uint64(trial)*2654435761 + 17
		r := rng.New(seed)
		v := New(p, energy.MicroSPARCIIep())
		w := New(p, energy.MicroSPARCIIep())
		arr, n := randomGraph(t, v, r)

		b, err := v.Heap.SerializeGraph(arr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		root, used, err := w.Heap.DeserializeGraph(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if used != len(b) {
			t.Fatalf("trial %d: %d trailing bytes", trial, len(b)-used)
		}

		// Structural equivalence: walk both graphs in parallel with a
		// correspondence map; vals must match and aliasing must agree.
		corr := map[int64]int64{}
		var walk func(a, bh int64) error
		walk = func(a, bh int64) error {
			if (a == 0) != (bh == 0) {
				return fmt.Errorf("null mismatch")
			}
			if a == 0 {
				return nil
			}
			if prev, seen := corr[a]; seen {
				if prev != bh {
					return fmt.Errorf("aliasing broken")
				}
				return nil
			}
			corr[a] = bh
			av, err := v.Heap.FieldI(a, valSlot)
			if err != nil {
				return err
			}
			bv, err := w.Heap.FieldI(bh, valSlot)
			if err != nil {
				return err
			}
			if av != bv {
				return fmt.Errorf("val %d != %d", av, bv)
			}
			an, err := v.Heap.FieldI(a, nextSlot)
			if err != nil {
				return err
			}
			bn, err := w.Heap.FieldI(bh, nextSlot)
			if err != nil {
				return err
			}
			return walk(an, bn)
		}
		for i := 0; i < n; i++ {
			ae, _ := v.Heap.ElemI(arr, int64(i))
			be, _ := w.Heap.ElemI(root, int64(i))
			if err := walk(ae, be); err != nil {
				t.Fatalf("trial %d elem %d: %v", trial, i, err)
			}
		}
	}
}
