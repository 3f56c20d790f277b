package vm

import (
	"errors"
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
)

// buildTestProgram assembles a program exercising recursion, loops,
// floats, objects, arrays and virtual dispatch:
//
//	class Calc {
//	  static int fib(int n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }
//	  static int sumTo(int n) { int s=0; while (n>0) { s+=n; n--; } return s; }
//	  static float scale(float x) { return x * 2.5; }
//	  static int fill(int n) { int[] a = new int[n]; ... return a[n-1]; }
//	}
//	class Node { int val; Node next; }
//	class Shape { int area() { return 0; } }
//	class Square extends Shape { int side; int area() { return side*side; } }
//	class Disp { static int callArea(Shape s) { return s.area(); } }
func buildTestProgram(t testing.TB) *bytecode.Program {
	t.Helper()

	fib := &bytecode.Method{Name: "fib", Static: true, Params: []bytecode.Type{bytecode.TInt}, Ret: bytecode.TInt, MaxLocals: 1}
	sumTo := &bytecode.Method{Name: "sumTo", Static: true, Params: []bytecode.Type{bytecode.TInt}, Ret: bytecode.TInt, MaxLocals: 2}
	scale := &bytecode.Method{Name: "scale", Static: true, Params: []bytecode.Type{bytecode.TFloat}, Ret: bytecode.TFloat, MaxLocals: 1}
	fill := &bytecode.Method{Name: "fill", Static: true, Params: []bytecode.Type{bytecode.TInt}, Ret: bytecode.TInt, MaxLocals: 3}
	calc := &bytecode.Class{Name: "Calc", Methods: []*bytecode.Method{fib, sumTo, scale, fill}}

	node := &bytecode.Class{Name: "Node", Fields: []bytecode.Field{
		{Name: "val", Type: bytecode.TInt},
		{Name: "next", Type: bytecode.TObject("Node")},
	}}

	shapeArea := &bytecode.Method{Name: "area", Ret: bytecode.TInt, MaxLocals: 1}
	shape := &bytecode.Class{Name: "Shape", Methods: []*bytecode.Method{shapeArea}}
	sqArea := &bytecode.Method{Name: "area", Ret: bytecode.TInt, MaxLocals: 1}
	square := &bytecode.Class{Name: "Square", SuperName: "Shape",
		Fields:  []bytecode.Field{{Name: "side", Type: bytecode.TInt}},
		Methods: []*bytecode.Method{sqArea}}

	callArea := &bytecode.Method{Name: "callArea", Static: true,
		Params: []bytecode.Type{bytecode.TObject("Shape")}, Ret: bytecode.TInt, MaxLocals: 1}
	disp := &bytecode.Class{Name: "Disp", Methods: []*bytecode.Method{callArea}}

	p := &bytecode.Program{Classes: []*bytecode.Class{calc, node, shape, square, disp}}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}

	fib.Code = bytecode.NewAsm().
		OpA(bytecode.ILOAD, 0).
		Iconst(2).
		Branch(bytecode.IFICMPGE, "rec").
		OpA(bytecode.ILOAD, 0).
		Op(bytecode.IRETURN).
		Label("rec").
		OpA(bytecode.ILOAD, 0).
		Iconst(1).
		Op(bytecode.ISUB).
		OpA(bytecode.INVOKESTATIC, int32(fib.ID)).
		OpA(bytecode.ILOAD, 0).
		Iconst(2).
		Op(bytecode.ISUB).
		OpA(bytecode.INVOKESTATIC, int32(fib.ID)).
		Op(bytecode.IADD).
		Op(bytecode.IRETURN).
		MustFinish()

	sumTo.Code = bytecode.NewAsm().
		Iconst(0).
		OpA(bytecode.ISTORE, 1).
		Label("loop").
		OpA(bytecode.ILOAD, 0).
		Branch(bytecode.IFLE, "done").
		OpA(bytecode.ILOAD, 1).
		OpA(bytecode.ILOAD, 0).
		Op(bytecode.IADD).
		OpA(bytecode.ISTORE, 1).
		OpA(bytecode.ILOAD, 0).
		Iconst(1).
		Op(bytecode.ISUB).
		OpA(bytecode.ISTORE, 0).
		Branch(bytecode.GOTO, "loop").
		Label("done").
		OpA(bytecode.ILOAD, 1).
		Op(bytecode.IRETURN).
		MustFinish()

	scale.Code = bytecode.NewAsm().
		OpA(bytecode.FLOAD, 0).
		Fconst(2.5).
		Op(bytecode.FMUL).
		Op(bytecode.FRETURN).
		MustFinish()

	// fill(n): a = new int[n]; for i in 0..n: a[i] = i*i; return a[n-1]
	fill.Code = bytecode.NewAsm().
		OpA(bytecode.ILOAD, 0).
		OpA(bytecode.NEWARRAY, int32(bytecode.ElemInt)).
		OpA(bytecode.ASTORE, 1).
		Iconst(0).
		OpA(bytecode.ISTORE, 2).
		Label("loop").
		OpA(bytecode.ILOAD, 2).
		OpA(bytecode.ILOAD, 0).
		Branch(bytecode.IFICMPGE, "done").
		OpA(bytecode.ALOAD, 1).
		OpA(bytecode.ILOAD, 2).
		OpA(bytecode.ILOAD, 2).
		OpA(bytecode.ILOAD, 2).
		Op(bytecode.IMUL).
		Op(bytecode.IASTORE).
		OpA(bytecode.ILOAD, 2).
		Iconst(1).
		Op(bytecode.IADD).
		OpA(bytecode.ISTORE, 2).
		Branch(bytecode.GOTO, "loop").
		Label("done").
		OpA(bytecode.ALOAD, 1).
		OpA(bytecode.ILOAD, 0).
		Iconst(1).
		Op(bytecode.ISUB).
		Op(bytecode.IALOAD).
		Op(bytecode.IRETURN).
		MustFinish()

	shapeArea.Code = bytecode.NewAsm().
		Iconst(0).
		Op(bytecode.IRETURN).
		MustFinish()

	sideSlot := square.FieldSlot("side")
	sqArea.Code = bytecode.NewAsm().
		OpA(bytecode.ALOAD, 0).
		OpA(bytecode.GETFI, int32(sideSlot.Slot)).
		OpA(bytecode.ALOAD, 0).
		OpA(bytecode.GETFI, int32(sideSlot.Slot)).
		Op(bytecode.IMUL).
		Op(bytecode.IRETURN).
		MustFinish()

	callArea.Code = bytecode.NewAsm().
		OpA(bytecode.ALOAD, 0).
		OpA(bytecode.INVOKEVIRTUAL, int32(shapeArea.ID)).
		Op(bytecode.IRETURN).
		MustFinish()

	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestVM(t testing.TB) *VM {
	return New(buildTestProgram(t), energy.MicroSPARCIIep())
}

func TestInterpretLoop(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "sumTo")
	res, err := v.Invoke(m, []Slot{IntSlot(100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 5050 {
		t.Errorf("sumTo(100) = %d, want 5050", res.I)
	}
	if v.Acct.Total() <= 0 {
		t.Error("no energy charged")
	}
	if v.Steps() == 0 {
		t.Error("no steps counted")
	}
}

func TestInterpretRecursion(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "fib")
	res, err := v.Invoke(m, []Slot{IntSlot(15)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 610 {
		t.Errorf("fib(15) = %d, want 610", res.I)
	}
}

func TestInterpretFloat(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "scale")
	res, err := v.Invoke(m, []Slot{FloatSlot(4.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.F != 10.0 {
		t.Errorf("scale(4) = %g, want 10", res.F)
	}
}

func TestInterpretArrays(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "fill")
	res, err := v.Invoke(m, []Slot{IntSlot(10)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 81 {
		t.Errorf("fill(10) = %d, want 81", res.I)
	}
}

func TestVirtualDispatch(t *testing.T) {
	v := newTestVM(t)
	sq := v.Prog.Class("Square")
	h, err := v.Heap.NewObject(int32(sq.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Heap.SetFieldI(h, sq.FieldSlot("side").Slot, 7); err != nil {
		t.Fatal(err)
	}
	m := v.Prog.FindMethod("Disp", "callArea")
	res, err := v.Invoke(m, []Slot{RefSlot(h)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 49 {
		t.Errorf("callArea(Square{7}) = %d, want 49 via override", res.I)
	}

	// Base-class receiver dispatches to Shape.area.
	sh, _ := v.Heap.NewObject(int32(v.Prog.Class("Shape").ID))
	res, err = v.Invoke(m, []Slot{RefSlot(sh)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 0 {
		t.Errorf("callArea(Shape) = %d, want 0", res.I)
	}
}

func TestRuntimeErrors(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Disp", "callArea")
	if _, err := v.Invoke(m, []Slot{RefSlot(0)}); !errors.Is(err, ErrNullRef) {
		t.Errorf("null receiver: %v, want ErrNullRef", err)
	}
	fill := v.Prog.FindMethod("Calc", "fill")
	if _, err := v.Invoke(fill, []Slot{IntSlot(0)}); !errors.Is(err, ErrBounds) {
		t.Errorf("fill(0) indexes a[-1]: %v, want ErrBounds", err)
	}
	if _, err := v.Invoke(fill, []Slot{IntSlot(3), IntSlot(4)}); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestStepLimit(t *testing.T) {
	v := newTestVM(t)
	v.MaxSteps = 50
	m := v.Prog.FindMethod("Calc", "sumTo")
	if _, err := v.Invoke(m, []Slot{IntSlot(1000000)}); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestInterpreterChargesBreakdown(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "sumTo")
	if _, err := v.Invoke(m, []Slot{IntSlot(50)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []energy.InstrClass{energy.Load, energy.Store, energy.Branch, energy.ALUSimple} {
		if v.Acct.InstrCount(c) == 0 {
			t.Errorf("no %v instructions charged by interpreter", c)
		}
	}
	if v.Acct.Component(energy.CompMemory) == 0 {
		t.Error("no DRAM energy charged (cold caches should miss)")
	}
}

func TestHookInterceptsPotential(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "sumTo")
	m.Potential = true
	called := 0
	v.Hook = func(hm *bytecode.Method, args []Slot) (Slot, bool, error) {
		called++
		if hm != m {
			t.Errorf("hook got %s", hm.QName())
		}
		return Slot{I: 999}, true, nil
	}
	res, err := v.Invoke(m, []Slot{IntSlot(5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 999 || called != 1 {
		t.Errorf("hook result %d (called %d)", res.I, called)
	}

	// A hook that declines leaves execution local.
	v.Hook = func(hm *bytecode.Method, args []Slot) (Slot, bool, error) {
		return Slot{}, false, nil
	}
	res, err = v.Invoke(m, []Slot{IntSlot(5)})
	if err != nil || res.I != 15 {
		t.Errorf("declined hook: %d, %v; want 15", res.I, err)
	}
}

func TestDispatcherRunsNativeBody(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "sumTo")
	// Hand-written native body: closed form n*(n+1)/2.
	body := v.InstallCode(&isa.Code{
		Name: "sumTo#native",
		Instrs: []isa.Instr{
			{Op: isa.ADDI, Rd: 2, Ra: 1, Imm: 1},
			{Op: isa.MUL, Rd: 2, Ra: 2, Rb: 1},
			{Op: isa.LDI, Rd: 3, Imm: 2},
			{Op: isa.DIV, Rd: 1, Ra: 2, Rb: 3},
			{Op: isa.RET},
		},
		OptLevel: 1,
	})
	v.Dispatch = DispatchFunc(func(dm *bytecode.Method) *isa.Code {
		if dm == m {
			return body
		}
		return nil
	})
	res, err := v.Invoke(m, []Slot{IntSlot(100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 5050 {
		t.Errorf("native sumTo(100) = %d, want 5050", res.I)
	}
}

func TestNativeCallsBackIntoInterpreter(t *testing.T) {
	v := newTestVM(t)
	fib := v.Prog.FindMethod("Calc", "fib")
	// Native body that computes fib(n-1) + fib(n-2) by calling the VM;
	// the callee runs interpreted.
	body := v.InstallCode(&isa.Code{
		Name: "fibwrap",
		Instrs: []isa.Instr{
			{Op: isa.MOV, Rd: 9, Ra: 1},           // save n
			{Op: isa.ADDI, Rd: 1, Ra: 9, Imm: -1}, // n-1
			{Op: isa.CALLVM, Imm: int64(fib.ID)},  // fib(n-1)
			{Op: isa.MOV, Rd: 10, Ra: 1},          // save
			{Op: isa.ADDI, Rd: 1, Ra: 9, Imm: -2}, // n-2
			{Op: isa.CALLVM, Imm: int64(fib.ID)},  // fib(n-2)
			{Op: isa.ADD, Rd: 1, Ra: 10, Rb: 1},   // sum
			{Op: isa.RET},
		},
	})
	wrap := &bytecode.Method{Name: "wrap", Static: true,
		Params: []bytecode.Type{bytecode.TInt}, Ret: bytecode.TInt, MaxLocals: 1,
		Code: bytecode.NewAsm().Iconst(0).Op(bytecode.IRETURN).MustFinish()}
	// Register wrap so dispatch can find it (appended class).
	v.Prog.Classes = append(v.Prog.Classes, &bytecode.Class{Name: "W", Methods: []*bytecode.Method{wrap}})
	if err := v.Prog.Link(); err != nil {
		t.Fatal(err)
	}
	v.Dispatch = DispatchFunc(func(dm *bytecode.Method) *isa.Code {
		if dm == wrap {
			return body
		}
		return nil
	})
	res, err := v.Invoke(wrap, []Slot{IntSlot(10)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 55 { // fib(9) + fib(8) = 34 + 21
		t.Errorf("mixed-mode fib(10) = %d, want 55", res.I)
	}
}

func TestResetRun(t *testing.T) {
	v := newTestVM(t)
	m := v.Prog.FindMethod("Calc", "fill")
	if _, err := v.Invoke(m, []Slot{IntSlot(8)}); err != nil {
		t.Fatal(err)
	}
	if v.Heap.Count() == 0 {
		t.Fatal("expected live objects")
	}
	v.ResetRun(nil)
	if v.Heap.Count() != 0 || v.Steps() != 0 {
		t.Error("ResetRun did not clear state")
	}
	if _, err := v.Invoke(m, []Slot{IntSlot(8)}); err != nil {
		t.Fatalf("run after reset: %v", err)
	}
}

func TestInvokeByName(t *testing.T) {
	v := newTestVM(t)
	res, err := v.InvokeByName("Calc", "sumTo", []Slot{IntSlot(4)})
	if err != nil || res.I != 10 {
		t.Errorf("InvokeByName = %d, %v; want 10", res.I, err)
	}
	if _, err := v.InvokeByName("Nope", "x", nil); err == nil {
		t.Error("unknown method should error")
	}
}

func TestDeterministicEnergy(t *testing.T) {
	run := func() energy.Joules {
		v := newTestVM(t)
		m := v.Prog.FindMethod("Calc", "fill")
		if _, err := v.Invoke(m, []Slot{IntSlot(64)}); err != nil {
			t.Fatal(err)
		}
		return v.Acct.Total()
	}
	if run() != run() {
		t.Error("identical runs must charge identical energy")
	}
}
