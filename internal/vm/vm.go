package vm

import (
	"fmt"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/mem"
)

// Dispatcher decides, at each invocation, which body of a method to
// run: nil means interpret the bytecode; otherwise the returned native
// body is executed. The offloading framework installs adaptive
// dispatchers; the default interprets everything.
type Dispatcher interface {
	Choose(m *bytecode.Method) *isa.Code
}

// DispatchFunc adapts a function to the Dispatcher interface.
type DispatchFunc func(m *bytecode.Method) *isa.Code

// Choose implements Dispatcher.
func (f DispatchFunc) Choose(m *bytecode.Method) *isa.Code { return f(m) }

// InvokeHook intercepts invocations of potential methods (the paper's
// implicit helper-method mechanism). If it fully handles the call —
// e.g. by executing it remotely — it returns handled=true and the
// result. Otherwise execution proceeds locally and the hook may have
// arranged compilation/dispatch state as a side effect.
type InvokeHook func(m *bytecode.Method, args []Slot) (Slot, bool, error)

// VM is one MJVM instance (a mobile client or a server). It owns a
// heap, an energy account, a memory hierarchy and a native machine,
// and executes methods in mixed interpreted/native mode.
type VM struct {
	Prog  *bytecode.Program
	Model *energy.CPUModel
	Acct  *energy.Account
	Hier  *mem.Hierarchy
	Heap  *Heap
	Mach  *isa.Machine

	// Hook intercepts potential-method invocations; may be nil.
	Hook InvokeHook
	// Dispatch picks the body for each local execution; nil interprets.
	Dispatch Dispatcher
	// MaxSteps bounds interpreted bytecodes + native instructions; 0
	// means unbounded.
	MaxSteps uint64

	steps     uint64
	sp        uint64
	bcAlloc   *mem.Allocator
	codeAlloc *mem.Allocator
	bcInfo    map[*bytecode.Method]*bcLayout
	depth     int

	// placed is the placement log: every native body and bytecode
	// stream placed so far, in order (see Placement).
	placed []Placement

	// slotArena backs interpreter frames (locals + operand stack).
	// Frames are carved off at slotTop with stack discipline, so one
	// growable buffer serves the whole call tree without per-invocation
	// allocation. Slots hold no pointers, so retaining the arena
	// between runs keeps nothing alive. argArena does the same for
	// call-argument vectors, and the reg pools back the bounded
	// register saves native calls perform.
	slotArena []Slot
	slotTop   int
	argArena  []Slot
	argTop    int
	regIPool  []int64
	regFPool  []float64
	regITop   int
	regFTop   int
}

// argSlots carves an n-slot argument vector off the arena. The caller
// releases it by restoring argTop after the invocation returns.
func (v *VM) argSlots(n int) []Slot {
	if top := v.argTop + n; top > len(v.argArena) {
		v.argArena = append(v.argArena, make([]Slot, top-len(v.argArena))...)
	}
	s := v.argArena[v.argTop : v.argTop+n : v.argTop+n]
	v.argTop += n
	return s
}

// bcLayout caches the simulated placement of a method's bytecode
// stream for interpreter fetch addressing.
type bcLayout struct {
	base    uint64
	offsets []uint32
}

// New returns a VM for the linked, verified program on the given CPU
// model.
func New(prog *bytecode.Program, model *energy.CPUModel) *VM {
	acct := energy.NewAccount(model)
	hier := mem.DefaultClientHierarchy(model, acct)
	v := &VM{
		Prog:      prog,
		Model:     model,
		Acct:      acct,
		Hier:      hier,
		Heap:      NewHeap(prog, hier),
		sp:        mem.StackBase,
		bcAlloc:   mem.NewAllocator(mem.BytecodeBase, mem.HeapBase-mem.BytecodeBase),
		codeAlloc: mem.NewAllocator(mem.CodeBase, mem.BytecodeBase-mem.CodeBase),
		bcInfo:    make(map[*bytecode.Method]*bcLayout),
	}
	v.Mach = isa.NewMachine(&bridge{vm: v}, hier, acct)
	return v
}

// Steps returns the executed bytecode + native instruction count.
func (v *VM) Steps() uint64 { return v.steps + v.Mach.Steps }

// ResetRun puts the VM in the state a run starts from: the heap holds
// exactly img's objects (none when img is nil), the step counters and
// frame stack are cleared, and both caches are flushed. Compiled code
// and bytecode placement are kept. Accounts are the caller's to reset.
func (v *VM) ResetRun(img *HeapImage) {
	if img == nil {
		v.Heap.Reset()
	} else {
		v.Heap.Restore(img)
	}
	v.steps = 0
	v.Mach.Steps = 0
	v.sp = mem.StackBase
	v.Mach.SP = mem.StackBase
	v.depth = 0
	v.slotTop = 0
	v.argTop = 0
	v.regITop, v.regFTop = 0, 0
	v.Hier.Flush()
}

// Placement is one entry of a VM's placement log: Size bytes placed
// at Base, either a native body or a method's bytecode stream. A body
// is named by its first instruction, which every copy of one compiled
// body shares (jit.CompileCached hands out headers over one slice).
// Nothing a VM placed ever moves, and the next address depends only on
// what was placed before, so two VMs of one program with equal logs
// fetch every placed instruction and bytecode from the same address
// and place what comes next at the same address.
type Placement struct {
	Code   *isa.Instr       // the native body placed, or nil
	Method *bytecode.Method // the method whose bytecode was placed, or nil
	Base   uint64
	Size   uint64
}

// Placements returns the placement log. Entries never change once
// logged, so a caller may keep the slice while the VM runs on; it
// must not modify it.
func (v *VM) Placements() []Placement { return v.placed[:len(v.placed):len(v.placed)] }

// InstallCode assigns a code address to a compiled body so that its
// instruction fetches are modelled, and returns it.
func (v *VM) InstallCode(c *isa.Code) *isa.Code {
	p := Placement{Size: uint64(c.SizeBytes())}
	if len(c.Instrs) > 0 {
		p.Code = &c.Instrs[0]
	}
	c.Base = v.codeAlloc.Alloc(p.Size, uint64(isa.BytesPerInstr))
	p.Base = c.Base
	v.placed = append(v.placed, p)
	return c
}

// PlaceBytecode places m's bytecode stream as its first interpretation
// would, unless it is placed already.
func (v *VM) PlaceBytecode(m *bytecode.Method) { v.layoutOf(m) }

func (v *VM) layoutOf(m *bytecode.Method) *bcLayout {
	if l, ok := v.bcInfo[m]; ok {
		return l
	}
	offs := make([]uint32, len(m.Code))
	off := uint32(0)
	for i, in := range m.Code {
		offs[i] = off
		off += uint32(in.Op.EncodedBytes())
	}
	l := &bcLayout{base: v.bcAlloc.Alloc(uint64(off), 4), offsets: offs}
	v.bcInfo[m] = l
	v.placed = append(v.placed, Placement{Method: m, Base: l.base, Size: uint64(off)})
	return l
}

// Invoke runs the method with the given arguments (receiver first for
// instance methods) and returns its result slot.
func (v *VM) Invoke(m *bytecode.Method, args []Slot) (Slot, error) {
	return v.invoke(m, args)
}

// InvokeByName reflectively resolves Class.method and invokes it; this
// is the server-side entry point for offloaded execution.
func (v *VM) InvokeByName(class, method string, args []Slot) (Slot, error) {
	m := v.Prog.FindMethod(class, method)
	if m == nil {
		return Slot{}, fmt.Errorf("vm: no such method %s.%s", class, method)
	}
	return v.invoke(m, args)
}

const maxDepth = 512

func (v *VM) invoke(m *bytecode.Method, args []Slot) (Slot, error) {
	if len(args) != m.NumArgs() {
		return Slot{}, fmt.Errorf("vm: %s called with %d args, want %d", m.QName(), len(args), m.NumArgs())
	}
	if v.depth >= maxDepth {
		return Slot{}, fmt.Errorf("vm: call depth limit in %s", m.QName())
	}
	if m.Potential && v.Hook != nil {
		// Hooks may retain the argument vector (e.g. marshalling it for
		// remote execution), and args may live in a pooled arena — hand
		// the hook a private copy.
		hargs := append([]Slot(nil), args...)
		res, handled, err := v.Hook(m, hargs)
		if handled || err != nil {
			return res, err
		}
	}
	var body *isa.Code
	if v.Dispatch != nil {
		body = v.Dispatch.Choose(m)
	}
	v.depth++
	defer func() { v.depth-- }()
	if body != nil {
		return v.runNative(m, body, args)
	}
	return v.interpret(m, args)
}

// runNative executes a compiled body on the machine, marshalling
// arguments into the ABI registers.
//
// Only the registers the call can disturb are saved and restored: the
// body's recorded register bound, the ABI argument registers
// marshalled below, and the R1/F1 result registers any nested call
// writes. Registers beyond that bound are untouched by construction.
func (v *VM) runNative(m *bytecode.Method, body *isa.Code, args []Slot) (Slot, error) {
	mach := v.Mach
	nInt, nFlt := isa.NumIntRegs, isa.NumFloatRegs
	if body.UsedRegs != 0 {
		bound := int(body.UsedRegs)
		if na := isa.ABIArgBase + len(args); na > bound {
			bound = na
		}
		if bound <= isa.ABIArgBase {
			bound = isa.ABIArgBase + 1
		}
		if bound < nInt {
			nInt = bound
		}
		if bound < nFlt {
			nFlt = bound
		}
	}
	iMark, fMark := v.regITop, v.regFTop
	if top := iMark + nInt; top > len(v.regIPool) {
		v.regIPool = append(v.regIPool, make([]int64, top-len(v.regIPool))...)
	}
	if top := fMark + nFlt; top > len(v.regFPool) {
		v.regFPool = append(v.regFPool, make([]float64, top-len(v.regFPool))...)
	}
	savedR := v.regIPool[iMark : iMark+nInt : iMark+nInt]
	savedF := v.regFPool[fMark : fMark+nFlt : fMark+nFlt]
	copy(savedR, mach.R[:nInt])
	copy(savedF, mach.F[:nFlt])
	v.regITop, v.regFTop = iMark+nInt, fMark+nFlt

	ir, fr := isa.ABIArgBase, isa.ABIArgBase
	for i, k := range m.ArgKinds() {
		if k == bytecode.KFloat {
			mach.F[fr] = args[i].F
			fr++
		} else {
			mach.R[ir] = args[i].I
			ir++
		}
	}
	mach.MaxSteps = 0
	if v.MaxSteps != 0 {
		mach.MaxSteps = v.MaxSteps
	}
	err := mach.Run(body)
	var ret Slot
	if err == nil {
		if m.Ret.Kind == bytecode.KFloat {
			ret = Slot{F: mach.F[isa.ABIArgBase]}
		} else {
			ret = Slot{I: mach.R[isa.ABIArgBase]}
		}
	}
	// Restore, preserving the ABI result registers as RestoreRegs does.
	r1, f1 := mach.R[1], mach.F[1]
	copy(mach.R[:nInt], savedR)
	copy(mach.F[:nFlt], savedF)
	mach.R[1], mach.F[1] = r1, f1
	v.regITop, v.regFTop = iMark, fMark
	if err != nil {
		return Slot{}, fmt.Errorf("%s (native L%d): %w", m.QName(), body.OptLevel, err)
	}
	return ret, nil
}

// bridge implements isa.Bridge on top of the VM heap and dispatcher.
type bridge struct {
	vm *VM
}

func (b *bridge) FieldI(h int64, idx int) (int64, error)      { return b.vm.Heap.FieldI(h, idx) }
func (b *bridge) SetFieldI(h int64, idx int, x int64) error   { return b.vm.Heap.SetFieldI(h, idx, x) }
func (b *bridge) FieldF(h int64, idx int) (float64, error)    { return b.vm.Heap.FieldF(h, idx) }
func (b *bridge) SetFieldF(h int64, idx int, x float64) error { return b.vm.Heap.SetFieldF(h, idx, x) }
func (b *bridge) ElemI(h, i int64) (int64, error)             { return b.vm.Heap.ElemI(h, i) }
func (b *bridge) SetElemI(h, i, x int64) error                { return b.vm.Heap.SetElemI(h, i, x) }
func (b *bridge) ElemF(h, i int64) (float64, error)           { return b.vm.Heap.ElemF(h, i) }
func (b *bridge) SetElemF(h, i int64, x float64) error        { return b.vm.Heap.SetElemF(h, i, x) }
func (b *bridge) ArrayLen(h int64) (int64, error)             { return b.vm.Heap.ArrayLen(h) }

func (b *bridge) NewArray(kind, n int64) (int64, error) {
	return b.vm.Heap.NewArray(bytecode.ElemKind(kind), n)
}

func (b *bridge) NewObject(classIdx int64) (int64, error) {
	return b.vm.Heap.NewObject(int32(classIdx))
}

// Call handles CALLVM: it resolves the callee (virtual dispatch when
// the statically named target is an instance method), unmarshals the
// ABI registers into argument slots, and re-enters the VM, which may
// interpret or run native code.
func (b *bridge) Call(idx int64, mach *isa.Machine) error {
	v := b.vm
	target := v.Prog.Method(int(idx))
	if target == nil {
		return fmt.Errorf("vm: CALLVM to bad method id %d", idx)
	}
	kinds := target.ArgKinds()
	argMark := v.argTop
	args := v.argSlots(len(kinds))
	ir, fr := isa.ABIArgBase, isa.ABIArgBase
	for i, k := range kinds {
		if k == bytecode.KFloat {
			args[i] = Slot{F: mach.F[fr]}
			fr++
		} else {
			args[i] = Slot{I: mach.R[ir]}
			ir++
		}
	}
	m := target
	if !target.Static {
		// Virtual dispatch on the receiver's runtime class.
		recv, err := v.Heap.Get(args[0].I)
		if err != nil {
			return err
		}
		if c := recv.Class(v.Prog); c != nil {
			if actual := c.Resolve(target.Name); actual != nil {
				m = actual
			}
		}
		v.Acct.AddInstr(energy.Load, 2) // vtable lookup
	}
	res, err := v.invoke(m, args)
	v.argTop = argMark
	if err != nil {
		return err
	}
	if m.Ret.Kind == bytecode.KFloat {
		mach.F[isa.ABIArgBase] = res.F
	} else {
		mach.R[isa.ABIArgBase] = res.I
	}
	return nil
}
