// Package vm implements the MJVM virtual machine: heap and object
// model, a bytecode interpreter with a per-bytecode energy expansion
// model, the bridge that lets JIT-compiled native code reach the heap,
// object-graph serialization (the transport for offloaded method
// arguments and results), and reflective method invocation.
package vm

import (
	"errors"
	"fmt"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/mem"
)

// Runtime errors shared by the interpreter and native execution.
var (
	ErrNullRef      = isa.ErrNullRef
	ErrBounds       = isa.ErrBounds
	ErrDivideByZero = isa.ErrDivideByZero
	ErrBadHandle    = errors.New("vm: invalid object handle")
	ErrNotArray     = errors.New("vm: object is not an array")
	ErrNotObject    = errors.New("vm: reference is not a class instance")
	ErrStepLimit    = errors.New("vm: step limit exceeded")
)

// Slot is one stack/local/argument value: an int, a float, or an
// object handle (in I). Verified bytecode guarantees which member is
// meaningful at every use.
type Slot struct {
	I int64
	F float64
}

// IntSlot, FloatSlot and RefSlot build argument values.
func IntSlot(v int32) Slot     { return Slot{I: int64(v)} }
func FloatSlot(v float64) Slot { return Slot{F: v} }
func RefSlot(h int64) Slot     { return Slot{I: h} }

// Object is a heap object: a class instance (ClassID >= 0) or an
// array (ClassID < 0). Int and reference data live in I; float data in
// F. Addr is the synthetic base address used for cache modelling.
type Object struct {
	ClassID int32
	Kind    bytecode.ElemKind // element kind, arrays only
	IsArr   bool
	Len     int // array length
	I       []int64
	F       []float64
	Addr    uint64

	// save is set while a HeapImage holds the object.
	save *objectSave
}

// objectSave is what a HeapImage keeps of one object it holds: the
// object's contents at the snapshot, copied only when a run first
// writes to it. An input a run only reads is never copied.
type objectSave struct {
	img   *HeapImage
	kept  bool // i and f hold the snapshot contents
	dirty bool // written since the last Snapshot or Restore
	i     []int64
	f     []float64
}

// written prepares o for a write: the first write after a Snapshot or
// Restore of an image holding o keeps the contents the image restores.
func (o *Object) written() {
	if s := o.save; s != nil && !s.dirty {
		s.keep(o)
	}
}

func (s *objectSave) keep(o *Object) {
	if !s.kept {
		s.i = append([]int64(nil), o.I...)
		s.f = append([]float64(nil), o.F...)
		s.kept = true
	}
	s.dirty = true
}

// Class returns the class of an instance within prog.
func (o *Object) Class(prog *bytecode.Program) *bytecode.Class {
	if o.IsArr || o.ClassID < 0 || int(o.ClassID) >= len(prog.Classes) {
		return nil
	}
	return prog.Classes[o.ClassID]
}

const objHeaderBytes = 8

// Heap is a bump-allocated object heap. The simulated device never
// garbage-collects during the short method executions we model; Reset
// reclaims everything between runs, and Restore puts back a Snapshot.
type Heap struct {
	prog    *bytecode.Program
	hier    *mem.Hierarchy
	alloc   *mem.Allocator
	objects []*Object

	// dt tracks the last heap line touched, so sequential array walks
	// and repeated field accesses prove their hits cheaply.
	dt mem.LineTracker
}

// NewHeap returns an empty heap for the linked program.
func NewHeap(prog *bytecode.Program, hier *mem.Hierarchy) *Heap {
	return &Heap{
		prog:  prog,
		hier:  hier,
		alloc: mem.NewAllocator(mem.HeapBase, mem.StackBase-mem.HeapBase-1<<16),
	}
}

// Reset discards every object.
func (h *Heap) Reset() {
	h.objects = h.objects[:0]
	h.alloc.Reset()
}

// HeapImage is the state of a heap at a Snapshot: every object under
// its handle, with its address and contents, and the allocator
// position after them. Restore puts it back. The image holds the
// heap's objects themselves and keeps a copy of an object's contents
// from the first write a run makes to it (through the heap's setters,
// the only write path runs have), so the writes a run makes never
// reach the next Restore, and an input that runs only read is never
// copied. An object belongs to the last image taken of it: an image
// may be restored, into one heap at a time, until a later Snapshot
// takes its objects over.
type HeapImage struct {
	live  []*Object
	alloc mem.Allocator
}

// Snapshot returns an image of the heap's current contents. It charges
// nothing.
func (h *Heap) Snapshot() *HeapImage {
	img := &HeapImage{live: append([]*Object(nil), h.objects...), alloc: *h.alloc}
	for _, o := range h.objects {
		o.save = &objectSave{img: img}
	}
	return img
}

// Restore makes the heap hold exactly the image's objects, under the
// image's handles and addresses, with the contents they had at the
// snapshot, and moves the allocator back to where the image left it:
// the next allocation lands where it would have landed right after the
// snapshot. It charges nothing.
func (h *Heap) Restore(img *HeapImage) {
	for _, o := range img.live {
		s := o.save
		if s == nil || s.img != img {
			panic("vm: Restore of a heap image whose objects a later Snapshot took over")
		}
		if s.dirty {
			copy(o.I, s.i)
			copy(o.F, s.f)
			s.dirty = false
		}
	}
	if n := len(img.live); n < len(h.objects) {
		// Drop the previous run's own objects so they can be collected.
		clear(h.objects[n:])
	}
	h.objects = append(h.objects[:0], img.live...)
	*h.alloc = img.alloc
	h.dt = mem.LineTracker{}
}

// Count returns the number of live objects.
func (h *Heap) Count() int { return len(h.objects) }

// Get resolves a handle. Handle 0 is the null reference.
func (h *Heap) Get(handle int64) (*Object, error) {
	if handle == 0 {
		return nil, ErrNullRef
	}
	idx := handle - 1
	if idx < 0 || idx >= int64(len(h.objects)) {
		return nil, fmt.Errorf("%w: %d", ErrBadHandle, handle)
	}
	return h.objects[idx], nil
}

func (h *Heap) add(o *Object, bytes uint64) int64 {
	// Cache coloring: successive allocations are staggered so that
	// equal-sized arrays do not land a whole number of cache sizes
	// apart (power-of-two image rows would otherwise alias in the
	// direct-mapped data cache and make cost jump wildly at particular
	// widths). Embedded allocators color allocations for exactly this
	// reason.
	color := uint64(len(h.objects)%7) * 544
	o.Addr = h.alloc.Alloc(bytes+color, 8) + color
	h.objects = append(h.objects, o)
	// Zero-initialization traffic: the runtime writes every word of the
	// new object, exactly as a JVM must. Charged identically whether
	// allocation happens from interpreted or native code.
	words := int(bytes / 4)
	h.hier.Data(o.Addr, words)
	h.hier.Account().AddInstr(energy.Store, uint64(words))
	return int64(len(h.objects))
}

// NewObject allocates an instance of the class with the given id and
// returns its handle. Fields are zero/null.
func (h *Heap) NewObject(classID int32) (int64, error) {
	if classID < 0 || int(classID) >= len(h.prog.Classes) {
		return 0, fmt.Errorf("vm: NewObject: bad class id %d", classID)
	}
	c := h.prog.Classes[classID]
	o := &Object{
		ClassID: classID,
		I:       make([]int64, c.NumISlots()),
		F:       make([]float64, c.NumFSlots()),
	}
	bytes := uint64(objHeaderBytes + 4*c.NumISlots() + 8*c.NumFSlots())
	return h.add(o, bytes), nil
}

// NewArray allocates an array of n elements of the given kind.
func (h *Heap) NewArray(kind bytecode.ElemKind, n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative array length %d", ErrBounds, n)
	}
	o := &Object{ClassID: -1, IsArr: true, Kind: kind, Len: int(n)}
	var bytes uint64
	if kind == bytecode.ElemFloat {
		o.F = make([]float64, n)
		bytes = uint64(objHeaderBytes) + 8*uint64(n)
	} else {
		o.I = make([]int64, n)
		bytes = uint64(objHeaderBytes) + 4*uint64(n)
	}
	return h.add(o, bytes), nil
}

// Address helpers for cache charging. Int slots are 4-byte words;
// float slots are 8-byte words placed after the int area.

func (o *Object) intSlotAddr(slot int) uint64 {
	return o.Addr + objHeaderBytes + 4*uint64(slot)
}

func (o *Object) floatSlotAddr(slot int) uint64 {
	return o.Addr + objHeaderBytes + 4*uint64(len(o.I)) + 8*uint64(slot)
}

// FieldI reads int/ref field slot of the instance behind handle,
// charging one data access.
func (h *Heap) FieldI(handle int64, slot int) (int64, error) {
	o, err := h.Get(handle)
	if err != nil {
		return 0, err
	}
	if o.IsArr || slot < 0 || slot >= len(o.I) {
		return 0, fmt.Errorf("%w: int field slot %d", ErrBounds, slot)
	}
	h.hier.Data1T(o.intSlotAddr(slot), &h.dt)
	return o.I[slot], nil
}

// SetFieldI writes int/ref field slot.
func (h *Heap) SetFieldI(handle int64, slot int, v int64) error {
	o, err := h.Get(handle)
	if err != nil {
		return err
	}
	if o.IsArr || slot < 0 || slot >= len(o.I) {
		return fmt.Errorf("%w: int field slot %d", ErrBounds, slot)
	}
	h.hier.Data1T(o.intSlotAddr(slot), &h.dt)
	o.written()
	o.I[slot] = v
	return nil
}

// FieldF reads float field slot.
func (h *Heap) FieldF(handle int64, slot int) (float64, error) {
	o, err := h.Get(handle)
	if err != nil {
		return 0, err
	}
	if o.IsArr || slot < 0 || slot >= len(o.F) {
		return 0, fmt.Errorf("%w: float field slot %d", ErrBounds, slot)
	}
	h.hier.Data(o.floatSlotAddr(slot), 2)
	return o.F[slot], nil
}

// SetFieldF writes float field slot.
func (h *Heap) SetFieldF(handle int64, slot int, v float64) error {
	o, err := h.Get(handle)
	if err != nil {
		return err
	}
	if o.IsArr || slot < 0 || slot >= len(o.F) {
		return fmt.Errorf("%w: float field slot %d", ErrBounds, slot)
	}
	h.hier.Data(o.floatSlotAddr(slot), 2)
	o.written()
	o.F[slot] = v
	return nil
}

// ElemI reads element i of an int or reference array.
func (h *Heap) ElemI(handle, i int64) (int64, error) {
	o, err := h.Get(handle)
	if err != nil {
		return 0, err
	}
	if !o.IsArr {
		return 0, ErrNotArray
	}
	if o.Kind == bytecode.ElemFloat {
		return 0, fmt.Errorf("%w: int access to float array", ErrNotArray)
	}
	if i < 0 || i >= int64(o.Len) {
		return 0, ErrBounds
	}
	h.hier.Data1T(o.intSlotAddr(int(i)), &h.dt)
	return o.I[i], nil
}

// SetElemI writes element i of an int or reference array.
func (h *Heap) SetElemI(handle, i, v int64) error {
	o, err := h.Get(handle)
	if err != nil {
		return err
	}
	if !o.IsArr {
		return ErrNotArray
	}
	if o.Kind == bytecode.ElemFloat {
		return fmt.Errorf("%w: int access to float array", ErrNotArray)
	}
	if i < 0 || i >= int64(o.Len) {
		return ErrBounds
	}
	h.hier.Data1T(o.intSlotAddr(int(i)), &h.dt)
	o.written()
	o.I[i] = v
	return nil
}

// ElemF reads element i of a float array.
func (h *Heap) ElemF(handle, i int64) (float64, error) {
	o, err := h.Get(handle)
	if err != nil {
		return 0, err
	}
	if !o.IsArr || o.Kind != bytecode.ElemFloat {
		return 0, fmt.Errorf("%w: float access to non-float array", ErrNotArray)
	}
	if i < 0 || i >= int64(o.Len) {
		return 0, ErrBounds
	}
	h.hier.Data(o.Addr+objHeaderBytes+8*uint64(i), 2)
	return o.F[i], nil
}

// SetElemF writes element i of a float array.
func (h *Heap) SetElemF(handle, i int64, v float64) error {
	o, err := h.Get(handle)
	if err != nil {
		return err
	}
	if !o.IsArr || o.Kind != bytecode.ElemFloat {
		return fmt.Errorf("%w: float access to non-float array", ErrNotArray)
	}
	if i < 0 || i >= int64(o.Len) {
		return ErrBounds
	}
	h.hier.Data(o.Addr+objHeaderBytes+8*uint64(i), 2)
	o.written()
	o.F[i] = v
	return nil
}

// ArrayLen returns the length of the array behind handle, charging one
// header access.
func (h *Heap) ArrayLen(handle int64) (int64, error) {
	o, err := h.Get(handle)
	if err != nil {
		return 0, err
	}
	if !o.IsArr {
		return 0, ErrNotArray
	}
	h.hier.Data(o.Addr, 1)
	return int64(o.Len), nil
}
