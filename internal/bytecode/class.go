package bytecode

import (
	"errors"
	"fmt"
)

// ErrLink reports a linking failure (unknown class, cyclic hierarchy,
// duplicate definitions, bad references).
var ErrLink = errors.New("bytecode: link error")

// Field is a declared instance field.
type Field struct {
	Name string
	Type Type
}

// FieldSlot is a linked field: its declared type plus its slot within
// the object's storage. Int and reference fields live in the object's
// integer array (references hold handles); float fields live in the
// float array.
type FieldSlot struct {
	Name string
	Type Type
	Slot int
}

// Method is a method definition. Code operands referring to classes,
// fields and methods are resolved indices (see opcodes.go); the
// program-wide method ID is assigned by Link.
type Method struct {
	Class  *Class
	Name   string
	Static bool
	Params []Type // excluding the receiver for instance methods
	Ret    Type

	// MaxLocals is the number of local slots, including the receiver
	// (slot 0 of instance methods) and parameters.
	MaxLocals int
	// MaxStack is the operand stack bound; computed by Verify.
	MaxStack int
	Code     []Insn

	// Potential marks the method as a candidate for remote execution
	// (the paper's "potential method" class-file annotation).
	Potential bool
	// Attrs carries numeric attributes embedded in the class file: the
	// profiled compilation energies and curve-fit coefficients that the
	// paper stores as static final variables for the helper methods.
	Attrs map[string]float64

	// ID is the program-wide method id after Link.
	ID int
	// Overridden reports whether any linked subclass redefines this
	// method; the JIT uses it for devirtualization.
	Overridden bool

	// argKinds caches ArgKinds(); populated eagerly by Link so that
	// concurrent executions never write it.
	argKinds []Kind
}

// NumArgs returns the number of argument slots including the receiver.
func (m *Method) NumArgs() int {
	n := len(m.Params)
	if !m.Static {
		n++
	}
	return n
}

// ArgKinds returns the kinds of all argument slots, receiver first.
// After Link the result is a shared cached slice; callers must not
// modify it.
func (m *Method) ArgKinds() []Kind {
	if m.argKinds != nil {
		return m.argKinds
	}
	ks := make([]Kind, 0, m.NumArgs())
	if !m.Static {
		ks = append(ks, KRef)
	}
	for _, p := range m.Params {
		ks = append(ks, p.Kind)
	}
	return ks
}

// QName returns the qualified Class.method name.
func (m *Method) QName() string {
	if m.Class == nil {
		return m.Name
	}
	return m.Class.Name + "." + m.Name
}

// CodeSize returns the encoded bytecode size in bytes.
func (m *Method) CodeSize() int { return CodeBytes(m.Code) }

// Attr returns the named numeric attribute, or def when absent.
func (m *Method) Attr(name string, def float64) float64 {
	if m.Attrs == nil {
		return def
	}
	if v, ok := m.Attrs[name]; ok {
		return v
	}
	return def
}

// SetAttr stores a numeric attribute on the method.
func (m *Method) SetAttr(name string, v float64) {
	if m.Attrs == nil {
		m.Attrs = make(map[string]float64)
	}
	m.Attrs[name] = v
}

// Class is a class definition. Only single inheritance is supported,
// as in Java.
type Class struct {
	Name      string
	SuperName string // empty for root classes
	Fields    []Field
	Methods   []*Method

	// Linked state.
	Super      *Class
	ID         int
	layout     []FieldSlot
	numISlots  int
	numFSlots  int
	refSlots   []int
	vtable     map[string]*Method
	fieldBySig map[string]*FieldSlot
}

// NumISlots returns the number of integer+reference storage slots of
// an instance (after linking).
func (c *Class) NumISlots() int { return c.numISlots }

// NumFSlots returns the number of float storage slots of an instance.
func (c *Class) NumFSlots() int { return c.numFSlots }

// RefSlots returns the I-array slots that hold references; the
// serializer and any future GC use it to trace objects.
func (c *Class) RefSlots() []int { return c.refSlots }

// FieldSlot returns the linked slot of the named field, searching the
// superclass chain, or nil when undefined.
func (c *Class) FieldSlot(name string) *FieldSlot {
	return c.fieldBySig[name]
}

// Resolve returns the method a virtual call to name dispatches to for
// receivers of this class, or nil when undefined.
func (c *Class) Resolve(name string) *Method {
	return c.vtable[name]
}

// Own returns the method defined directly on this class, or nil.
func (c *Class) Own(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// IsSubclassOf reports whether c equals or descends from anc.
func (c *Class) IsSubclassOf(anc *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == anc {
			return true
		}
	}
	return false
}

// Program is a linked set of classes: the unit that is verified,
// shipped to the server, and executed.
type Program struct {
	Classes []*Class
	// Methods is the global method table; INVOKESTATIC/INVOKEVIRTUAL
	// operands index into it.
	Methods []*Method

	classByName map[string]*Class
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class { return p.classByName[name] }

// Method returns the method with the given global id, or nil.
func (p *Program) Method(id int) *Method {
	if id < 0 || id >= len(p.Methods) {
		return nil
	}
	return p.Methods[id]
}

// FindMethod returns the named method of the named class (searching
// the superclass chain), or nil. This is the reflective lookup the
// server uses to invoke offloaded methods by name.
func (p *Program) FindMethod(class, method string) *Method {
	c := p.Class(class)
	if c == nil {
		return nil
	}
	if m := c.Resolve(method); m != nil {
		return m
	}
	// Static methods are not in vtables; search the chain directly.
	for x := c; x != nil; x = x.Super {
		if m := x.Own(method); m != nil {
			return m
		}
	}
	return nil
}

// PotentialMethods returns every method annotated as a candidate for
// remote execution, in method-table order.
func (p *Program) PotentialMethods() []*Method {
	var out []*Method
	for _, m := range p.Methods {
		if m.Potential {
			out = append(out, m)
		}
	}
	return out
}

// Link resolves superclasses, assigns field slots and class/method
// ids, builds vtables, and computes override information. It must be
// called once before verification or execution.
func (p *Program) Link() error {
	p.classByName = make(map[string]*Class, len(p.Classes))
	for _, c := range p.Classes {
		if _, dup := p.classByName[c.Name]; dup {
			return fmt.Errorf("%w: duplicate class %s", ErrLink, c.Name)
		}
		p.classByName[c.Name] = c
	}
	// Resolve supers and detect cycles.
	for _, c := range p.Classes {
		if c.SuperName == "" {
			c.Super = nil
			continue
		}
		s := p.classByName[c.SuperName]
		if s == nil {
			return fmt.Errorf("%w: class %s extends unknown %s", ErrLink, c.Name, c.SuperName)
		}
		c.Super = s
	}
	for _, c := range p.Classes {
		seen := map[*Class]bool{}
		for x := c; x != nil; x = x.Super {
			if seen[x] {
				return fmt.Errorf("%w: cyclic inheritance at %s", ErrLink, c.Name)
			}
			seen[x] = true
		}
	}
	// Link classes in topological (supers first) order.
	linked := map[*Class]bool{}
	var linkClass func(c *Class) error
	linkClass = func(c *Class) error {
		if linked[c] {
			return nil
		}
		if c.Super != nil {
			if err := linkClass(c.Super); err != nil {
				return err
			}
		}
		c.layout = nil
		c.fieldBySig = map[string]*FieldSlot{}
		c.vtable = map[string]*Method{}
		if c.Super != nil {
			c.layout = append(c.layout, c.Super.layout...)
			c.numISlots = c.Super.numISlots
			c.numFSlots = c.Super.numFSlots
			c.refSlots = append([]int(nil), c.Super.refSlots...)
			for k, v := range c.Super.vtable {
				c.vtable[k] = v
			}
		} else {
			c.numISlots, c.numFSlots, c.refSlots = 0, 0, nil
		}
		seenF := map[string]bool{}
		for _, f := range c.Fields {
			if seenF[f.Name] {
				return fmt.Errorf("%w: duplicate field %s.%s", ErrLink, c.Name, f.Name)
			}
			seenF[f.Name] = true
			var slot int
			switch f.Type.Kind {
			case KFloat:
				slot = c.numFSlots
				c.numFSlots++
			case KInt:
				slot = c.numISlots
				c.numISlots++
			case KRef:
				slot = c.numISlots
				c.numISlots++
				c.refSlots = append(c.refSlots, slot)
			default:
				return fmt.Errorf("%w: field %s.%s has void type", ErrLink, c.Name, f.Name)
			}
			c.layout = append(c.layout, FieldSlot{Name: f.Name, Type: f.Type, Slot: slot})
		}
		for i := range c.layout {
			c.fieldBySig[c.layout[i].Name] = &c.layout[i]
		}
		seenM := map[string]bool{}
		for _, m := range c.Methods {
			if seenM[m.Name] {
				return fmt.Errorf("%w: duplicate method %s.%s", ErrLink, c.Name, m.Name)
			}
			seenM[m.Name] = true
			m.Class = c
			if !m.Static {
				c.vtable[m.Name] = m
			}
		}
		linked[c] = true
		return nil
	}
	for _, c := range p.Classes {
		if err := linkClass(c); err != nil {
			return err
		}
	}
	// Assign ids and the global method table; precompute the argument
	// kind vectors so hot call paths (and concurrent executions) never
	// rebuild them.
	p.Methods = p.Methods[:0]
	for i, c := range p.Classes {
		c.ID = i
		for _, m := range c.Methods {
			m.ID = len(p.Methods)
			p.Methods = append(p.Methods, m)
			m.argKinds = nil
			m.argKinds = m.ArgKinds()
		}
	}
	// Override analysis for devirtualization.
	for _, m := range p.Methods {
		m.Overridden = false
	}
	for _, c := range p.Classes {
		if c.Super == nil {
			continue
		}
		for _, m := range c.Methods {
			if m.Static {
				continue
			}
			if base := c.Super.Resolve(m.Name); base != nil {
				for b := base; b != nil; {
					b.Overridden = true
					if b.Class.Super != nil {
						b = b.Class.Super.Resolve(m.Name)
					} else {
						b = nil
					}
				}
			}
		}
	}
	return nil
}
