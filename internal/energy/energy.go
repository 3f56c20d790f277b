// Package energy models the energy consumption of the mobile client
// described in Chen et al., "Energy-Aware Compilation and Execution in
// Java-Enabled Mobile Devices" (IPPS 2003).
//
// The per-instruction energy values are taken verbatim from Fig 1 of the
// paper: they were obtained by the authors from a customized SimplePower
// simulator configured as a five-stage pipeline similar to the
// microSPARC-IIep, plus DRAM data-sheet numbers.
//
// Energies are reported in Joules (float64). The package provides an
// Account that attributes energy to system components (processor core,
// memory, radio transmit/receive, leakage during power-down) so that
// experiment harnesses can report both totals and breakdowns. Core and
// memory energy are kept as integer event counts and priced only when
// read, so equal work always reads as equal energy, bit for bit.
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Joules is an amount of energy. The zero value is zero energy.
type Joules float64

// Convenient magnitudes for constructing and reporting energies.
const (
	Joule      Joules = 1
	MilliJoule Joules = 1e-3
	MicroJoule Joules = 1e-6
	NanoJoule  Joules = 1e-9
)

// String renders the energy with an auto-selected SI prefix.
func (j Joules) String() string {
	abs := j
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs == 0:
		return "0 J"
	case abs >= 1:
		return fmt.Sprintf("%.4g J", float64(j))
	case abs >= 1e-3:
		return fmt.Sprintf("%.4g mJ", float64(j)*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.4g uJ", float64(j)*1e6)
	default:
		return fmt.Sprintf("%.4g nJ", float64(j)*1e9)
	}
}

// Watts is power in Joules per second.
type Watts float64

// Seconds is simulated wall-clock time. The simulation uses float64
// seconds rather than time.Duration because energy arithmetic
// (power x time) is floating point throughout.
type Seconds float64

// Energy returns the energy consumed by drawing power w for duration t.
func Energy(w Watts, t Seconds) Joules {
	return Joules(float64(w) * float64(t))
}

// InstrClass classifies simulated native instructions into the energy
// categories of Fig 1 in the paper.
type InstrClass int

// Instruction energy classes, in the order of Fig 1.
const (
	Load InstrClass = iota
	Store
	Branch
	ALUSimple
	ALUComplex
	Nop

	NumInstrClasses // number of classes; not itself a class
)

var instrClassNames = [NumInstrClasses]string{
	"Load", "Store", "Branch", "ALU(Simple)", "ALU(Complex)", "Nop",
}

// String returns the Fig 1 name of the class.
func (c InstrClass) String() string {
	if c < 0 || c >= NumInstrClasses {
		return fmt.Sprintf("InstrClass(%d)", int(c))
	}
	return instrClassNames[c]
}

// CPUModel holds the processor/memory energy and timing parameters of a
// target platform.
type CPUModel struct {
	// Name identifies the platform in reports.
	Name string
	// PerInstr is the base energy of one instruction of each class.
	PerInstr [NumInstrClasses]Joules
	// MainMemAccess is the DRAM energy per 32-bit word transferred.
	MainMemAccess Joules
	// ClockHz is the core clock frequency.
	ClockHz float64
	// MissPenaltyCycles is the pipeline stall, in cycles, per cache miss.
	MissPenaltyCycles int
	// CacheLineWords is the number of 32-bit words per cache line; a miss
	// transfers a full line from DRAM.
	CacheLineWords int
	// LeakageFraction is the fraction of average active power that the
	// platform still draws in the power-down state (paper: 10%).
	LeakageFraction float64
}

// MicroSPARCIIep returns the paper's mobile-client processor model:
// a 100 MHz five-stage RISC with the Fig 1 energy table.
func MicroSPARCIIep() *CPUModel {
	m := &CPUModel{
		Name:              "microSPARC-IIep",
		MainMemAccess:     4.94 * NanoJoule,
		ClockHz:           100e6,
		MissPenaltyCycles: 20,
		CacheLineWords:    8,
		LeakageFraction:   0.10,
	}
	m.PerInstr[Load] = 4.814 * NanoJoule
	m.PerInstr[Store] = 4.479 * NanoJoule
	m.PerInstr[Branch] = 2.868 * NanoJoule
	m.PerInstr[ALUSimple] = 2.846 * NanoJoule
	m.PerInstr[ALUComplex] = 3.726 * NanoJoule
	m.PerInstr[Nop] = 2.644 * NanoJoule
	return m
}

// ServerSPARC returns the paper's remote-server model: a 750 MHz SPARC
// workstation. Only its timing matters — the server is resource-rich
// and its energy is not charged to the mobile client — so it reuses
// the client's per-instruction energy table at 7.5x the clock.
func ServerSPARC() *CPUModel {
	m := MicroSPARCIIep()
	m.Name = "SPARC-750"
	m.ClockHz = 750e6
	return m
}

// AverageInstrEnergy is the unweighted mean instruction energy, used to
// derive the platform's nominal active power.
func (m *CPUModel) AverageInstrEnergy() Joules {
	var sum Joules
	for _, e := range m.PerInstr {
		sum += e
	}
	return sum / Joules(NumInstrClasses)
}

// ActivePower is the nominal active power of the core: average
// instruction energy times clock rate (one instruction per cycle).
func (m *CPUModel) ActivePower() Watts {
	return Watts(float64(m.AverageInstrEnergy()) * m.ClockHz)
}

// LeakagePower is the power drawn in the power-down state.
func (m *CPUModel) LeakagePower() Watts {
	return Watts(m.LeakageFraction) * m.ActivePower()
}

// Component identifies where energy was spent, for breakdown reporting.
type Component int

// Energy-consuming components of the mobile client.
const (
	CompCore    Component = iota // processor datapath + caches
	CompMemory                   // off-chip DRAM
	CompRadioTx                  // transmitter chain
	CompRadioRx                  // receiver chain
	CompLeakage                  // leakage while powered down
	CompCompile                  // compilation work (subset of core+memory, tracked separately)

	NumComponents
)

var componentNames = [NumComponents]string{
	"core", "memory", "radio-tx", "radio-rx", "leakage", "compile",
}

// String returns the report name of the component.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// Account accumulates energy by component and instruction counts by
// class. Core and memory energy are not running sums: the account
// keeps the instruction counts per Fig 1 class and the DRAM word
// count, and Component prices them when read. Two runs that execute
// the same instructions and miss the same lines therefore read the
// same energy to the last bit, whether their charges arrived in one
// batch or many, or were replayed from a recorded Delta. Radio,
// leakage and compile energy are float sums. Accounts are plain values
// guarded by their owner; they are not safe for concurrent mutation.
type Account struct {
	model *CPUModel

	// floats holds the float components; its core and memory entries
	// stay zero.
	floats      [NumComponents]Joules
	instrCount  [NumInstrClasses]uint64
	memAccesses uint64

	// Cycles counts core cycles accumulated by instruction execution and
	// stalls; used to derive execution time.
	Cycles uint64
}

// NewAccount returns an empty account charging energies from model.
func NewAccount(model *CPUModel) *Account {
	return &Account{model: model}
}

// Model returns the CPU model the account charges from.
func (a *Account) Model() *CPUModel { return a.model }

// AddInstr charges n instructions of class c to the core and advances
// the cycle counter by n.
func (a *Account) AddInstr(c InstrClass, n uint64) {
	a.instrCount[c] += n
	a.Cycles += n
}

// InstrCounts is a batch of pending instruction counts by class.
// Execution loops accumulate into one (plain array increments) and
// commit it with AddInstrCounts once per straight-line segment,
// instead of calling AddInstr per instruction.
type InstrCounts [NumInstrClasses]uint64

// Add records n instructions of class c.
func (n *InstrCounts) Add(c InstrClass, k uint64) { n[c] += k }

// Total returns the number of instructions in the batch.
func (n *InstrCounts) Total() uint64 {
	var t uint64
	for _, k := range n {
		t += k
	}
	return t
}

// AddInstrCounts commits a batch of pending counts and zeroes it.
// Equivalent to calling AddInstr once per class with the accumulated
// count.
func (a *Account) AddInstrCounts(n *InstrCounts) {
	for c := InstrClass(0); c < NumInstrClasses; c++ {
		if k := n[c]; k != 0 {
			a.instrCount[c] += k
			a.Cycles += k
			n[c] = 0
		}
	}
}

// AddMemAccess charges n DRAM word transfers to the memory component.
// Stall cycles are added separately by the cache hierarchy.
func (a *Account) AddMemAccess(n uint64) {
	a.memAccesses += n
}

// AddStallCycles advances the cycle counter without charging energy
// (stalled pipeline energy is folded into the DRAM access cost).
func (a *Account) AddStallCycles(n uint64) {
	a.Cycles += n
}

// AddRadio charges e Joules of transmit (tx=true) or receive energy.
func (a *Account) AddRadio(tx bool, e Joules) {
	if tx {
		a.floats[CompRadioTx] += e
	} else {
		a.floats[CompRadioRx] += e
	}
}

// AddLeakage charges leakage energy for a power-down interval of
// duration t.
func (a *Account) AddLeakage(t Seconds) {
	a.floats[CompLeakage] += Energy(a.model.LeakagePower(), t)
}

// AddComponent charges e Joules directly to component c, which must be
// a float component (radio, leakage or compile): core and memory
// energy come only from counts.
func (a *Account) AddComponent(c Component, e Joules) {
	if c == CompCore || c == CompMemory {
		panic(fmt.Sprintf("energy: AddComponent(%v): core and memory energy are charged as counts", c))
	}
	a.floats[c] += e
}

// Total returns the total energy across all components. The compile
// component is excluded from the total because compile work is already
// charged to core/memory; it exists only for reporting.
func (a *Account) Total() Joules {
	var sum Joules
	for c := Component(0); c < NumComponents; c++ {
		if c == CompCompile {
			continue
		}
		sum += a.Component(c)
	}
	return sum
}

// Component returns the energy charged to component c. Core energy is
// the instruction counts priced at the Fig 1 per-class energies, in
// class order; memory energy is the DRAM word count priced per word.
func (a *Account) Component(c Component) Joules {
	switch c {
	case CompCore:
		var e Joules
		for i, n := range a.instrCount {
			e += Joules(n) * a.model.PerInstr[i]
		}
		return e
	case CompMemory:
		return Joules(a.memAccesses) * a.model.MainMemAccess
	}
	return a.floats[c]
}

// InstrCount returns the number of instructions of class c charged.
func (a *Account) InstrCount(c InstrClass) uint64 { return a.instrCount[c] }

// Instructions returns the total instruction count across classes.
func (a *Account) Instructions() uint64 {
	var n uint64
	for _, c := range a.instrCount {
		n += c
	}
	return n
}

// MemAccesses returns the number of DRAM word transfers charged.
func (a *Account) MemAccesses() uint64 { return a.memAccesses }

// Time returns the execution time implied by the accumulated cycles.
func (a *Account) Time() Seconds {
	return Seconds(float64(a.Cycles) / a.model.ClockHz)
}

// AddFrom merges the contents of src into a.
func (a *Account) AddFrom(src *Account) {
	a.Apply(src.DeltaSince(Account{}))
}

// Reset zeroes the account.
func (a *Account) Reset() {
	*a = Account{model: a.model}
}

// Snapshot returns a copy of the account for later Diff.
func (a *Account) Snapshot() Account { return *a }

// Since returns the energy accumulated since the snapshot was taken.
func (a *Account) Since(snap Account) Joules {
	return a.Total() - snap.Total()
}

// Delta is the difference between two account states: a replayable
// record of everything one execution charged. Core and memory travel
// as counts, so applying a Delta leaves an account in exactly the
// state the recorded charges left it in; Floats carries the float
// components (its core and memory entries are zero).
type Delta struct {
	Floats      [NumComponents]Joules
	Instr       [NumInstrClasses]uint64
	MemAccesses uint64
	Cycles      uint64
}

// DeltaSince returns everything charged since the snapshot.
func (a *Account) DeltaSince(snap Account) Delta {
	var d Delta
	for i := range d.Floats {
		d.Floats[i] = a.floats[i] - snap.floats[i]
	}
	for i := range d.Instr {
		d.Instr[i] = a.instrCount[i] - snap.instrCount[i]
	}
	d.MemAccesses = a.memAccesses - snap.memAccesses
	d.Cycles = a.Cycles - snap.Cycles
	return d
}

// Apply re-charges a recorded delta.
func (a *Account) Apply(d Delta) {
	for i := range d.Floats {
		a.floats[i] += d.Floats[i]
	}
	for i := range d.Instr {
		a.instrCount[i] += d.Instr[i]
	}
	a.memAccesses += d.MemAccesses
	a.Cycles += d.Cycles
}

// String renders a component breakdown, largest first.
func (a *Account) String() string {
	type row struct {
		c Component
		e Joules
	}
	rows := make([]row, 0, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		if e := a.Component(c); e != 0 {
			rows = append(rows, row{c, e})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].e > rows[j].e })
	var b strings.Builder
	fmt.Fprintf(&b, "total %v over %v", a.Total(), a.Time())
	for _, r := range rows {
		fmt.Fprintf(&b, "; %s %v", r.c, r.e)
	}
	return b.String()
}
