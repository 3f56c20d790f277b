package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestFig1Values(t *testing.T) {
	m := MicroSPARCIIep()
	want := map[InstrClass]float64{
		Load:       4.814e-9,
		Store:      4.479e-9,
		Branch:     2.868e-9,
		ALUSimple:  2.846e-9,
		ALUComplex: 3.726e-9,
		Nop:        2.644e-9,
	}
	for c, w := range want {
		if got := float64(m.PerInstr[c]); !approx(got, w, 1e-12) {
			t.Errorf("PerInstr[%v] = %g, want %g", c, got, w)
		}
	}
	if got := float64(m.MainMemAccess); !approx(got, 4.94e-9, 1e-12) {
		t.Errorf("MainMemAccess = %g, want 4.94nJ", got)
	}
}

func TestActiveAndLeakagePower(t *testing.T) {
	m := MicroSPARCIIep()
	// Average of the six Fig 1 values times 100 MHz.
	avg := (4.814 + 4.479 + 2.868 + 2.846 + 3.726 + 2.644) / 6 * 1e-9
	if got := float64(m.ActivePower()); !approx(got, avg*100e6, 1e-9) {
		t.Errorf("ActivePower = %g, want %g", got, avg*100e6)
	}
	if got := float64(m.LeakagePower()); !approx(got, 0.1*avg*100e6, 1e-9) {
		t.Errorf("LeakagePower = %g, want 10%% of active", got)
	}
}

func TestAccountChargesAndTime(t *testing.T) {
	m := MicroSPARCIIep()
	a := NewAccount(m)
	a.AddInstr(Load, 10)
	a.AddInstr(Branch, 5)
	a.AddMemAccess(8)
	a.AddStallCycles(20)

	wantCore := 10*4.814e-9 + 5*2.868e-9
	if got := float64(a.Component(CompCore)); !approx(got, wantCore, 1e-12) {
		t.Errorf("core = %g, want %g", got, wantCore)
	}
	wantMem := 8 * 4.94e-9
	if got := float64(a.Component(CompMemory)); !approx(got, wantMem, 1e-12) {
		t.Errorf("memory = %g, want %g", got, wantMem)
	}
	if a.Cycles != 35 {
		t.Errorf("Cycles = %d, want 35", a.Cycles)
	}
	if got := float64(a.Time()); !approx(got, 35/100e6, 1e-12) {
		t.Errorf("Time = %g, want 350ns", got)
	}
	if a.Instructions() != 15 {
		t.Errorf("Instructions = %d, want 15", a.Instructions())
	}
}

func TestAccountLeakage(t *testing.T) {
	m := MicroSPARCIIep()
	a := NewAccount(m)
	a.AddLeakage(2.0)
	want := float64(m.LeakagePower()) * 2.0
	if got := float64(a.Component(CompLeakage)); !approx(got, want, 1e-12) {
		t.Errorf("leakage = %g, want %g", got, want)
	}
}

func TestAccountAddFromAndSnapshot(t *testing.T) {
	m := MicroSPARCIIep()
	a := NewAccount(m)
	b := NewAccount(m)
	a.AddInstr(Load, 3)
	b.AddInstr(Store, 2)
	b.AddRadio(true, 5*MicroJoule)

	snap := a.Snapshot()
	a.AddFrom(b)
	if got, want := a.InstrCount(Store), uint64(2); got != want {
		t.Errorf("merged store count = %d, want %d", got, want)
	}
	delta := float64(a.Since(snap))
	want := float64(b.Total())
	if !approx(delta, want, 1e-12) {
		t.Errorf("Since = %g, want %g", delta, want)
	}
}

func TestCompileComponentExcludedFromTotal(t *testing.T) {
	a := NewAccount(MicroSPARCIIep())
	a.AddComponent(CompCompile, 1*MilliJoule)
	if a.Total() != 0 {
		t.Errorf("compile-only account total = %v, want 0", a.Total())
	}
}

func TestJoulesString(t *testing.T) {
	cases := map[Joules]string{
		0:                "0 J",
		1.5 * Joule:      "1.5 J",
		2 * MilliJoule:   "2 mJ",
		3.2 * MicroJoule: "3.2 uJ",
		42 * NanoJoule:   "42 nJ",
	}
	for j, want := range cases {
		if got := j.String(); got != want {
			t.Errorf("(%g).String() = %q, want %q", float64(j), got, want)
		}
	}
}

func TestAccountStringMentionsComponents(t *testing.T) {
	a := NewAccount(MicroSPARCIIep())
	a.AddInstr(Load, 100)
	a.AddRadio(false, 1*MicroJoule)
	s := a.String()
	for _, part := range []string{"core", "radio-rx", "total"} {
		if !strings.Contains(s, part) {
			t.Errorf("Account.String() = %q, missing %q", s, part)
		}
	}
}

// Property: merging accounts is additive in every component.
func TestAccountMergeAdditiveProperty(t *testing.T) {
	m := MicroSPARCIIep()
	f := func(loads1, loads2 uint8, stalls uint16, radio uint16) bool {
		a := NewAccount(m)
		b := NewAccount(m)
		a.AddInstr(Load, uint64(loads1))
		b.AddInstr(Load, uint64(loads2))
		b.AddStallCycles(uint64(stalls))
		b.AddRadio(true, Joules(radio)*NanoJoule)
		total := float64(a.Total()) + float64(b.Total())
		a.AddFrom(b)
		return approx(float64(a.Total()), total, 1e-9) &&
			a.InstrCount(Load) == uint64(loads1)+uint64(loads2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyPowerTime(t *testing.T) {
	if got := Energy(2, 3); got != 6 {
		t.Errorf("Energy(2W, 3s) = %v, want 6 J", got)
	}
}

func TestInstrClassString(t *testing.T) {
	if Load.String() != "Load" || ALUComplex.String() != "ALU(Complex)" {
		t.Error("InstrClass names do not match Fig 1")
	}
	if InstrClass(99).String() == "" {
		t.Error("out-of-range class should still render")
	}
}

func TestDeltaRoundtrip(t *testing.T) {
	m := MicroSPARCIIep()
	a := NewAccount(m)
	a.AddInstr(Load, 5)
	snap := a.Snapshot()
	a.AddInstr(Store, 3)
	a.AddMemAccess(2)
	a.AddStallCycles(7)
	a.AddRadio(true, 4*MicroJoule)
	a.AddLeakage(0.5)
	a.AddComponent(CompCompile, 1*MicroJoule)

	d := a.DeltaSince(snap)
	b := NewAccount(m)
	b.AddInstr(Load, 5) // replicate the pre-snapshot state
	b.Apply(d)

	if b.Total() != a.Total() {
		t.Errorf("replayed total %v != %v", b.Total(), a.Total())
	}
	for c := Component(0); c < NumComponents; c++ {
		if b.Component(c) != a.Component(c) {
			t.Errorf("component %v: %v != %v", c, b.Component(c), a.Component(c))
		}
	}
	if b.Cycles != a.Cycles || b.MemAccesses() != a.MemAccesses() {
		t.Error("cycles/mem accesses diverge")
	}
	for c := InstrClass(0); c < NumInstrClasses; c++ {
		if b.InstrCount(c) != a.InstrCount(c) {
			t.Errorf("instr class %v diverges", c)
		}
	}
}

func TestServerSPARCModel(t *testing.T) {
	s := ServerSPARC()
	c := MicroSPARCIIep()
	if s.ClockHz != 750e6 {
		t.Errorf("server clock = %g", s.ClockHz)
	}
	if s.PerInstr != c.PerInstr {
		t.Error("server shares the instruction energy table")
	}
	// 7.5x clock means 7.5x less time for the same cycles.
	sa, ca := NewAccount(s), NewAccount(c)
	sa.AddInstr(Load, 1000)
	ca.AddInstr(Load, 1000)
	if r := float64(ca.Time()) / float64(sa.Time()); r < 7.49 || r > 7.51 {
		t.Errorf("speed ratio = %g, want 7.5", r)
	}
}

// Property: core and memory energy depend only on the counts charged,
// not on how the charges were batched — a replayed Delta reads the
// same energy, bit for bit, as the many small charges it stands for.
func TestEnergyIndependentOfBatching(t *testing.T) {
	m := MicroSPARCIIep()
	f := func(counts []uint16, words []uint8) bool {
		many, one := NewAccount(m), NewAccount(m)
		var batch InstrCounts
		for i, n := range counts {
			many.AddInstr(InstrClass(i%int(NumInstrClasses)), uint64(n))
			batch.Add(InstrClass(i%int(NumInstrClasses)), uint64(n))
		}
		var w uint64
		for _, n := range words {
			many.AddMemAccess(uint64(n))
			w += uint64(n)
		}
		snap := one.Snapshot()
		one.AddInstrCounts(&batch)
		one.AddMemAccess(w)
		replayed := NewAccount(m)
		replayed.Apply(one.DeltaSince(snap))
		for _, a := range []*Account{one, replayed} {
			if math.Float64bits(float64(a.Total())) != math.Float64bits(float64(many.Total())) ||
				a.Component(CompCore) != many.Component(CompCore) ||
				a.Component(CompMemory) != many.Component(CompMemory) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddComponentRejectsCountedComponents(t *testing.T) {
	for _, c := range []Component{CompCore, CompMemory} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddComponent(%v) did not panic", c)
				}
			}()
			NewAccount(MicroSPARCIIep()).AddComponent(c, 1)
		}()
	}
}
