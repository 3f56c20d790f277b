package jit

import "greenvm/internal/bytecode"

// Level2 optimizations: local value numbering (common sub-expression
// elimination, constant folding, copy propagation, immediate-operand
// formation), strength reduction, loop-invariant code motion, and
// liveness-based dead-code elimination. These are the optimizations
// the paper attributes to its Level2 compiler.

// Immediate-form IR ops are produced only by the optimizer (never by
// the builder), so Level1 code uses the plain register forms.
const (
	opAddImm irOp = 200 + iota
	opMulImm
	opShlImm
	opShrImm
	opAndImm
)

// optimize runs the Level2 pass pipeline and returns pass statistics.
func optimize(f *fn) optStats {
	var st optStats
	for _, b := range f.blocks {
		st.merge(valueNumber(f, b))
	}
	st.Hoisted = licm(f)
	// LICM and LVN leave dead moves behind; clean up.
	st.DeadRemoved = deadCodeElim(f)
	return st
}

// optStats counts what each optimization accomplished; the compile
// cost model charges for the work and the stats feed ablation benches.
type optStats struct {
	CSEHits     int // expressions replaced by an available value
	ConstFolded int
	ImmFormed   int // register-register ops narrowed to immediate form
	Strength    int // multiplies turned into shifts
	Hoisted     int // instructions moved to loop preheaders
	DeadRemoved int
}

func (s *optStats) merge(o optStats) {
	s.CSEHits += o.CSEHits
	s.ConstFolded += o.ConstFolded
	s.ImmFormed += o.ImmFormed
	s.Strength += o.Strength
	s.Hoisted += o.Hoisted
	s.DeadRemoved += o.DeadRemoved
}

func (s *optStats) total() int {
	return s.CSEHits + s.ConstFolded + s.ImmFormed + s.Strength + s.Hoisted + s.DeadRemoved
}

// valueNumber performs local value numbering over one block.
func valueNumber(f *fn, b *block) optStats {
	var st optStats

	type exprKey struct {
		op     irOp
		a, bvn int32
		imm    int64
		fimm   float64
	}
	nextVN := int32(1)
	vnOf := make(map[vreg]int32)   // current value number of a vreg
	holder := make(map[int32]vreg) // a vreg currently holding the value
	constI := make(map[int32]int64)
	constF := make(map[int32]float64)
	exprVN := make(map[exprKey]int32)

	vn := func(r vreg) int32 {
		if n, ok := vnOf[r]; ok {
			return n
		}
		n := nextVN
		nextVN++
		vnOf[r] = n
		holder[n] = r
		return n
	}
	define := func(r vreg, n int32) {
		if old, ok := vnOf[r]; ok && holder[old] == r {
			delete(holder, old)
		}
		vnOf[r] = n
		if _, ok := holder[n]; !ok {
			holder[n] = r
		}
	}
	freshDef := func(r vreg) {
		n := nextVN
		nextVN++
		define(r, n)
	}

	movFor := func(k bytecode.Kind) irOp {
		if k == bytecode.KFloat {
			return opMovF
		}
		return opMov
	}

	out := b.instrs[:0]
	for i := range b.instrs {
		in := b.instrs[i]

		switch in.Op {
		case opMov, opMovF:
			// Copy propagation: destination takes the source's value.
			n := vn(in.A)
			if h, ok := holder[n]; ok && h != in.A {
				in.A = h
			}
			if vnOf[in.Dst] == n {
				// Already holds the value; drop the move.
				st.CSEHits++
				continue
			}
			define(in.Dst, n)
			out = append(out, in)
			continue

		case opConstI:
			key := exprKey{op: opConstI, imm: in.Imm}
			if n, ok := exprVN[key]; ok {
				if h, held := holder[n]; held {
					if vnOf[in.Dst] == n {
						st.CSEHits++
						continue
					}
					in = irInstr{Op: opMov, Dst: in.Dst, A: h}
					define(in.Dst, n)
					st.CSEHits++
					out = append(out, in)
					continue
				}
			}
			n := nextVN
			nextVN++
			exprVN[key] = n
			constI[n] = in.Imm
			define(in.Dst, n)
			out = append(out, in)
			continue

		case opConstF:
			key := exprKey{op: opConstF, fimm: in.FImm}
			if n, ok := exprVN[key]; ok {
				if h, held := holder[n]; held {
					if vnOf[in.Dst] == n {
						st.CSEHits++
						continue
					}
					in = irInstr{Op: opMovF, Dst: in.Dst, A: h}
					define(in.Dst, n)
					st.CSEHits++
					out = append(out, in)
					continue
				}
			}
			n := nextVN
			nextVN++
			exprVN[key] = n
			constF[n] = in.FImm
			define(in.Dst, n)
			out = append(out, in)
			continue
		}

		// Rewrite operands to current holders (copy propagation into
		// uses). Only rewrite fields the opcode actually reads.
		rewrite := func(r *vreg) {
			if *r == noReg {
				return
			}
			n := vn(*r)
			if h, ok := holder[n]; ok && h != noReg {
				*r = h
			}
		}
		readsA, readsB := in.readsAB()
		if readsA {
			rewrite(&in.A)
		}
		if readsB {
			rewrite(&in.B)
		}
		for j := range in.Args {
			rewrite(&in.Args[j])
		}

		if !in.pure() {
			if d := in.def(); d != noReg {
				freshDef(d)
			}
			out = append(out, in)
			continue
		}

		na, nb := vn(in.A), int32(0)
		if in.B != noReg {
			nb = vn(in.B)
		}

		// Constant folding.
		if ca, aok := constI[na]; aok && in.B != noReg {
			if cb, bok := constI[nb]; bok {
				if folded, ok := foldInt(in.Op, ca, cb); ok {
					in = irInstr{Op: opConstI, Dst: in.Dst, Imm: folded}
					st.ConstFolded++
					key := exprKey{op: opConstI, imm: folded}
					n, ok := exprVN[key]
					if !ok {
						n = nextVN
						nextVN++
						exprVN[key] = n
						constI[n] = folded
					}
					define(in.Dst, n)
					out = append(out, in)
					continue
				}
			}
		}
		if in.Op == opNeg {
			if ca, aok := constI[na]; aok {
				folded := int64(int32(-ca))
				in = irInstr{Op: opConstI, Dst: in.Dst, Imm: folded}
				st.ConstFolded++
				freshDef(in.Dst)
				constI[vnOf[in.Dst]] = folded
				out = append(out, in)
				continue
			}
		}

		// Immediate-operand formation and strength reduction.
		if in.B != noReg {
			if cb, bok := constI[nb]; bok {
				if imm, ok := immForm(in.Op, cb, false); ok {
					in.Op, in.Imm, in.B = imm.op, imm.imm, noReg
					st.ImmFormed++
					if imm.strength {
						st.Strength++
					}
				}
			} else if ca, aok := constI[na]; aok {
				if imm, ok := immForm(in.Op, ca, true); ok {
					in.Op, in.Imm = imm.op, imm.imm
					in.A, in.B = in.B, noReg
					st.ImmFormed++
					if imm.strength {
						st.Strength++
					}
				}
			}
		}

		// Algebraic identities.
		switch {
		case in.Op == opAddImm && in.Imm == 0,
			in.Op == opMulImm && in.Imm == 1,
			in.Op == opShlImm && in.Imm == 0,
			in.Op == opShrImm && in.Imm == 0:
			in = irInstr{Op: opMov, Dst: in.Dst, A: in.A}
			n := vn(in.A)
			if vnOf[in.Dst] == n {
				st.CSEHits++
				continue
			}
			define(in.Dst, n)
			out = append(out, in)
			continue
		case in.Op == opMulImm && in.Imm == 0:
			in = irInstr{Op: opConstI, Dst: in.Dst, Imm: 0}
			freshDef(in.Dst)
			constI[vnOf[in.Dst]] = 0
			out = append(out, in)
			continue
		}

		// Common sub-expression elimination.
		key := exprKey{op: in.Op, a: vn(in.A), imm: in.Imm, fimm: in.FImm}
		if in.B != noReg {
			key.bvn = vn(in.B)
		}
		if n, ok := exprVN[key]; ok {
			if h, held := holder[n]; held {
				if vnOf[in.Dst] == n {
					st.CSEHits++
					continue
				}
				k := f.kinds[in.Dst]
				out = append(out, irInstr{Op: movFor(k), Dst: in.Dst, A: h})
				define(in.Dst, n)
				st.CSEHits++
				continue
			}
		}
		n := nextVN
		nextVN++
		exprVN[key] = n
		define(in.Dst, n)
		out = append(out, in)
	}
	b.instrs = out
	return st
}

// foldInt evaluates a pure integer op over constants with the VM's
// 32-bit wrapping semantics.
func foldInt(op irOp, a, b int64) (int64, bool) {
	var r int64
	switch op {
	case opAdd:
		r = a + b
	case opSub:
		r = a - b
	case opMul:
		r = a * b
	case opAnd:
		r = a & b
	case opOr:
		r = a | b
	case opXor:
		r = a ^ b
	case opShl:
		r = a << uint(b&31)
	case opShr:
		r = a >> uint(b&31)
	default:
		return 0, false
	}
	return int64(int32(r)), true
}

type immRewrite struct {
	op       irOp
	imm      int64
	strength bool
}

// immForm returns the immediate-operand rewrite for op with constant c
// (on the right unless commuted, in which case the operation must be
// commutative). Multiplication by a power of two becomes a shift
// (strength reduction).
func immForm(op irOp, c int64, commuted bool) (immRewrite, bool) {
	switch op {
	case opAdd:
		return immRewrite{op: opAddImm, imm: c}, true
	case opSub:
		if commuted {
			return immRewrite{}, false
		}
		return immRewrite{op: opAddImm, imm: -c}, true
	case opMul:
		if c > 0 && c&(c-1) == 0 {
			return immRewrite{op: opShlImm, imm: log2(c), strength: true}, true
		}
		return immRewrite{op: opMulImm, imm: c}, true
	case opShl:
		if commuted {
			return immRewrite{}, false
		}
		return immRewrite{op: opShlImm, imm: c & 31}, true
	case opShr:
		if commuted {
			return immRewrite{}, false
		}
		return immRewrite{op: opShrImm, imm: c & 31}, true
	case opAnd:
		return immRewrite{op: opAndImm, imm: c}, true
	}
	return immRewrite{}, false
}

func log2(c int64) int64 {
	n := int64(0)
	for c > 1 {
		c >>= 1
		n++
	}
	return n
}
