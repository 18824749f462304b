package sim

import (
	"fmt"
	"strings"
	"testing"
)

// specRow is one edge case of an op, written from the RISC-V unprivileged
// specification: the instruction, the bits of its source operands (placed
// in both x1/x2 and f1/f2) and the bits the spec gives its result.
type specRow struct {
	inst   string
	a, b   uint32
	want   uint32
	clause string
}

const (
	qNaN  = 0x7fc00000
	sNaN  = 0x7f800001
	posI  = 0x7f800000
	negI  = 0xff800000
	negZ  = 0x80000000
	one   = 0x3f800000
	f1p5  = 0x3fc00000 // 1.5
	f1p7  = 0x3fd9999a // 1.7
	f2p5  = 0x40200000 // 2.5
	f3p5  = 0x40600000 // 3.5
	intMn = 0x80000000
)

// Clauses cite the RISC-V unprivileged ISA specification, version 20191213.
const (
	mDiv   = "M 7.2, Table 7.1: division by zero and overflow"
	mMul   = "M 7.1: mulh/mulhsu/mulhu return the upper 32 bits of the 64-bit product"
	iShift = "RV32I 2.4: register shifts use the low 5 bits of rs2"
	fMin   = "F 11.6: fmin/fmax — one NaN gives the other operand, two NaNs the canonical NaN, -0.0 < +0.0"
	fCvt   = "F 11.7, Table 11.4: fcvt.w[u].s round by rm (RNE) and saturate; NaN gives the maximum"
	fCmp   = "F 11.8: feq/flt/fle write 0 when either operand is NaN"
	fClass = "F 11.9, Table 11.5: fclass.s sets exactly one of ten class bits"
)

var specRows = []specRow{
	{"div x3, x1, x2", 7, 0, 0xffffffff, mDiv},
	{"divu x3, x1, x2", 7, 0, 0xffffffff, mDiv},
	{"rem x3, x1, x2", 7, 0, 7, mDiv},
	{"remu x3, x1, x2", 7, 0, 7, mDiv},
	{"div x3, x1, x2", intMn, 0xffffffff, intMn, mDiv},
	{"rem x3, x1, x2", intMn, 0xffffffff, 0, mDiv},
	{"mulh x3, x1, x2", intMn, intMn, 0x40000000, mMul},
	{"mulh x3, x1, x2", 0xffffffff, 1, 0xffffffff, mMul},
	{"mulh x3, x1, x2", intMn, 0xffffffff, 0, mMul},
	{"mulhsu x3, x1, x2", 0xffffffff, 0xffffffff, 0xffffffff, mMul},
	{"mulhsu x3, x1, x2", 1, 0xffffffff, 0, mMul},
	{"mulhu x3, x1, x2", 0xffffffff, 0xffffffff, 0xfffffffe, mMul},
	{"sll x3, x1, x2", 1, 33, 2, iShift},
	{"sll x3, x1, x2", 1, 32, 1, iShift},
	{"srl x3, x1, x2", intMn, 63, 1, iShift},
	{"sra x3, x1, x2", intMn, 36, 0xf8000000, iShift},
	{"fmin.s f3, f1, f2", qNaN, one, one, fMin},
	{"fmax.s f3, f1, f2", one, sNaN, one, fMin},
	{"fmin.s f3, f1, f2", sNaN, sNaN, qNaN, fMin},
	{"fmax.s f3, f1, f2", 0x7fc00001, sNaN, qNaN, fMin},
	{"fmin.s f3, f1, f2", negZ, 0, negZ, fMin},
	{"fmin.s f3, f1, f2", 0, negZ, negZ, fMin},
	{"fmax.s f3, f1, f2", 0, negZ, 0, fMin},
	{"fmax.s f3, f1, f2", negZ, 0, 0, fMin},
	{"fcvt.w.s x3, f1", qNaN, 0, 0x7fffffff, fCvt},
	{"fcvt.w.s x3, f1", posI, 0, 0x7fffffff, fCvt},
	{"fcvt.w.s x3, f1", negI, 0, intMn, fCvt},
	{"fcvt.w.s x3, f1", 0x4f32d05e, 0, 0x7fffffff, fCvt}, // 3e9
	{"fcvt.w.s x3, f1", 0xcf32d05e, 0, intMn, fCvt},      // -3e9
	{"fcvt.w.s x3, f1", f1p7, 0, 2, fCvt},
	{"fcvt.w.s x3, f1", f1p7 | negZ, 0, 0xfffffffe, fCvt},
	{"fcvt.w.s x3, f1", f1p5, 0, 2, fCvt},
	{"fcvt.w.s x3, f1", f2p5, 0, 2, fCvt},
	{"fcvt.w.s x3, f1", f2p5 | negZ, 0, 0xfffffffe, fCvt},
	{"fcvt.w.s x3, f1", 0x3f000000, 0, 0, fCvt}, // 0.5
	{"fcvt.wu.s x3, f1", sNaN, 0, 0xffffffff, fCvt},
	{"fcvt.wu.s x3, f1", posI, 0, 0xffffffff, fCvt},
	{"fcvt.wu.s x3, f1", negI, 0, 0, fCvt},
	{"fcvt.wu.s x3, f1", 0x4f9502f9, 0, 0xffffffff, fCvt}, // 5e9
	{"fcvt.wu.s x3, f1", one | negZ, 0, 0, fCvt},
	{"fcvt.wu.s x3, f1", f2p5, 0, 2, fCvt},
	{"fcvt.wu.s x3, f1", f3p5, 0, 4, fCvt},
	{"fcvt.wu.s x3, f1", 0xbf000000, 0, 0, fCvt}, // -0.5
	{"fclass.s x3, f1", negI, 0, 1 << 0, fClass},
	{"fclass.s x3, f1", one | negZ, 0, 1 << 1, fClass},
	{"fclass.s x3, f1", 0x80000001, 0, 1 << 2, fClass},
	{"fclass.s x3, f1", negZ, 0, 1 << 3, fClass},
	{"fclass.s x3, f1", 0, 0, 1 << 4, fClass},
	{"fclass.s x3, f1", 1, 0, 1 << 5, fClass},
	{"fclass.s x3, f1", one, 0, 1 << 6, fClass},
	{"fclass.s x3, f1", posI, 0, 1 << 7, fClass},
	{"fclass.s x3, f1", sNaN, 0, 1 << 8, fClass},
	{"fclass.s x3, f1", qNaN, 0, 1 << 9, fClass},
	{"feq.s x3, f1, f2", qNaN, one, 0, fCmp},
	{"feq.s x3, f1, f2", sNaN, sNaN, 0, fCmp},
	{"flt.s x3, f1, f2", one, qNaN, 0, fCmp},
	{"flt.s x3, f1, f2", qNaN, one, 0, fCmp},
	{"fle.s x3, f1, f2", qNaN, qNaN, 0, fCmp},
	{"fle.s x3, f1, f2", one, sNaN, 0, fCmp},
}

// TestSpecEdgeCases runs each specRows entry as a one-instruction program
// on a 1-core, 1-lane device and compares the result bits.
func TestSpecEdgeCases(t *testing.T) {
	for _, r := range specRows {
		name := fmt.Sprintf("%s/%#x,%#x", r.inst, r.a, r.b)
		s := rigNoStart(t, cfg1c1w1t(), r.inst+"\necall", nil)
		if err := s.ActivateWarp(0, 0, 0x1000, 1); err != nil {
			t.Fatal(err)
		}
		w := &s.cores[0].warps[0]
		setReg(s, w, 1, 0, r.a)
		setReg(s, w, 2, 0, r.b)
		setReg(s, w, floatSlot(1), 0, r.a)
		setReg(s, w, floatSlot(2), 0, r.b)
		mustRun(t, s)
		read := s.Reg
		if strings.Fields(r.inst)[1][0] == 'f' {
			read = s.FReg
		}
		got, err := read(0, 0, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != r.want {
			t.Errorf("%s = %#x, want %#x (%s)", name, got, r.want, r.clause)
		}
	}
}
