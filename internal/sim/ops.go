package sim

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// Lane kernels. An instruction's operation is chosen once per warp; its lane
// loop is one of the helpers below handed the op's scalar function. The
// helpers are small enough to inline, and the compiler then inlines the
// function value they are handed, so every case compiles to a plain loop
// with no call or opcode test per lane.

// lanes1 sets dst[l] = f(a[l]) on every active lane l.
func lanes1(dst, a []uint32, tmask uint64, f func(x uint32) uint32) {
	for m := tmask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = f(a[l])
	}
}

// lanes2 sets dst[l] = f(a[l], b[l]) on every active lane l.
func lanes2(dst, a, b []uint32, tmask uint64, f func(x, y uint32) uint32) {
	for m := tmask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = f(a[l], b[l])
	}
}

// lanes3 sets dst[l] = f(a[l], b[l], c[l]) on every active lane l.
func lanes3(dst, a, b, c []uint32, tmask uint64, f func(x, y, z uint32) uint32) {
	for m := tmask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = f(a[l], b[l], c[l])
	}
}

// dense1 is lanes1 over lanes 0..len(dst)-1 — the mask of every full warp —
// as a counted loop free of bounds checks.
func dense1(dst, a []uint32, f func(x uint32) uint32) {
	a = a[:len(dst)]
	for l := range dst {
		dst[l] = f(a[l])
	}
}

// dense2 is lanes2 over lanes 0..len(dst)-1.
func dense2(dst, a, b []uint32, f func(x, y uint32) uint32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for l := range dst {
		dst[l] = f(a[l], b[l])
	}
}

// laneMask returns the active lanes l for which f(a[l], b[l]) holds.
func laneMask(a, b []uint32, tmask uint64, f func(x, y uint32) bool) uint64 {
	var t uint64
	for m := tmask; m != 0; m &= m - 1 {
		if l := bits.TrailingZeros64(m); f(a[l], b[l]) {
			t |= m & -m
		}
	}
	return t
}

// intALURow applies register-register op to the active lanes of rows a
// and b. A mask covering lanes 0..k-1 (every full warp) runs the commonest
// ops as counted loops.
func intALURow(op isa.Op, dst, a, b []uint32, tmask uint64) {
	if tmask&(tmask+1) == 0 {
		dst = dst[:bits.Len64(tmask)]
		switch op {
		case isa.ADD:
			dense2(dst, a, b, func(x, y uint32) uint32 { return x + y })
			return
		case isa.SUB:
			dense2(dst, a, b, func(x, y uint32) uint32 { return x - y })
			return
		case isa.AND:
			dense2(dst, a, b, func(x, y uint32) uint32 { return x & y })
			return
		case isa.OR:
			dense2(dst, a, b, func(x, y uint32) uint32 { return x | y })
			return
		case isa.XOR:
			dense2(dst, a, b, func(x, y uint32) uint32 { return x ^ y })
			return
		case isa.MUL:
			dense2(dst, a, b, func(x, y uint32) uint32 { return x * y })
			return
		}
	}
	switch op {
	case isa.ADD:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x + y })
	case isa.SUB:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x - y })
	case isa.SLL:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x << (y & 31) })
	case isa.SLT:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return boolBit(int32(x) < int32(y)) })
	case isa.SLTU:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return boolBit(x < y) })
	case isa.XOR:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x ^ y })
	case isa.SRL:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x >> (y & 31) })
	case isa.SRA:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return uint32(int32(x) >> (y & 31)) })
	case isa.OR:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x | y })
	case isa.AND:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x & y })
	case isa.MUL:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return x * y })
	case isa.MULH:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return uint32(uint64(int64(int32(x))*int64(int32(y))) >> 32) })
	case isa.MULHSU:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return uint32(uint64(int64(int32(x))*int64(y)) >> 32) })
	case isa.MULHU:
		lanes2(dst, a, b, tmask, func(x, y uint32) uint32 { return uint32(uint64(x) * uint64(y) >> 32) })
	case isa.DIV:
		lanes2(dst, a, b, tmask, div32)
	case isa.DIVU:
		lanes2(dst, a, b, tmask, divu32)
	case isa.REM:
		lanes2(dst, a, b, tmask, rem32)
	case isa.REMU:
		lanes2(dst, a, b, tmask, remu32)
	default:
		panic("intALURow: bad op " + op.String())
	}
}

// intALUImmRow is intALURow for the register-immediate ops.
func intALUImmRow(op isa.Op, dst, a []uint32, imm int32, tmask uint64) {
	u, sh := uint32(imm), uint(imm&31)
	if tmask&(tmask+1) == 0 {
		dst = dst[:bits.Len64(tmask)]
		switch op {
		case isa.ADDI:
			dense1(dst, a, func(x uint32) uint32 { return x + u })
			return
		case isa.SLLI:
			dense1(dst, a, func(x uint32) uint32 { return x << sh })
			return
		}
	}
	switch op {
	case isa.ADDI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return x + u })
	case isa.SLTI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return boolBit(int32(x) < imm) })
	case isa.SLTIU:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return boolBit(x < u) })
	case isa.XORI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return x ^ u })
	case isa.ORI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return x | u })
	case isa.ANDI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return x & u })
	case isa.SLLI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return x << sh })
	case isa.SRLI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return x >> sh })
	case isa.SRAI:
		lanes1(dst, a, tmask, func(x uint32) uint32 { return uint32(int32(x) >> sh) })
	default:
		panic("intALUImmRow: bad op " + op.String())
	}
}

// div32, divu32, rem32 and remu32 are the RISC-V M division ops: division
// by zero and signed overflow produce defined results instead of faults.
func div32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	if int32(a) == math.MinInt32 && int32(b) == -1 {
		return a
	}
	return uint32(int32(a) / int32(b))
}

func divu32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	return a / b
}

func rem32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	if int32(a) == math.MinInt32 && int32(b) == -1 {
		return 0
	}
	return uint32(int32(a) % int32(b))
}

func remu32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}

// branchMask returns the active lanes on which conditional branch op is
// taken, for rows a (rs1) and b (rs2).
func branchMask(op isa.Op, a, b []uint32, tmask uint64) uint64 {
	switch op {
	case isa.BEQ:
		return laneMask(a, b, tmask, func(x, y uint32) bool { return x == y })
	case isa.BNE:
		return laneMask(a, b, tmask, func(x, y uint32) bool { return x != y })
	case isa.BLT:
		return laneMask(a, b, tmask, func(x, y uint32) bool { return int32(x) < int32(y) })
	case isa.BGE:
		return laneMask(a, b, tmask, func(x, y uint32) bool { return int32(x) >= int32(y) })
	case isa.BLTU:
		return laneMask(a, b, tmask, func(x, y uint32) bool { return x < y })
	case isa.BGEU:
		return laneMask(a, b, tmask, func(x, y uint32) bool { return x >= y })
	}
	panic("branchMask: bad op " + op.String())
}
