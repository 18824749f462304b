package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Integer register ABI names, x0..x31.
var intRegNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// IntRegName returns the ABI name of integer register r.
func IntRegName(r uint8) string {
	if r < 32 {
		return intRegNames[r]
	}
	return fmt.Sprintf("x%d", r)
}

// FloatRegName returns the name of float register r.
func FloatRegName(r uint8) string { return fmt.Sprintf("f%d", r) }

// IntRegByName resolves an integer register name (ABI, fp or xN) to its
// index. A blank between x and the number is allowed ("x 5" is x5); any
// other text after the number is not.
func IntRegByName(name string) (uint8, bool) {
	for i, n := range intRegNames {
		if n == name {
			return uint8(i), true
		}
	}
	if name == "fp" {
		return 8, true
	}
	if len(name) >= 2 && name[0] == 'x' {
		return regNum(strings.TrimLeft(name[1:], " \t"))
	}
	return 0, false
}

// floatABINames maps the standard F-extension ABI names to register indices.
var floatABINames = map[string]uint8{
	"ft0": 0, "ft1": 1, "ft2": 2, "ft3": 3, "ft4": 4, "ft5": 5, "ft6": 6, "ft7": 7,
	"fs0": 8, "fs1": 9,
	"fa0": 10, "fa1": 11, "fa2": 12, "fa3": 13, "fa4": 14, "fa5": 15, "fa6": 16, "fa7": 17,
	"fs2": 18, "fs3": 19, "fs4": 20, "fs5": 21, "fs6": 22, "fs7": 23,
	"fs8": 24, "fs9": 25, "fs10": 26, "fs11": 27,
	"ft8": 28, "ft9": 29, "ft10": 30, "ft11": 31,
}

// FloatRegByName resolves a float register name (fN or ABI ft/fs/fa names).
func FloatRegByName(name string) (uint8, bool) {
	if r, ok := floatABINames[name]; ok {
		return r, true
	}
	if len(name) >= 2 && name[0] == 'f' && name[1] >= '0' && name[1] <= '9' {
		return regNum(name[1:])
	}
	return 0, false
}

// regNum parses the decimal number of an xN or fN register name.
func regNum(s string) (uint8, bool) {
	n, err := strconv.Atoi(s)
	return uint8(n), err == nil && n >= 0 && n < 32
}

// Disasm renders a decoded instruction as assembler text: the mnemonic and
// the op's operands in signature order. pc is used to resolve branch and
// jump targets into absolute addresses.
func Disasm(in Inst, pc uint32) string {
	if in.Op == OpInvalid || in.Op >= opCount {
		return fmt.Sprintf("unknown(%d)", in.Op)
	}
	b := []byte(in.Op.String())
	for i, a := range specs[in.Op].args {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch a {
		case XRd, XRs1, XRs2:
			b = append(b, IntRegName(*in.RegField(a))...)
		case FRd, FRs1, FRs2, FRs3:
			b = append(b, FloatRegName(*in.RegField(a))...)
		case Imm12, Shamt:
			b = strconv.AppendInt(b, int64(in.Imm), 10)
		case Zimm:
			b = strconv.AppendInt(b, int64(in.Rs1), 10)
		case Mem, StoreMem:
			b = fmt.Appendf(b, "%d(%s)", in.Imm, IntRegName(in.Rs1))
		case BranchTarget, JumpTarget:
			b = fmt.Appendf(b, "%#x", pc+uint32(in.Imm))
		case Upper20:
			b = fmt.Appendf(b, "%#x", uint32(in.Imm)>>12)
		case CSRAddr:
			if name := CSRName(in.CSR); name != "" {
				b = append(b, name...)
			} else {
				b = fmt.Appendf(b, "%#x", in.CSR)
			}
		}
	}
	return string(b)
}
