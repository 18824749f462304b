package isa

import (
	"fmt"
	"math/bits"
)

// Encode packs a decoded instruction into its 32-bit machine word: the op's
// match bits or'ed with the fields its operands name. Fields the op has no
// operand for are ignored. It validates register indices and immediate
// ranges, returning an error for values that do not fit.
func Encode(in Inst) (uint32, error) {
	if in.Op == OpInvalid || in.Op >= opCount {
		return 0, fmt.Errorf("isa: encode: invalid op %d", in.Op)
	}
	if in.Rd > 31 || in.Rs1 > 31 || in.Rs2 > 31 || in.Rs3 > 31 {
		return 0, fmt.Errorf("isa: encode %s: register index out of range", in.Op)
	}
	w := specs[in.Op].match
	imm := uint32(in.Imm)
	for _, a := range specs[in.Op].args {
		switch a {
		case XRd, FRd, XRs1, FRs1, XRs2, FRs2, FRs3, Zimm:
			w |= uint32(*in.RegField(a)) << regShift(a)
		case Imm12, Mem, StoreMem:
			if in.Imm < -2048 || in.Imm > 2047 {
				return 0, fmt.Errorf("isa: encode %s: immediate %d out of range", in.Op, in.Imm)
			}
			if a == StoreMem {
				w |= imm&0x1F<<7 | imm>>5<<25
			} else {
				w |= imm << 20
			}
			if a != Imm12 { // the base register of offset(rs1)
				w |= uint32(in.Rs1) << 15
			}
		case Shamt:
			if in.Imm < 0 || in.Imm > 31 {
				return 0, fmt.Errorf("isa: encode %s: shift amount %d out of range", in.Op, in.Imm)
			}
			w |= imm << 20
		case BranchTarget:
			if in.Imm < -4096 || in.Imm > 4095 || in.Imm&1 != 0 {
				return 0, fmt.Errorf("isa: encode %s: branch offset %d invalid", in.Op, in.Imm)
			}
			w |= imm>>11&1<<7 | imm>>1&0xF<<8 | imm>>5&0x3F<<25 | imm>>12&1<<31
		case JumpTarget:
			if in.Imm < -(1<<20) || in.Imm >= 1<<20 || in.Imm&1 != 0 {
				return 0, fmt.Errorf("isa: encode %s: jump offset %d invalid", in.Op, in.Imm)
			}
			w |= imm>>12&0xFF<<12 | imm>>11&1<<20 | imm>>1&0x3FF<<21 | imm>>20&1<<31
		case Upper20:
			if imm&0xFFF != 0 {
				return 0, fmt.Errorf("isa: encode %s: immediate %#x has low bits set", in.Op, in.Imm)
			}
			w |= imm
		case CSRAddr:
			if in.CSR > 0xFFF {
				return 0, fmt.Errorf("isa: encode %s: csr %#x out of range", in.Op, in.CSR)
			}
			w |= uint32(in.CSR) << 20
		}
	}
	return w, nil
}

// regShift is the bit position of the 5-bit field a register operand (or a
// zimm) occupies.
func regShift(a Arg) uint {
	return uint(bits.TrailingZeros32(argBits[a]))
}

// Decode unpacks a 32-bit machine word into a decoded instruction. It picks
// the op, among those sharing the word's major opcode, whose match equals the
// word's non-operand bits, and fills only the fields the op's operands name.
// Decode accepts exactly the words Encode produces: a word with a non-zero
// bit outside the op's operand fields (a rounding mode, an fmt, an unused rs2)
// is refused.
func Decode(w uint32) (Inst, error) {
	for _, op := range byOpcode[w&0x7F] {
		if w&masks[op] != specs[op].match {
			continue
		}
		in := Inst{Op: op}
		for _, a := range specs[op].args {
			switch a {
			case XRd, FRd, XRs1, FRs1, XRs2, FRs2, FRs3, Zimm:
				*in.RegField(a) = uint8(w >> regShift(a) & 0x1F)
			case Imm12:
				in.Imm = int32(w) >> 20
			case Mem:
				in.Imm, in.Rs1 = int32(w)>>20, uint8(w>>15&0x1F)
			case StoreMem:
				in.Imm, in.Rs1 = int32(w)>>25<<5|int32(w>>7&0x1F), uint8(w>>15&0x1F)
			case Shamt:
				in.Imm = int32(w >> 20 & 0x1F)
			case BranchTarget: // imm[12|10:5|4:1|11]
				in.Imm = int32(w)>>31<<12 | int32(w>>7&1)<<11 | int32(w>>25&0x3F)<<5 | int32(w>>8&0xF)<<1
			case JumpTarget: // imm[20|10:1|11|19:12]
				in.Imm = int32(w)>>31<<20 | int32(w>>12&0xFF)<<12 | int32(w>>20&1)<<11 | int32(w>>21&0x3FF)<<1
			case Upper20:
				in.Imm = int32(w & 0xFFFFF000)
			case CSRAddr: // Imm mirrors the address
				in.CSR, in.Imm = uint16(w>>20), int32(w>>20)
			}
		}
		return in, nil
	}
	return Inst{}, fmt.Errorf("isa: decode: unsupported instruction %#08x", w)
}
