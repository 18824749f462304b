// Package isa defines the instruction set simulated by this project: the
// RV32I base integer ISA, the M (integer multiply/divide) and F
// (single-precision floating point) extensions, and the Vortex SIMT
// extension occupying the custom-0 opcode space (thread-mask control, warp
// spawn, divergence split/join, barriers, and a ballot/vote reduction).
//
// Instructions are represented two ways: as a 32-bit machine word using the
// standard RISC-V R/I/S/B/U/J/R4 formats, and as a decoded Inst value that
// the simulator executes directly. Each op is declared once, as one row of
// the specs table: its mnemonic, the bits that identify it, and its operand
// signature. Encode, Decode, Disasm, the register predicates and the
// assembler (internal/asm) are all derived from that row. Decode accepts
// exactly the words Encode produces.
package isa

import "fmt"

// Op identifies an instruction mnemonic.
type Op uint8

// Base RV32I, M, F and Vortex custom operations.
const (
	// OpInvalid is the zero Op; decoding a malformed word yields it.
	OpInvalid Op = iota

	// RV32I
	LUI
	AUIPC
	JAL
	JALR
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	LB
	LH
	LW
	LBU
	LHU
	SB
	SH
	SW
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	FENCE
	ECALL
	EBREAK
	CSRRW
	CSRRS
	CSRRC
	CSRRWI
	CSRRSI
	CSRRCI

	// RV32M
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU

	// RV32F
	FLW
	FSW
	FADDS
	FSUBS
	FMULS
	FDIVS
	FSQRTS
	FSGNJS
	FSGNJNS
	FSGNJXS
	FMINS
	FMAXS
	FCVTWS
	FCVTWUS
	FCVTSW
	FCVTSWU
	FMVXW
	FMVWX
	FEQS
	FLTS
	FLES
	FCLASSS
	FMADDS
	FMSUBS
	FNMSUBS
	FNMADDS

	// Vortex SIMT extension (custom-0 opcode space).

	// VXTMC sets the warp's thread mask to the low Threads bits of rs1
	// (read from lane 0). A zero mask halts the warp.
	VXTMC
	// VXWSPAWN activates rs1 (lane 0) warps on the current core, each
	// starting at the address in rs2 with only thread 0 enabled.
	VXWSPAWN
	// VXSPLIT pushes IPDOM state for per-thread predicate rs1: the warp
	// continues with the rs1!=0 lanes; the complementary lanes are
	// re-activated at the next VXJOIN.
	VXSPLIT
	// VXJOIN pops one IPDOM entry (switching to the else-path lanes or
	// restoring the pre-split mask).
	VXJOIN
	// VXBAR blocks the warp on barrier id rs1 (lane 0) until rs2 (lane 0)
	// warps of the core have arrived.
	VXBAR
	// VXPRED ands the thread mask with the per-thread predicate rs1; if
	// the result would be zero the mask is left unchanged.
	VXPRED
	// VXBALLOT writes, to every active lane's rd, the number of active
	// lanes whose rs1 is non-zero. It is the uniform reduction used to
	// exit divergent loops (a vote.any/popcount in Vortex 2.x terms).
	VXBALLOT

	opCount
)

// Major opcode values (bits [6:0] of the instruction word).
const (
	opcLOAD    = 0x03
	opcLOADFP  = 0x07
	opcCUSTOM0 = 0x0B
	opcMISCMEM = 0x0F
	opcOPIMM   = 0x13
	opcAUIPC   = 0x17
	opcSTORE   = 0x23
	opcSTOREFP = 0x27
	opcOP      = 0x33
	opcLUI     = 0x37
	opcFMADD   = 0x43
	opcFMSUB   = 0x47
	opcFNMSUB  = 0x4B
	opcFNMADD  = 0x4F
	opcOPFP    = 0x53
	opcBRANCH  = 0x63
	opcJALR    = 0x67
	opcJAL     = 0x6F
	opcSYSTEM  = 0x73
)

// Arg is one operand of an op's signature: the instruction field it fills
// and, for a register, which register file it names. The signature lists an
// op's operands in assembler order.
type Arg uint8

const (
	_            Arg = iota // no operand
	XRd                     // rd, integer register
	FRd                     // rd, float register
	XRs1                    // rs1, integer register
	FRs1                    // rs1, float register
	XRs2                    // rs2, integer register
	FRs2                    // rs2, float register
	FRs3                    // rs3 (fused multiply-add), float register
	Imm12                   // signed 12-bit immediate, bits [31:20]
	Shamt                   // 5-bit shift amount, bits [24:20]
	Mem                     // offset(rs1): I-format offset and integer base (loads, jalr)
	StoreMem                // offset(rs1): S-format offset and integer base (stores)
	BranchTarget            // B-format pc-relative offset, written as the target address
	JumpTarget              // J-format pc-relative offset, written as the target address
	Upper20                 // 20-bit upper immediate, bits [31:12]
	CSRAddr                 // 12-bit CSR address, bits [31:20]
	Zimm                    // 5-bit unsigned immediate in the rs1 field
	argCount
)

// argBits are the instruction-word bits each operand occupies.
var argBits = [argCount]uint32{
	XRd: 0x1F << 7, FRd: 0x1F << 7,
	XRs1: 0x1F << 15, FRs1: 0x1F << 15, Zimm: 0x1F << 15,
	XRs2: 0x1F << 20, FRs2: 0x1F << 20, Shamt: 0x1F << 20,
	FRs3:         0x1F << 27,
	Imm12:        0xFFF << 20,
	CSRAddr:      0xFFF << 20,
	Mem:          0xFFF<<20 | 0x1F<<15,
	StoreMem:     0xFE000F80 | 0x1F<<15,
	BranchTarget: 0xFE000F80,
	JumpTarget:   0xFFFFF000,
	Upper20:      0xFFFFF000,
}

// Predicate bits, derived from an op's operands.
const (
	writesInt uint16 = 1 << iota
	writesFloat
	readsIntRs1
	readsIntRs2
	readsFloatRs1
	readsFloatRs2
	readsFloatRs3
	float
	loads
	stores
)

var argFlags = [argCount]uint16{
	XRd: writesInt, FRd: writesFloat | float,
	XRs1: readsIntRs1, FRs1: readsFloatRs1 | float,
	XRs2: readsIntRs2, FRs2: readsFloatRs2 | float,
	FRs3: readsFloatRs3 | float,
	Mem:  readsIntRs1, StoreMem: readsIntRs1 | stores,
}

// spec is one op's row: its mnemonic, the bits that identify it, and its
// operand signature. The match has no bit inside an operand field.
type spec struct {
	name  string
	match uint32
	args  []Arg
}

// enc places an op's fixed fields: major opcode, funct3 and funct7 (the
// funct2/fmt bits of the fused multiply-adds are zero).
func enc(opcode, funct3, funct7 uint32) uint32 { return opcode | funct3<<12 | funct7<<25 }

func sig(args ...Arg) []Arg { return args }

var specs = [opCount]spec{
	LUI:    {"lui", opcLUI, sig(XRd, Upper20)},
	AUIPC:  {"auipc", opcAUIPC, sig(XRd, Upper20)},
	JAL:    {"jal", opcJAL, sig(XRd, JumpTarget)},
	JALR:   {"jalr", opcJALR, sig(XRd, Mem)},
	BEQ:    {"beq", enc(opcBRANCH, 0, 0), sig(XRs1, XRs2, BranchTarget)},
	BNE:    {"bne", enc(opcBRANCH, 1, 0), sig(XRs1, XRs2, BranchTarget)},
	BLT:    {"blt", enc(opcBRANCH, 4, 0), sig(XRs1, XRs2, BranchTarget)},
	BGE:    {"bge", enc(opcBRANCH, 5, 0), sig(XRs1, XRs2, BranchTarget)},
	BLTU:   {"bltu", enc(opcBRANCH, 6, 0), sig(XRs1, XRs2, BranchTarget)},
	BGEU:   {"bgeu", enc(opcBRANCH, 7, 0), sig(XRs1, XRs2, BranchTarget)},
	LB:     {"lb", enc(opcLOAD, 0, 0), sig(XRd, Mem)},
	LH:     {"lh", enc(opcLOAD, 1, 0), sig(XRd, Mem)},
	LW:     {"lw", enc(opcLOAD, 2, 0), sig(XRd, Mem)},
	LBU:    {"lbu", enc(opcLOAD, 4, 0), sig(XRd, Mem)},
	LHU:    {"lhu", enc(opcLOAD, 5, 0), sig(XRd, Mem)},
	SB:     {"sb", enc(opcSTORE, 0, 0), sig(XRs2, StoreMem)},
	SH:     {"sh", enc(opcSTORE, 1, 0), sig(XRs2, StoreMem)},
	SW:     {"sw", enc(opcSTORE, 2, 0), sig(XRs2, StoreMem)},
	ADDI:   {"addi", enc(opcOPIMM, 0, 0), sig(XRd, XRs1, Imm12)},
	SLTI:   {"slti", enc(opcOPIMM, 2, 0), sig(XRd, XRs1, Imm12)},
	SLTIU:  {"sltiu", enc(opcOPIMM, 3, 0), sig(XRd, XRs1, Imm12)},
	XORI:   {"xori", enc(opcOPIMM, 4, 0), sig(XRd, XRs1, Imm12)},
	ORI:    {"ori", enc(opcOPIMM, 6, 0), sig(XRd, XRs1, Imm12)},
	ANDI:   {"andi", enc(opcOPIMM, 7, 0), sig(XRd, XRs1, Imm12)},
	SLLI:   {"slli", enc(opcOPIMM, 1, 0x00), sig(XRd, XRs1, Shamt)},
	SRLI:   {"srli", enc(opcOPIMM, 5, 0x00), sig(XRd, XRs1, Shamt)},
	SRAI:   {"srai", enc(opcOPIMM, 5, 0x20), sig(XRd, XRs1, Shamt)},
	ADD:    {"add", enc(opcOP, 0, 0x00), sig(XRd, XRs1, XRs2)},
	SUB:    {"sub", enc(opcOP, 0, 0x20), sig(XRd, XRs1, XRs2)},
	SLL:    {"sll", enc(opcOP, 1, 0x00), sig(XRd, XRs1, XRs2)},
	SLT:    {"slt", enc(opcOP, 2, 0x00), sig(XRd, XRs1, XRs2)},
	SLTU:   {"sltu", enc(opcOP, 3, 0x00), sig(XRd, XRs1, XRs2)},
	XOR:    {"xor", enc(opcOP, 4, 0x00), sig(XRd, XRs1, XRs2)},
	SRL:    {"srl", enc(opcOP, 5, 0x00), sig(XRd, XRs1, XRs2)},
	SRA:    {"sra", enc(opcOP, 5, 0x20), sig(XRd, XRs1, XRs2)},
	OR:     {"or", enc(opcOP, 6, 0x00), sig(XRd, XRs1, XRs2)},
	AND:    {"and", enc(opcOP, 7, 0x00), sig(XRd, XRs1, XRs2)},
	FENCE:  {"fence", opcMISCMEM, nil},
	ECALL:  {"ecall", opcSYSTEM, nil},
	EBREAK: {"ebreak", opcSYSTEM | 1<<20, nil},
	CSRRW:  {"csrrw", enc(opcSYSTEM, 1, 0), sig(XRd, CSRAddr, XRs1)},
	CSRRS:  {"csrrs", enc(opcSYSTEM, 2, 0), sig(XRd, CSRAddr, XRs1)},
	CSRRC:  {"csrrc", enc(opcSYSTEM, 3, 0), sig(XRd, CSRAddr, XRs1)},
	CSRRWI: {"csrrwi", enc(opcSYSTEM, 5, 0), sig(XRd, CSRAddr, Zimm)},
	CSRRSI: {"csrrsi", enc(opcSYSTEM, 6, 0), sig(XRd, CSRAddr, Zimm)},
	CSRRCI: {"csrrci", enc(opcSYSTEM, 7, 0), sig(XRd, CSRAddr, Zimm)},

	MUL:    {"mul", enc(opcOP, 0, 0x01), sig(XRd, XRs1, XRs2)},
	MULH:   {"mulh", enc(opcOP, 1, 0x01), sig(XRd, XRs1, XRs2)},
	MULHSU: {"mulhsu", enc(opcOP, 2, 0x01), sig(XRd, XRs1, XRs2)},
	MULHU:  {"mulhu", enc(opcOP, 3, 0x01), sig(XRd, XRs1, XRs2)},
	DIV:    {"div", enc(opcOP, 4, 0x01), sig(XRd, XRs1, XRs2)},
	DIVU:   {"divu", enc(opcOP, 5, 0x01), sig(XRd, XRs1, XRs2)},
	REM:    {"rem", enc(opcOP, 6, 0x01), sig(XRd, XRs1, XRs2)},
	REMU:   {"remu", enc(opcOP, 7, 0x01), sig(XRd, XRs1, XRs2)},

	// FP arithmetic encodes rounding mode 0 (RNE), the only one modelled;
	// in fcvt/fsqrt/fmv/fclass the rs2 field is a sub-opcode.
	FLW:     {"flw", enc(opcLOADFP, 2, 0), sig(FRd, Mem)},
	FSW:     {"fsw", enc(opcSTOREFP, 2, 0), sig(FRs2, StoreMem)},
	FADDS:   {"fadd.s", enc(opcOPFP, 0, 0x00), sig(FRd, FRs1, FRs2)},
	FSUBS:   {"fsub.s", enc(opcOPFP, 0, 0x04), sig(FRd, FRs1, FRs2)},
	FMULS:   {"fmul.s", enc(opcOPFP, 0, 0x08), sig(FRd, FRs1, FRs2)},
	FDIVS:   {"fdiv.s", enc(opcOPFP, 0, 0x0C), sig(FRd, FRs1, FRs2)},
	FSQRTS:  {"fsqrt.s", enc(opcOPFP, 0, 0x2C), sig(FRd, FRs1)},
	FSGNJS:  {"fsgnj.s", enc(opcOPFP, 0, 0x10), sig(FRd, FRs1, FRs2)},
	FSGNJNS: {"fsgnjn.s", enc(opcOPFP, 1, 0x10), sig(FRd, FRs1, FRs2)},
	FSGNJXS: {"fsgnjx.s", enc(opcOPFP, 2, 0x10), sig(FRd, FRs1, FRs2)},
	FMINS:   {"fmin.s", enc(opcOPFP, 0, 0x14), sig(FRd, FRs1, FRs2)},
	FMAXS:   {"fmax.s", enc(opcOPFP, 1, 0x14), sig(FRd, FRs1, FRs2)},
	FCVTWS:  {"fcvt.w.s", enc(opcOPFP, 0, 0x60), sig(XRd, FRs1)},
	FCVTWUS: {"fcvt.wu.s", enc(opcOPFP, 0, 0x60) | 1<<20, sig(XRd, FRs1)},
	FCVTSW:  {"fcvt.s.w", enc(opcOPFP, 0, 0x68), sig(FRd, XRs1)},
	FCVTSWU: {"fcvt.s.wu", enc(opcOPFP, 0, 0x68) | 1<<20, sig(FRd, XRs1)},
	FMVXW:   {"fmv.x.w", enc(opcOPFP, 0, 0x70), sig(XRd, FRs1)},
	FMVWX:   {"fmv.w.x", enc(opcOPFP, 0, 0x78), sig(FRd, XRs1)},
	FEQS:    {"feq.s", enc(opcOPFP, 2, 0x50), sig(XRd, FRs1, FRs2)},
	FLTS:    {"flt.s", enc(opcOPFP, 1, 0x50), sig(XRd, FRs1, FRs2)},
	FLES:    {"fle.s", enc(opcOPFP, 0, 0x50), sig(XRd, FRs1, FRs2)},
	FCLASSS: {"fclass.s", enc(opcOPFP, 1, 0x70), sig(XRd, FRs1)},
	FMADDS:  {"fmadd.s", opcFMADD, sig(FRd, FRs1, FRs2, FRs3)},
	FMSUBS:  {"fmsub.s", opcFMSUB, sig(FRd, FRs1, FRs2, FRs3)},
	FNMSUBS: {"fnmsub.s", opcFNMSUB, sig(FRd, FRs1, FRs2, FRs3)},
	FNMADDS: {"fnmadd.s", opcFNMADD, sig(FRd, FRs1, FRs2, FRs3)},

	VXTMC:    {"vx_tmc", enc(opcCUSTOM0, 0, 0x00), sig(XRs1)},
	VXWSPAWN: {"vx_wspawn", enc(opcCUSTOM0, 0, 0x01), sig(XRs1, XRs2)},
	VXSPLIT:  {"vx_split", enc(opcCUSTOM0, 0, 0x02), sig(XRs1)},
	VXJOIN:   {"vx_join", enc(opcCUSTOM0, 0, 0x03), nil},
	VXBAR:    {"vx_bar", enc(opcCUSTOM0, 0, 0x04), sig(XRs1, XRs2)},
	VXPRED:   {"vx_pred", enc(opcCUSTOM0, 0, 0x05), sig(XRs1)},
	VXBALLOT: {"vx_ballot", enc(opcCUSTOM0, 0, 0x06), sig(XRd, XRs1)},
}

// Derived from specs by init.
var (
	// masks[op] covers every bit no operand of op occupies: a word w is op
	// exactly when w&masks[op] == specs[op].match.
	masks    [opCount]uint32
	flags    [opCount]uint16
	byName   = map[string]Op{}
	byOpcode [128][]Op // candidate ops per major opcode, for Decode
)

func init() {
	for op := Op(1); op < opCount; op++ {
		s := &specs[op]
		masks[op] = ^uint32(0)
		for _, a := range s.args {
			masks[op] &^= argBits[a]
			flags[op] |= argFlags[a]
		}
		opc := s.match & 0x7F
		if opc == opcLOAD || opc == opcLOADFP {
			flags[op] |= loads
		}
		byName[s.name] = op
		byOpcode[opc] = append(byOpcode[opc], op)
	}
}

// String returns the assembler mnemonic for the op.
func (o Op) String() string {
	if o > OpInvalid && o < opCount {
		return specs[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Args returns the op's operand signature in assembler order. The slice is
// shared and must not be modified.
func (o Op) Args() []Arg {
	if o < opCount {
		return specs[o].args
	}
	return nil
}

// OpByName resolves an assembler mnemonic of a real (not pseudo) op.
func OpByName(name string) (Op, bool) {
	op, ok := byName[name]
	return op, ok
}

// Ops returns every defined operation, in declaration order.
func Ops() []Op {
	out := make([]Op, 0, int(opCount)-1)
	for o := Op(1); o < opCount; o++ {
		out = append(out, o)
	}
	return out
}

// Inst is a decoded instruction. Rd/Rs1/Rs2/Rs3 index the integer register
// file for integer ops and the float register file for float ops (the Op
// determines which); Imm holds the sign-extended immediate, and CSR the
// 12-bit CSR address for system ops.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Rs3 uint8
	Imm int32
	CSR uint16
}

// RegField returns the 5-bit field operand a fills: Rd, Rs1, Rs2 or Rs3 for
// a register, Rs1 for a zimm, and nil for any other operand.
func (i *Inst) RegField(a Arg) *uint8 {
	switch a {
	case XRd, FRd:
		return &i.Rd
	case XRs1, FRs1, Zimm:
		return &i.Rs1
	case XRs2, FRs2:
		return &i.Rs2
	case FRs3:
		return &i.Rs3
	}
	return nil
}

func (i Inst) is(f uint16) bool { return i.Op < opCount && flags[i.Op]&f != 0 }

// IsLoad reports whether the op reads data memory.
func (i Inst) IsLoad() bool { return i.is(loads) }

// IsStore reports whether the op writes data memory.
func (i Inst) IsStore() bool { return i.is(stores) }

// IsMem reports whether the op accesses data memory.
func (i Inst) IsMem() bool { return i.is(loads | stores) }

// IsFloat reports whether the op belongs to the F extension.
func (i Inst) IsFloat() bool { return i.is(float) }

// WritesInt reports whether the op writes an integer destination register.
func (i Inst) WritesInt() bool { return i.is(writesInt) }

// WritesFloat reports whether the op writes a float destination register.
func (i Inst) WritesFloat() bool { return i.is(writesFloat) }

// ReadsIntRs1 reports whether rs1 is read from the integer register file.
func (i Inst) ReadsIntRs1() bool { return i.is(readsIntRs1) }

// ReadsIntRs2 reports whether rs2 is read from the integer register file.
func (i Inst) ReadsIntRs2() bool { return i.is(readsIntRs2) }

// ReadsFloatRs1 reports whether rs1 is read from the float register file.
func (i Inst) ReadsFloatRs1() bool { return i.is(readsFloatRs1) }

// ReadsFloatRs2 reports whether rs2 is read from the float register file.
func (i Inst) ReadsFloatRs2() bool { return i.is(readsFloatRs2) }

// ReadsFloatRs3 reports whether rs3 is read (fused multiply-add family).
func (i Inst) ReadsFloatRs3() bool { return i.is(readsFloatRs3) }
