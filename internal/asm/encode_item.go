package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// pseudo rewrites a pseudo-instruction onto a real op: the real mnemonic
// and its operands, in which $N stands for the written operand N.
type pseudo struct {
	op   string
	args []string
	n    int // operands the pseudo-instruction takes (derived from args)
}

// pseudos are the pseudo-instructions besides li and la. jal and jalr are
// real ops as well; they are pseudo-instructions only with one operand.
var pseudos = map[string]pseudo{
	"nop":    {op: "addi", args: []string{"zero", "zero", "0"}},
	"mv":     {op: "addi", args: []string{"$0", "$1", "0"}},
	"not":    {op: "xori", args: []string{"$0", "$1", "-1"}},
	"neg":    {op: "sub", args: []string{"$0", "zero", "$1"}},
	"seqz":   {op: "sltiu", args: []string{"$0", "$1", "1"}},
	"snez":   {op: "sltu", args: []string{"$0", "zero", "$1"}},
	"j":      {op: "jal", args: []string{"zero", "$0"}},
	"call":   {op: "jal", args: []string{"ra", "$0"}},
	"jal":    {op: "jal", args: []string{"ra", "$0"}},
	"jr":     {op: "jalr", args: []string{"zero", "0($0)"}},
	"jalr":   {op: "jalr", args: []string{"ra", "0($0)"}},
	"ret":    {op: "jalr", args: []string{"zero", "0(ra)"}},
	"beqz":   {op: "beq", args: []string{"$0", "zero", "$1"}},
	"bnez":   {op: "bne", args: []string{"$0", "zero", "$1"}},
	"bltz":   {op: "blt", args: []string{"$0", "zero", "$1"}},
	"bgez":   {op: "bge", args: []string{"$0", "zero", "$1"}},
	"blez":   {op: "bge", args: []string{"zero", "$0", "$1"}},
	"bgtz":   {op: "blt", args: []string{"zero", "$0", "$1"}},
	"bgt":    {op: "blt", args: []string{"$1", "$0", "$2"}},
	"ble":    {op: "bge", args: []string{"$1", "$0", "$2"}},
	"bgtu":   {op: "bltu", args: []string{"$1", "$0", "$2"}},
	"bleu":   {op: "bgeu", args: []string{"$1", "$0", "$2"}},
	"fmv.s":  {op: "fsgnj.s", args: []string{"$0", "$1", "$1"}},
	"fneg.s": {op: "fsgnjn.s", args: []string{"$0", "$1", "$1"}},
	"fabs.s": {op: "fsgnjx.s", args: []string{"$0", "$1", "$1"}},
	"csrr":   {op: "csrrs", args: []string{"$0", "$1", "zero"}},
	"csrw":   {op: "csrrw", args: []string{"zero", "$0", "$1"}},
}

func init() {
	for name, p := range pseudos {
		for _, t := range p.args {
			if i := strings.IndexByte(t, '$'); i >= 0 {
				p.n = max(p.n, int(t[i+1]-'0')+1)
			}
		}
		pseudos[name] = p
	}
}

// encodeItem appends the machine words of one parsed statement to dst.
func (a *assembler) encodeItem(it *item, dst []uint32) ([]uint32, error) {
	switch it.op {
	case ".word":
		for _, arg := range it.args {
			v, err := a.evalImm(it, arg)
			if err != nil {
				return nil, err
			}
			dst = append(dst, uint32(v))
		}
		return dst, nil

	case ".space", ".align":
		return append(dst, make([]uint32, it.nwords)...), nil

	case ".byte", ".half":
		size := 1
		if it.op == ".half" {
			size = 2
		}
		var bytes []byte
		for _, arg := range it.args {
			v, err := a.evalImm(it, arg)
			if err != nil {
				return nil, err
			}
			if v < -1<<(8*size-1) || v >= 1<<(8*size) {
				return nil, a.errf(it.line, "%s value %d out of range", it.op, v)
			}
			for k := 0; k < size; k++ {
				bytes = append(bytes, byte(v>>(8*k)))
			}
		}
		return appendBytes(dst, bytes), nil

	case ".ascii", ".asciz":
		str, err := parseStringLit(it.args[0])
		if err != nil {
			return nil, a.errf(it.line, "%s: %v", it.op, err)
		}
		bytes := []byte(str)
		if it.op == ".asciz" {
			bytes = append(bytes, 0)
		}
		return appendBytes(dst, bytes), nil

	case "li", "la":
		rd, err := a.intReg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		v, err := a.evalImm(it, it.args[1])
		if err != nil {
			return nil, err
		}
		v32, n, ok := liValue(v)
		if !ok {
			return nil, a.errf(it.line, "%s value %d out of 32-bit range", it.op, v)
		}
		if n > it.nwords {
			return nil, a.errf(it.line, "internal: li value %d changed between passes", v32)
		}
		ins := liInsts(rd, v32, it.nwords)
		return a.enc(dst, it, ins[:it.nwords]...)
	}

	in, err := a.parseInst(it)
	if err != nil {
		return nil, err
	}
	return a.enc(dst, it, in)
}

// liValue returns the 32 bits `li` loads for v, how many words it takes
// when v is known at layout (one addi when those bits sign-extend from 12,
// else lui+addi) and whether v lies in li's range [-2^31, 2^32-1].
func liValue(v int64) (v32 int32, n int, ok bool) {
	v32, n = int32(v), 1
	if v32 < -2048 || v32 > 2047 {
		n = 2
	}
	return v32, n, v >= -(1<<31) && v <= (1<<32)-1
}

// liInsts expands `li rd, v32` into n instructions: addi for n = 1 (v32
// must sign-extend from 12 bits), lui+addi for n = 2.
func liInsts(rd uint8, v32 int32, n int) [2]isa.Inst {
	if n == 1 {
		return [2]isa.Inst{{Op: isa.ADDI, Rd: rd, Imm: v32}}
	}
	u := uint32(v32)
	hi := (u + 0x800) & 0xFFFFF000 // compensates for the sign extension of the 12-bit lo
	return [2]isa.Inst{{Op: isa.LUI, Rd: rd, Imm: int32(hi)}, {Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: int32(u - hi)}}
}

// parseInst parses one instruction: a pseudo-instruction is first rewritten
// onto its real op, then each operand is parsed as the op's signature says.
func (a *assembler) parseInst(it *item) (isa.Inst, error) {
	name, args := it.op, it.args
	var buf [4]string
	if p, ok := pseudos[name]; ok && (len(args) == p.n || p.op != name) {
		if len(args) != p.n {
			return isa.Inst{}, a.errf(it.line, "%s needs %d operands, got %d", it.op, p.n, len(args))
		}
		for i, t := range p.args {
			if j := strings.IndexByte(t, '$'); j >= 0 {
				t = t[:j] + args[t[j+1]-'0'] + t[j+2:]
			}
			buf[i] = t
		}
		name, args = p.op, buf[:len(p.args)]
	}
	op, ok := isa.OpByName(name)
	if !ok {
		return isa.Inst{}, a.errf(it.line, "unknown mnemonic %q", it.op)
	}
	sig := op.Args()
	if len(args) != len(sig) {
		return isa.Inst{}, a.errf(it.line, "%s needs %d operands, got %d", it.op, len(sig), len(args))
	}
	in := isa.Inst{Op: op}
	for i, k := range sig {
		var err error
		var v int64
		switch s := args[i]; k {
		case isa.XRd, isa.XRs1, isa.XRs2:
			*in.RegField(k), err = a.intReg(it, s)
		case isa.FRd, isa.FRs1, isa.FRs2, isa.FRs3:
			*in.RegField(k), err = a.floatReg(it, s)
		case isa.Imm12, isa.Shamt:
			v, err = a.evalImm(it, s)
			in.Imm = int32(v) // Encode range-checks the 32-bit value
		case isa.Mem, isa.StoreMem:
			in.Imm, in.Rs1, err = a.parseMem(it, s)
		case isa.BranchTarget:
			in.Imm, err = a.pcOffset(it, s, 13, "branch")
		case isa.JumpTarget:
			in.Imm, err = a.pcOffset(it, s, 21, "jump")
		case isa.Upper20:
			if v, err = a.evalImm(it, s); err == nil && (v < 0 || v > 0xFFFFF) {
				err = a.errf(it.line, "%s immediate %d out of 20-bit range", it.op, v)
			}
			in.Imm = int32(v) << 12
		case isa.CSRAddr:
			in.CSR, err = a.csrNum(it, s)
		case isa.Zimm:
			if v, err = a.evalImm(it, s); err == nil && (v < 0 || v > 31) {
				err = a.errf(it.line, "csr immediate %d out of range", v)
			}
			in.Rs1 = uint8(v)
		}
		if err != nil {
			return isa.Inst{}, err
		}
	}
	return in, nil
}

// appendBytes appends little-endian bytes to dst as words, zero-padding
// the tail.
func appendBytes(dst []uint32, b []byte) []uint32 {
	start := len(dst)
	dst = append(dst, make([]uint32, (len(b)+3)/4)...)
	for i, v := range b {
		dst[start+i/4] |= uint32(v) << uint(8*(i%4))
	}
	return dst
}

// parseStringLit parses a double-quoted string with \n, \t, \0, \\ and
// \" escapes.
func parseStringLit(s string) (string, error) {
	const escapes, values = "nt0\\\"", "\n\t\x00\\\""
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("want a double-quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling escape in %q", s)
		}
		k := strings.IndexByte(escapes, body[i])
		if k < 0 {
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
		b.WriteByte(values[k])
	}
	return b.String(), nil
}

// csrNum resolves a CSR operand: a known name or a numeric expression.
func (a *assembler) csrNum(it *item, s string) (uint16, error) {
	s = strings.TrimSpace(s)
	if csr, ok := isa.CSRByName(s); ok {
		return csr, nil
	}
	v, err := a.evalImm(it, s)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 0xFFF {
		return 0, a.errf(it.line, "csr number %d out of range", v)
	}
	return uint16(v), nil
}

// pcOffset resolves a branch or jump target (label or expression) into a
// pc-relative offset, which must be even and fit in bits signed bits.
func (a *assembler) pcOffset(it *item, s string, bits uint, what string) (int32, error) {
	target, err := a.evalImm(it, s)
	if err != nil {
		return 0, err
	}
	off := target - int64(it.pc)
	if off < -1<<(bits-1) || off >= 1<<(bits-1) || off%2 != 0 {
		return 0, a.errf(it.line, "%s target out of range (offset %d)", what, off)
	}
	return int32(off), nil
}

// Disassemble renders a program listing with addresses and tags, mainly for
// debugging and the vortex asm command.
func Disassemble(p *Program) string {
	var b strings.Builder
	lastTag := ""
	for i, w := range p.Words {
		pc := p.Base + uint32(i)*4
		if tag := p.TagAt(pc); tag != lastTag && tag != "" {
			fmt.Fprintf(&b, "# section: %s\n", tag)
			lastTag = tag
		}
		in := p.Insts[i]
		if in.Op == isa.OpInvalid {
			fmt.Fprintf(&b, "%08x: %08x  .word %#x\n", pc, w, w)
			continue
		}
		fmt.Fprintf(&b, "%08x: %08x  %s\n", pc, w, isa.Disasm(in, pc))
	}
	return b.String()
}
