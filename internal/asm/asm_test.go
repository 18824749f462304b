package asm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src, 0x1000, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestBasicArithmetic(t *testing.T) {
	p := assemble(t, `
		addi a0, zero, 5
		add  a1, a0, a0
		mul  a2, a1, a0
		sub  a3, a2, a1
	`)
	if len(p.Words) != 4 {
		t.Fatalf("got %d words, want 4", len(p.Words))
	}
	want := []isa.Inst{
		{Op: isa.ADDI, Rd: 10, Rs1: 0, Imm: 5},
		{Op: isa.ADD, Rd: 11, Rs1: 10, Rs2: 10},
		{Op: isa.MUL, Rd: 12, Rs1: 11, Rs2: 10},
		{Op: isa.SUB, Rd: 13, Rs1: 12, Rs2: 11},
	}
	for i, w := range want {
		if p.Insts[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, p.Insts[i], w)
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := assemble(t, `
	start:
		addi t0, zero, 10
	loop:
		addi t0, t0, -1
		bnez t0, loop
		beq  zero, zero, done
		nop
	done:
		ecall
	`)
	if got := p.Symbols["start"]; got != 0x1000 {
		t.Errorf("start = %#x", got)
	}
	if got := p.Symbols["loop"]; got != 0x1004 {
		t.Errorf("loop = %#x", got)
	}
	// bnez at 0x1008 targets 0x1004: offset -4.
	in := p.Insts[2]
	if in.Op != isa.BNE || in.Imm != -4 {
		t.Errorf("bnez = %+v", in)
	}
	// beq at 0x100c targets done at 0x1014: offset +8.
	in = p.Insts[3]
	if in.Op != isa.BEQ || in.Imm != 8 {
		t.Errorf("beq = %+v", in)
	}
}

func TestLiExpansion(t *testing.T) {
	p := assemble(t, `
		li a0, 42
		li a1, 0x12345678
		li a2, -1
		li a3, 0xFFFFF800
	`)
	// 42 and -1 fit 12 bits: 1 word each. 0x12345678 needs 2.
	// 0xFFFFF800 == -2048 as int32: 1 word.
	if len(p.Words) != 1+2+1+1 {
		t.Fatalf("got %d words, want 5: %s", len(p.Words), Disassemble(p))
	}
	if p.Insts[0].Op != isa.ADDI || p.Insts[0].Imm != 42 {
		t.Errorf("li 42 = %+v", p.Insts[0])
	}
	if p.Insts[1].Op != isa.LUI {
		t.Errorf("li big word 1 = %+v", p.Insts[1])
	}
	if p.Insts[2].Op != isa.ADDI {
		t.Errorf("li big word 2 = %+v", p.Insts[2])
	}
	// Check the lui+addi pair reconstructs the value.
	hi := uint32(p.Insts[1].Imm)
	lo := p.Insts[2].Imm
	if hi+uint32(lo) != 0x12345678 {
		t.Errorf("li reconstruction = %#x", hi+uint32(lo))
	}
	if p.Insts[4].Op != isa.ADDI || p.Insts[4].Imm != -2048 {
		t.Errorf("li 0xFFFFF800 = %+v", p.Insts[4])
	}
}

func TestLiWithLabelTakesTwoWords(t *testing.T) {
	p := assemble(t, `
		la a0, data
		ecall
	data:
		.word 7
	`)
	if len(p.Words) != 4 {
		t.Fatalf("got %d words, want 4", len(p.Words))
	}
	// data is at 0x100c; lui+addi must produce it.
	hi := uint32(p.Insts[0].Imm)
	lo := p.Insts[1].Imm
	if hi+uint32(lo) != p.Symbols["data"] {
		t.Errorf("la = %#x, want %#x", hi+uint32(lo), p.Symbols["data"])
	}
	if p.Words[3] != 7 {
		t.Errorf("data word = %d", p.Words[3])
	}
}

func TestDefinesAndExpressions(t *testing.T) {
	p, err := Assemble(`
		.equ STRIDE, NBUF*4
		li a0, BASE + STRIDE
		li a1, (1 << 4) | 3
		li a2, ~0 & 0xFF
		li a3, 100 / 3 % 7
	`, 0x1000, map[string]int64{"BASE": 0x2000, "NBUF": 8})
	if err != nil {
		t.Fatal(err)
	}
	insts := onlyInsts(p)
	// BASE+STRIDE = 0x2020 — needs lui+addi.
	if got := uint32(insts[0].Imm) + uint32(insts[1].Imm); got != 0x2020 {
		t.Errorf("a0 = %#x, want 0x2020", got)
	}
	if insts[2].Imm != 19 {
		t.Errorf("a1 = %d, want 19", insts[2].Imm)
	}
	if insts[3].Imm != 0xFF {
		t.Errorf("a2 = %d, want 255", insts[3].Imm)
	}
	if insts[4].Imm != 33%7 {
		t.Errorf("a3 = %d, want %d", insts[4].Imm, 33%7)
	}
}

func onlyInsts(p *Program) []isa.Inst { return p.Insts }

func TestMemoryOperands(t *testing.T) {
	p := assemble(t, `
		lw  a0, 8(sp)
		sw  a0, -4(s0)
		flw f1, 0(a0)
		fsw f1, 12(a1)
		lw  a2, (a3)
	`)
	want := []isa.Inst{
		{Op: isa.LW, Rd: 10, Rs1: 2, Imm: 8},
		{Op: isa.SW, Rs1: 8, Rs2: 10, Imm: -4},
		{Op: isa.FLW, Rd: 1, Rs1: 10, Imm: 0},
		{Op: isa.FSW, Rs1: 11, Rs2: 1, Imm: 12},
		{Op: isa.LW, Rd: 12, Rs1: 13, Imm: 0},
	}
	for i, w := range want {
		if p.Insts[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, p.Insts[i], w)
		}
	}
}

func TestFloatOps(t *testing.T) {
	p := assemble(t, `
		fadd.s  f0, f1, f2
		fmadd.s f3, f4, f5, f6
		fmv.s   f7, f8
		fneg.s  f9, f10
		flt.s   a0, f1, f2
		fcvt.s.w f1, a0
		fcvt.w.s a1, f1
		fsqrt.s f2, f3
	`)
	checks := []isa.Inst{
		{Op: isa.FADDS, Rd: 0, Rs1: 1, Rs2: 2},
		{Op: isa.FMADDS, Rd: 3, Rs1: 4, Rs2: 5, Rs3: 6},
		{Op: isa.FSGNJS, Rd: 7, Rs1: 8, Rs2: 8},
		{Op: isa.FSGNJNS, Rd: 9, Rs1: 10, Rs2: 10},
		{Op: isa.FLTS, Rd: 10, Rs1: 1, Rs2: 2},
		{Op: isa.FCVTSW, Rd: 1, Rs1: 10},
		{Op: isa.FCVTWS, Rd: 11, Rs1: 1},
		{Op: isa.FSQRTS, Rd: 2, Rs1: 3},
	}
	for i, w := range checks {
		if p.Insts[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, p.Insts[i], w)
		}
	}
}

func TestCSRAndVortexOps(t *testing.T) {
	p := assemble(t, `
		csrr a0, tid
		csrr a1, wid
		csrr a2, cid
		csrr a3, nt
		csrw 0x800, a0
		vx_tmc t0
		vx_wspawn t1, t2
		vx_split t3
		vx_join
		vx_bar t4, t5
		vx_pred t6
		vx_ballot a4, a5
	`)
	if p.Insts[0].Op != isa.CSRRS || p.Insts[0].CSR != isa.CSRThreadID {
		t.Errorf("csrr tid = %+v", p.Insts[0])
	}
	if p.Insts[4].Op != isa.CSRRW || p.Insts[4].CSR != 0x800 {
		t.Errorf("csrw = %+v", p.Insts[4])
	}
	wantOps := []isa.Op{
		isa.CSRRS, isa.CSRRS, isa.CSRRS, isa.CSRRS, isa.CSRRW,
		isa.VXTMC, isa.VXWSPAWN, isa.VXSPLIT, isa.VXJOIN, isa.VXBAR, isa.VXPRED, isa.VXBALLOT,
	}
	for i, op := range wantOps {
		if p.Insts[i].Op != op {
			t.Errorf("inst %d op = %s, want %s", i, p.Insts[i].Op, op)
		}
	}
}

func TestTags(t *testing.T) {
	p := assemble(t, `
	.tag init
		addi a0, zero, 1
		addi a1, zero, 2
	.tag body
		add a2, a0, a1
	.tag exit
		ecall
	`)
	cases := []struct {
		pc   uint32
		want string
	}{
		{0x1000, "init"},
		{0x1004, "init"},
		{0x1008, "body"},
		{0x100C, "exit"},
	}
	for _, c := range cases {
		if got := p.TagAt(c.pc); got != c.want {
			t.Errorf("TagAt(%#x) = %q, want %q", c.pc, got, c.want)
		}
	}
	if got := p.TagAt(0x2000); got != "" {
		t.Errorf("TagAt(out of range) = %q", got)
	}
}

func TestPseudoInstructions(t *testing.T) {
	p := assemble(t, `
		mv   a0, a1
		nop
		not  a2, a3
		neg  a4, a5
		seqz a6, a7
		snez s2, s3
		j    end
		jal  end
		jr   ra
		ret
	end:
		ecall
	`)
	want := []isa.Inst{
		{Op: isa.ADDI, Rd: 10, Rs1: 11},
		{Op: isa.ADDI},
		{Op: isa.XORI, Rd: 12, Rs1: 13, Imm: -1},
		{Op: isa.SUB, Rd: 14, Rs1: 0, Rs2: 15},
		{Op: isa.SLTIU, Rd: 16, Rs1: 17, Imm: 1},
		{Op: isa.SLTU, Rd: 18, Rs1: 0, Rs2: 19},
	}
	for i, w := range want {
		if p.Insts[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, p.Insts[i], w)
		}
	}
	if p.Insts[6].Op != isa.JAL || p.Insts[6].Rd != 0 {
		t.Errorf("j = %+v", p.Insts[6])
	}
	if p.Insts[7].Op != isa.JAL || p.Insts[7].Rd != 1 {
		t.Errorf("jal = %+v", p.Insts[7])
	}
	if p.Insts[8].Op != isa.JALR || p.Insts[8].Rd != 0 || p.Insts[8].Rs1 != 1 {
		t.Errorf("jr = %+v", p.Insts[8])
	}
	if p.Insts[9].Op != isa.JALR || p.Insts[9].Rd != 0 || p.Insts[9].Rs1 != 1 {
		t.Errorf("ret = %+v", p.Insts[9])
	}
}

func TestBranchSwapsAndZeroForms(t *testing.T) {
	p := assemble(t, `
	top:
		bgt  a0, a1, top
		ble  a0, a1, top
		bgtu a0, a1, top
		bleu a0, a1, top
		blez a0, top
		bgtz a0, top
	`)
	// bgt a0,a1 == blt a1,a0
	if p.Insts[0].Op != isa.BLT || p.Insts[0].Rs1 != 11 || p.Insts[0].Rs2 != 10 {
		t.Errorf("bgt = %+v", p.Insts[0])
	}
	if p.Insts[1].Op != isa.BGE || p.Insts[1].Rs1 != 11 {
		t.Errorf("ble = %+v", p.Insts[1])
	}
	if p.Insts[4].Op != isa.BGE || p.Insts[4].Rs1 != 0 || p.Insts[4].Rs2 != 10 {
		t.Errorf("blez = %+v", p.Insts[4])
	}
	if p.Insts[5].Op != isa.BLT || p.Insts[5].Rs1 != 0 || p.Insts[5].Rs2 != 10 {
		t.Errorf("bgtz = %+v", p.Insts[5])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"bogus a0, a1", "unknown mnemonic"},
		{"addi a0, a1", "needs 3 operands"},
		{"addi a0, a1, 99999", "immediate"},
		{"lw a0, 4000(a1)", "offset"},
		{"lw a0, a1", "memory operand"},
		{"add a0, a1, qq", "bad integer register"},
		{"fadd.s f0, f1, a0", "bad float register"},
		{"beq a0, a1, nowhere", "undefined symbol"},
		{"x: addi a0, zero, 1\nx: nop", "duplicate label"},
		{".equ q, 1/0", "division"},
		{".space 3", "multiple of 4"},
		{"li a0, 1 +", "expression"},
		{"csrr a0, 0x2000", "out of range"},
		{"lui a0, 0x200000", "20-bit"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src, 0x1000, nil)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Assemble(%q) error = %q, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestBranchOutOfRange(t *testing.T) {
	var b strings.Builder
	b.WriteString("top:\n")
	for i := 0; i < 1200; i++ {
		b.WriteString("nop\n")
	}
	b.WriteString("beq zero, zero, top\n")
	if _, err := Assemble(b.String(), 0x1000, nil); err == nil {
		t.Error("expected out-of-range branch error")
	}
}

func TestRoundTripThroughDecoder(t *testing.T) {
	// Every emitted instruction word must decode back to the same Inst the
	// assembler produced.
	p := assemble(t, `
	.equ N, 64
	entry:
		csrr a0, tid
		li   t0, N*4
		la   t1, table
	loop:
		lw   t2, 0(t1)
		addi t1, t1, 4
		addi t0, t0, -4
		bnez t0, loop
		fcvt.s.w f0, t2
		fmadd.s f1, f0, f0, f0
		ecall
	table:
		.word 1, 2, 3, 4
	`)
	for i, w := range p.Words {
		if p.Insts[i].Op == isa.OpInvalid {
			continue
		}
		got, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
		if got != p.Insts[i] {
			t.Errorf("word %d: decode = %+v, stored %+v", i, got, p.Insts[i])
		}
	}
	if p.SourceAt(p.Base) == "" {
		t.Error("SourceAt(base) empty")
	}
	if _, ok := p.InstAt(p.Base + 4); !ok {
		t.Error("InstAt(base+4) failed")
	}
	if _, ok := p.InstAt(p.Base + 2); ok {
		t.Error("InstAt(misaligned) succeeded")
	}
}

func TestWordDataAndSpace(t *testing.T) {
	p := assemble(t, `
		.word 0xDEADBEEF, 42
		.space 8
		.word end
	end:
	`)
	if p.Words[0] != 0xDEADBEEF || p.Words[1] != 42 {
		t.Errorf("words = %#x %#x", p.Words[0], p.Words[1])
	}
	if p.Words[2] != 0 || p.Words[3] != 0 {
		t.Errorf("space not zeroed")
	}
	if p.Words[4] != p.Symbols["end"] {
		t.Errorf("label word = %#x, want %#x", p.Words[4], p.Symbols["end"])
	}
	if p.Symbols["end"] != p.End() {
		t.Errorf("end symbol %#x != End() %#x", p.Symbols["end"], p.End())
	}
}

func TestDisassembleListing(t *testing.T) {
	p := assemble(t, `
	.tag body
		addi a0, zero, 1
		ecall
	`)
	out := Disassemble(p)
	if !strings.Contains(out, "section: body") {
		t.Errorf("listing missing section header:\n%s", out)
	}
	if !strings.Contains(out, "addi a0, zero, 1") {
		t.Errorf("listing missing instruction:\n%s", out)
	}
}

func TestDefineCollisionWithLabel(t *testing.T) {
	_, err := Assemble("BASE: nop", 0x1000, map[string]int64{"BASE": 1})
	if err == nil {
		t.Error("expected collision error")
	}
}

func TestMisalignedBase(t *testing.T) {
	if _, err := Assemble("nop", 0x1002, nil); err == nil {
		t.Error("expected alignment error")
	}
}

func TestDataDirectives(t *testing.T) {
	p := assemble(t, `
		.byte 1, 2, 3, 4, 5
		.half 0x1234, 0x5678
		.ascii "Hi!"
		.asciz "ok"
	`)
	// .byte: 5 bytes -> 2 words: 0x04030201, 0x00000005
	if p.Words[0] != 0x04030201 || p.Words[1] != 0x05 {
		t.Errorf(".byte words = %#x %#x", p.Words[0], p.Words[1])
	}
	// .half little-endian pairs.
	if p.Words[2] != 0x56781234 {
		t.Errorf(".half word = %#x", p.Words[2])
	}
	// "Hi!" = 48 69 21
	if p.Words[3] != 0x00216948 {
		t.Errorf(".ascii word = %#x", p.Words[3])
	}
	// "ok\0" = 6f 6b 00
	if p.Words[4] != 0x00006b6f {
		t.Errorf(".asciz word = %#x", p.Words[4])
	}
}

func TestAlignDirective(t *testing.T) {
	p := assemble(t, `
		nop
		.align 16
	target:
		nop
	`)
	if got := p.Symbols["target"]; got != 0x1010 {
		t.Errorf("aligned label = %#x, want 0x1010", got)
	}
	// Already aligned: no padding.
	p = assemble(t, `
		.align 8
	t2:
		nop
	`)
	if got := p.Symbols["t2"]; got != 0x1000 {
		t.Errorf("t2 = %#x", got)
	}
}

func TestDataDirectiveErrors(t *testing.T) {
	cases := []string{
		".byte 300",
		".byte -200",
		".half 70000",
		".ascii nope",
		`.ascii "bad \q"`,
		".align 3",
		".align 6",
		".byte",
	}
	for _, src := range cases {
		if _, err := Assemble(src, 0x1000, nil); err == nil {
			t.Errorf("Assemble(%q) accepted", src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	p := assemble(t, `.asciz "a\nb\t\"\\\0c"`)
	want := []byte{'a', '\n', 'b', '\t', '"', '\\', 0, 'c', 0}
	for i, wb := range want {
		got := byte(p.Words[i/4] >> uint(8*(i%4)))
		if got != wb {
			t.Errorf("byte %d = %#x, want %#x", i, got, wb)
		}
	}
}

func TestDisasmReassembleRoundTrip(t *testing.T) {
	// Property: disassembling an assembled program and re-assembling the
	// listing's instruction text reproduces the same machine words.
	// (Branch/jump targets are rendered as absolute addresses, which the
	// assembler accepts as expressions.)
	src := `
	.equ N, 12
	entry:
		csrr a0, tid
		li   t0, N
		li   t1, 0
	loop:
		add  t1, t1, t0
		addi t0, t0, -1
		bnez t0, loop
		slli t2, t1, 1
		fcvt.s.w f0, t2
		fmadd.s f1, f0, f0, f0
		fsqrt.s f2, f1
		vx_split t0
		vx_join
		ecall
	`
	p1 := assemble(t, src)
	var relisted strings.Builder
	for i, w := range p1.Words {
		if p1.Insts[i].Op == isa.OpInvalid {
			fmt.Fprintf(&relisted, ".word %#x\n", w)
			continue
		}
		pc := p1.Base + uint32(i)*4
		fmt.Fprintf(&relisted, "%s\n", isa.Disasm(p1.Insts[i], pc))
	}
	p2, err := Assemble(relisted.String(), p1.Base, nil)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, relisted.String())
	}
	if len(p2.Words) != len(p1.Words) {
		t.Fatalf("word count changed: %d -> %d", len(p1.Words), len(p2.Words))
	}
	for i := range p1.Words {
		if p1.Words[i] != p2.Words[i] {
			t.Errorf("word %d: %#08x -> %#08x (%s)", i, p1.Words[i], p2.Words[i],
				isa.Disasm(p1.Insts[i], p1.Base+uint32(i)*4))
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := assemble(t, `
		# leading comment
		nop          # trailing comment
		// C++-style comment line
		nop          // another

	`)
	if len(p.Words) != 2 {
		t.Fatalf("words = %d, want 2", len(p.Words))
	}
}

func TestMultipleLabelsPerLine(t *testing.T) {
	p := assemble(t, `
	a: b: c: nop
	`)
	for _, l := range []string{"a", "b", "c"} {
		if p.Symbols[l] != 0x1000 {
			t.Errorf("label %s = %#x", l, p.Symbols[l])
		}
	}
}

func TestRegisterTrailingJunkRefused(t *testing.T) {
	for _, src := range []string{
		"add a0, x5junk, a1",
		"add a0, x0x10, a1",
		"lw a0, 0(x6q)",
		"fadd.s f1oo, f1, f2",
		"fsw f5-, 0(a0)",
	} {
		if _, err := Assemble(src, 0x1000, nil); err == nil || !strings.Contains(err.Error(), "register") {
			t.Errorf("Assemble(%q) = %v, want a bad-register error", src, err)
		}
	}
	p := assemble(t, "add x5, x 6, x07\nfadd.s f1, f02, fa0")
	want := []isa.Inst{{Op: isa.ADD, Rd: 5, Rs1: 6, Rs2: 7}, {Op: isa.FADDS, Rd: 1, Rs1: 2, Rs2: 10}}
	for i, w := range want {
		if p.Insts[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, p.Insts[i], w)
		}
	}
}

func TestZeroOperandMnemonicsRefuseOperands(t *testing.T) {
	for _, src := range []string{"nop junk", "ecall a0", "ebreak 1", "ret a0", "fence 1,2", "vx_join a0"} {
		if _, err := Assemble(src, 0x1000, nil); err == nil || !strings.Contains(err.Error(), "needs 0 operands") {
			t.Errorf("Assemble(%q) = %v, want an operand-count error", src, err)
		}
	}
}

func TestCommentMarkersInStrings(t *testing.T) {
	p := assemble(t, `
	s:	.asciz "C#"   # the # after the string starts a comment
		.ascii "a//b\"#" // and so does this //
		nop # "quoted" text in a comment
	`)
	// "C#\0", then "a//b" and `"#`, then the nop.
	want := []uint32{0x00002343, 0x622f2f61, 0x00002322, 0x00000013}
	if len(p.Words) != len(want) {
		t.Fatalf("words = %d, want %d:\n%s", len(p.Words), len(want), Disassemble(p))
	}
	for i, w := range want {
		if p.Words[i] != w {
			t.Errorf("word %d = %#08x, want %#08x", i, p.Words[i], w)
		}
	}
	if _, err := Assemble(`.asciz "C#`, 0x1000, nil); err == nil {
		t.Error("unterminated string accepted")
	}
}

// FuzzDisasmAssemble holds the assembler, Disasm and Decode to one table:
// any word Decode accepts, rendered by Disasm at pc and assembled at pc,
// gives the same word back.
func FuzzDisasmAssemble(f *testing.F) {
	for i, op := range isa.Ops() {
		in := isa.Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Rs3: 8, CSR: isa.CSRThreadID}
		switch {
		case op == isa.LUI || op == isa.AUIPC:
			in.Imm = 0x12345 << 12
		case op == isa.SLLI || op == isa.SRLI || op == isa.SRAI:
			in.Imm = 3
		default:
			in.Imm = -8
		}
		w, err := isa.Encode(in)
		if err != nil {
			f.Fatalf("%s: %v", op, err)
		}
		f.Add(w, uint32(i)*4)
	}
	f.Fuzz(func(t *testing.T, w, pc uint32) {
		in, err := isa.Decode(w)
		if err != nil {
			return
		}
		// Keep pc word-aligned and every jump target inside 32 bits.
		pc = 1<<20 + pc%(1<<31)&^3
		src := isa.Disasm(in, pc)
		p, err := Assemble(src, pc, nil)
		if err != nil {
			t.Fatalf("%#08x: Assemble(%q): %v", w, src, err)
		}
		if len(p.Words) != 1 || p.Words[0] != w {
			t.Fatalf("%#08x: %q assembles to %#x", w, src, p.Words)
		}
	})
}
