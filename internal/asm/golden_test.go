package asm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenEveryOp pins the Disassemble listing of testdata/every_op.s,
// which names every op, pseudo-instruction and directive.
func TestGoldenEveryOp(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "every_op.s"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble(string(src), 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[isa.Op]bool{}
	for _, in := range p.Insts {
		seen[in.Op] = true
	}
	for _, op := range isa.Ops() {
		if !seen[op] {
			t.Errorf("every_op.s does not assemble to %s", op)
		}
	}
	got := []byte(Disassemble(p))
	path := filepath.Join("testdata", "every_op.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("listing differs from %s:\n--- got ---\n%s", path, got)
	}
}

// refused lists inputs the assembler must keep refusing. Each is
// assembled on its own at 0x1000.
var refused = []string{
	// mnemonics and operand counts
	"bogus a0, a1",
	"addi a0, a1",
	"addi a0, a1, 1, 2",
	"add a0, a1",
	"lw a0",
	"fmadd.s f0, f1, f2",
	"vx_tmc",
	"vx_bar a0",
	"jal a0, a1, 0x1000",
	"jal",
	"jalr a0, 0(a1), 4",
	"jalr",
	"mv a0",
	"mv a0, a1, a2",
	"not a0",
	"j",
	"call",
	"jr",
	"beqz a0",
	"bgt a0, a1",
	"fmv.s f0",
	"csrr a0",
	"csrw tid",
	"li a0",
	"la a0, 1, 2",
	// immediate ranges
	"addi a0, a1, 2048",
	"addi a0, a1, -2049",
	"slli a0, a1, 32",
	"srai a0, a1, -1",
	"lw a0, 2048(a1)",
	"sw a0, -2049(a1)",
	"jalr ra, 2048(a0)",
	"lui a0, 0x100000",
	"lui a0, -1",
	"auipc a0, 0x100000",
	"csrrwi a0, tid, 32",
	"csrrsi a0, tid, -1",
	"csrr a0, 0x1000",
	"csrr a0, -1",
	"beq a0, a1, 0x1000 + 4096",
	"beq a0, a1, 0x1000 - 4098",
	"bne a0, a1, 0x1001",
	"jal ra, 0x1000 + 0x100000",
	"jal 0x1001",
	"li a0, 0x100000000",
	"li a0, -0x80000001",
	// register files and names
	"add a0, a1, qq",
	"add a0, a1, x32",
	"add a0, a1, x-1",
	"add a0, a1, f2",
	"fadd.s f0, f1, a0",
	"fadd.s f0, f1, f32",
	"flw a0, 0(a1)",
	"fsw f0, 0(f1)",
	"fcvt.s.w f0, f1",
	"fcvt.w.s a0, a1",
	"feq.s f0, f1, f2",
	"vx_tmc f0",
	"csrrw a0, tid, f1",
	// memory operands
	"lw a0, a1",
	"lw a0, 4(f1)",
	"jalr a0, a1",
	"sw a0, 4(a1",
	// symbols and expressions
	"beq a0, a1, nowhere",
	"csrrs a0, nosuch, a1",
	"la a0, nowhere",
	"x: addi a0, zero, 1\nx: nop",
	"li a0, 1 +",
	"li a0, (1",
	"li a0, 1 || 2",
	"li a0, 1 && 2",
	"li a0, 1 << 64",
	"li a0, 'ab'",
	"addi a0, a0, 1 % 0",
	"li a0, 0xZZ",
	// directives
	".word",
	".byte",
	".half",
	".byte 256",
	".byte -129",
	".half 65536",
	".half -32769",
	".ascii nope",
	`.ascii "bad \q"`,
	`.ascii "unterminated`,
	`.asciz "dangling\`,
	".align 3",
	".align 6",
	".align",
	".space 3",
	".space -4",
	".space",
	".equ x",
	".equ 1x, 2",
	".equ q, 1/0",
	".equ q, later",
	".tag",
	".tag a, b",
}

func TestRefusedInputs(t *testing.T) {
	for _, src := range refused {
		if _, err := Assemble(src, 0x1000, nil); err == nil {
			t.Errorf("Assemble(%q) accepted", src)
		}
	}
	if _, err := Assemble("BASE: nop", 0x1000, map[string]int64{"BASE": 1}); err == nil {
		t.Error("label colliding with a define accepted")
	}
}
