package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randInst builds a random but encodable instruction for op. It names the
// ops of each encoding itself rather than reading the specs table, so it is
// an independent reference for the table-driven Encode and Decode.
func randInst(r *rand.Rand, op Op) Inst {
	in := Inst{Op: op}
	in.Rd = uint8(r.Intn(32))
	in.Rs1 = uint8(r.Intn(32))
	in.Rs2 = uint8(r.Intn(32))
	switch op {
	case FMADDS, FMSUBS, FNMSUBS, FNMADDS:
		in.Rs3 = uint8(r.Intn(32))
	case SLLI, SRLI, SRAI:
		in.Imm = int32(r.Intn(32))
	case ECALL, EBREAK, FENCE:
		in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
	case CSRRW, CSRRS, CSRRC, CSRRWI, CSRRSI, CSRRCI:
		in.CSR = uint16(r.Intn(0x1000))
		in.Imm = int32(in.CSR)
	case JALR, LB, LH, LW, LBU, LHU, FLW, ADDI, SLTI, SLTIU, XORI, ORI, ANDI,
		SB, SH, SW, FSW:
		in.Imm = int32(r.Intn(4096)) - 2048
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		in.Imm = (int32(r.Intn(4096)) - 2048) * 2
	case LUI, AUIPC:
		in.Imm = int32(r.Intn(1<<20)) << 12
	case JAL:
		in.Imm = (int32(r.Intn(1<<19)) - 1<<18) * 2
	}
	// Normalize fields the encoding does not carry.
	normalize(&in)
	return in
}

// normalize zeroes fields that an op's encoding does not carry, so that
// encode/decode round-trips compare equal.
func normalize(in *Inst) {
	switch in.Op {
	case LUI, AUIPC, JAL:
		in.Rs1, in.Rs2, in.Rs3 = 0, 0, 0
	case ECALL, EBREAK, FENCE:
		in.Rd, in.Rs1, in.Rs2, in.Rs3, in.Imm = 0, 0, 0, 0, 0
	case JALR, LB, LH, LW, LBU, LHU, FLW, ADDI, SLTI, SLTIU, XORI, ORI, ANDI,
		SLLI, SRLI, SRAI, CSRRW, CSRRS, CSRRC, CSRRWI, CSRRSI, CSRRCI:
		in.Rs2, in.Rs3 = 0, 0
	case SB, SH, SW, FSW, BEQ, BNE, BLT, BGE, BLTU, BGEU:
		in.Rd, in.Rs3 = 0, 0
	case FMADDS, FMSUBS, FNMSUBS, FNMADDS:
	case FSQRTS, FCVTWS, FCVTWUS, FCVTSW, FCVTSWU, FMVXW, FMVWX, FCLASSS, VXBALLOT:
		in.Rs2, in.Rs3 = 0, 0
	case VXTMC, VXSPLIT, VXPRED:
		in.Rd, in.Rs2, in.Rs3 = 0, 0, 0
	case VXJOIN:
		in.Rd, in.Rs1, in.Rs2, in.Rs3 = 0, 0, 0, 0
	case VXWSPAWN, VXBAR:
		in.Rd, in.Rs3 = 0, 0
	default: // the remaining R-format ops carry rd, rs1 and rs2
		in.Rs3 = 0
	}
}

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, op := range Ops() {
		for trial := 0; trial < 64; trial++ {
			in := randInst(r, op)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", op, in, err)
			}
			got, err := Decode(w)
			if err != nil {
				t.Fatalf("%s: decode %#08x: %v", op, w, err)
			}
			normalize(&got)
			if got != in {
				t.Fatalf("%s: round trip mismatch:\n in=%+v\nout=%+v (word %#08x)", op, in, got, w)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []uint32{
		0x00000000,       // all zeros: opcode 0 is not defined
		0xFFFFFFFF,       // all ones
		0x0000705B,       // custom-0 with funct3 != 0
		0x0000203B,       // RV64 OP-32 opcode
		0x38000053,       // OP-FP with unknown funct7
		0x00002073 ^ 0x0, // valid csrrs; sanity-check below uses it
	}
	for _, w := range bad[:5] {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x) succeeded, want error", w)
		}
	}
	if _, err := Decode(bad[5]); err != nil {
		t.Errorf("Decode(valid csrrs) failed: %v", err)
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Rd: 1, Rs1: 1, Imm: 5000},
		{Op: ADDI, Rd: 1, Rs1: 1, Imm: -3000},
		{Op: SW, Rs1: 1, Rs2: 2, Imm: 2048},
		{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 3},    // odd branch offset
		{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 8192}, // out of range
		{Op: JAL, Rd: 1, Imm: 1 << 21},       // out of range
		{Op: LUI, Rd: 1, Imm: 0x123},         // low bits set
		{Op: SLLI, Rd: 1, Rs1: 1, Imm: 32},   // shift too large
		{Op: SLLI, Rd: 1, Rs1: 1, Imm: -1},   // negative shift
		{Op: OpInvalid},                      // invalid op
		{Op: ADD, Rd: 32, Rs1: 1, Rs2: 2},    // bad register
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", in)
		}
	}
}

func TestBranchImmediateSignExtension(t *testing.T) {
	in := Inst{Op: BNE, Rs1: 5, Rs2: 6, Imm: -4}
	w, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != -4 {
		t.Fatalf("branch imm = %d, want -4", got.Imm)
	}
	in = Inst{Op: JAL, Rd: 0, Imm: -1024}
	if w, err = Encode(in); err != nil {
		t.Fatal(err)
	}
	got, err = Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != -1024 {
		t.Fatalf("jal imm = %d, want -1024", got.Imm)
	}
}

func TestQuickEncodeNeverPanicsOnDecodeOutput(t *testing.T) {
	// Property: any word that decodes successfully re-encodes to the same
	// word (decode is a right inverse of encode).
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true
		}
		w2, err := Encode(in)
		return err == nil && w2 == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestOpClassPredicates(t *testing.T) {
	checks := []struct {
		in                        Inst
		load, store, wInt, wFloat bool
	}{
		{Inst{Op: LW}, true, false, true, false},
		{Inst{Op: FLW}, true, false, false, true},
		{Inst{Op: SW}, false, true, false, false},
		{Inst{Op: FSW}, false, true, false, false},
		{Inst{Op: BEQ}, false, false, false, false},
		{Inst{Op: JALR}, false, false, true, false},
		{Inst{Op: ADD}, false, false, true, false},
		{Inst{Op: FMADDS}, false, false, false, true},
		{Inst{Op: FEQS}, false, false, true, false},
		{Inst{Op: VXBALLOT}, false, false, true, false},
		{Inst{Op: VXTMC}, false, false, false, false},
		{Inst{Op: JAL}, false, false, true, false},
	}
	for _, c := range checks {
		if c.in.IsLoad() != c.load {
			t.Errorf("%s IsLoad = %v", c.in.Op, c.in.IsLoad())
		}
		if c.in.IsStore() != c.store {
			t.Errorf("%s IsStore = %v", c.in.Op, c.in.IsStore())
		}
		if c.in.WritesInt() != c.wInt {
			t.Errorf("%s WritesInt = %v", c.in.Op, c.in.WritesInt())
		}
		if c.in.WritesFloat() != c.wFloat {
			t.Errorf("%s WritesFloat = %v", c.in.Op, c.in.WritesFloat())
		}
	}
}

func TestRegisterSourcePredicates(t *testing.T) {
	if !(Inst{Op: FSW}).ReadsIntRs1() {
		t.Error("fsw must read rs1 from the integer file (address base)")
	}
	if !(Inst{Op: FSW}).ReadsFloatRs2() {
		t.Error("fsw must read rs2 from the float file (store data)")
	}
	if (Inst{Op: FADDS}).ReadsIntRs1() {
		t.Error("fadd.s must not read integer rs1")
	}
	if !(Inst{Op: FCVTSW}).ReadsIntRs1() {
		t.Error("fcvt.s.w reads integer rs1")
	}
	if (Inst{Op: FCVTSW}).ReadsFloatRs1() {
		t.Error("fcvt.s.w does not read float rs1")
	}
	if !(Inst{Op: FMADDS}).ReadsFloatRs3() {
		t.Error("fmadd.s reads rs3")
	}
	if (Inst{Op: ADD}).ReadsFloatRs3() {
		t.Error("add does not read rs3")
	}
	if !(Inst{Op: VXWSPAWN}).ReadsIntRs2() {
		t.Error("vx_wspawn reads rs2 (entry pc)")
	}
}

func TestDisasmStableStrings(t *testing.T) {
	cases := []struct {
		in   Inst
		pc   uint32
		want string
	}{
		{Inst{Op: ADDI, Rd: 10, Rs1: 0, Imm: 42}, 0, "addi a0, zero, 42"},
		{Inst{Op: LW, Rd: 5, Rs1: 10, Imm: -8}, 0, "lw t0, -8(a0)"},
		{Inst{Op: SW, Rs1: 2, Rs2: 8, Imm: 16}, 0, "sw s0, 16(sp)"},
		{Inst{Op: BNE, Rs1: 5, Rs2: 0, Imm: -8}, 0x100, "bne t0, zero, 0xf8"},
		{Inst{Op: JAL, Rd: 1, Imm: 0x20}, 0x1000, "jal ra, 0x1020"},
		{Inst{Op: FMADDS, Rd: 1, Rs1: 2, Rs2: 3, Rs3: 4}, 0, "fmadd.s f1, f2, f3, f4"},
		{Inst{Op: CSRRS, Rd: 10, Rs1: 0, CSR: CSRThreadID}, 0, "csrrs a0, tid, zero"},
		{Inst{Op: VXTMC, Rs1: 5}, 0, "vx_tmc t0"},
		{Inst{Op: VXBAR, Rs1: 5, Rs2: 6}, 0, "vx_bar t0, t1"},
		{Inst{Op: VXJOIN}, 0, "vx_join"},
		{Inst{Op: VXBALLOT, Rd: 6, Rs1: 7}, 0, "vx_ballot t1, t2"},
	}
	for _, c := range cases {
		if got := Disasm(c.in, c.pc); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDisasmCoversAllOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, op := range Ops() {
		in := randInst(r, op)
		s := Disasm(in, 0x1000)
		if s == "" || strings.HasPrefix(s, "unknown") {
			t.Errorf("Disasm has no rendering for %s", op)
		}
	}
}

func TestRegisterNameRoundTrip(t *testing.T) {
	for r := uint8(0); r < 32; r++ {
		got, ok := IntRegByName(IntRegName(r))
		if !ok || got != r {
			t.Errorf("IntRegByName(IntRegName(%d)) = %d, %v", r, got, ok)
		}
	}
	for r := uint8(0); r < 32; r++ {
		got, ok := FloatRegByName(FloatRegName(r))
		if !ok || got != r {
			t.Errorf("FloatRegByName(FloatRegName(%d)) = %d, %v", r, got, ok)
		}
	}
	for name, want := range floatABINames {
		got, ok := FloatRegByName(name)
		if !ok || got != want {
			t.Errorf("FloatRegByName(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	if _, ok := IntRegByName("x99"); ok {
		t.Error("IntRegByName(x99) should fail")
	}
	if _, ok := FloatRegByName("f42"); ok {
		t.Error("FloatRegByName(f42) should fail")
	}
}

func TestCSRNameRoundTrip(t *testing.T) {
	for _, csr := range []uint16{
		CSRThreadID, CSRWarpID, CSRCoreID, CSRTMask,
		CSRNumThreads, CSRNumWarps, CSRNumCores,
		CSRCycle, CSRCycleH, CSRInstRet, CSRInstRetH,
	} {
		name := CSRName(csr)
		if name == "" {
			t.Errorf("CSRName(%#x) empty", csr)
			continue
		}
		got, ok := CSRByName(name)
		if !ok || got != csr {
			t.Errorf("CSRByName(%q) = %#x, %v; want %#x", name, got, ok, csr)
		}
	}
	if CSRName(0x123) != "" {
		t.Error("unknown CSR should have empty name")
	}
	if _, ok := CSRByName("nope"); ok {
		t.Error("CSRByName(nope) should fail")
	}
}

// TestSpecsRowsDisjoint holds the specs table to its decode rule: a row's
// match has no bit inside its operand fields, and no word matches two rows.
func TestSpecsRowsDisjoint(t *testing.T) {
	for _, a := range Ops() {
		if specs[a].match&^masks[a] != 0 {
			t.Errorf("%s: match %#08x has bits inside operand fields", a, specs[a].match)
		}
		if op, ok := OpByName(a.String()); !ok || op != a {
			t.Errorf("OpByName(%q) = %s, %v", a, op, ok)
		}
		for _, b := range Ops() {
			if a < b && (specs[a].match^specs[b].match)&masks[a]&masks[b] == 0 {
				t.Errorf("%s and %s match the same words", a, b)
			}
		}
	}
}

// TestDecodeStrictGrid walks opcode x funct3 x funct7 x rs2 in {0,1,2,31}
// with rd = 5 and rs1 = 6 (524,288 words): every word Decode accepts must
// re-encode to itself. The accepted count pins the table's coverage of the
// grid; the classes of refused words are named in DESIGN.md ("One
// instruction table").
func TestDecodeStrictGrid(t *testing.T) {
	accepted := 0
	for opc := uint32(0); opc < 128; opc++ {
		for f3 := uint32(0); f3 < 8; f3++ {
			for f7 := uint32(0); f7 < 128; f7++ {
				for _, rs2 := range []uint32{0, 1, 2, 31} {
					w := opc | 5<<7 | f3<<12 | 6<<15 | rs2<<20 | f7<<25
					in, err := Decode(w)
					if err != nil {
						continue
					}
					accepted++
					if w2, err := Encode(in); err != nil || w2 != w {
						t.Fatalf("Decode(%#08x) = %+v, which encodes to %#08x, %v", w, in, w2, err)
					}
				}
			}
		}
	}
	if accepted != 27789 {
		t.Errorf("Decode accepted %d grid words, want 27789", accepted)
	}
}
