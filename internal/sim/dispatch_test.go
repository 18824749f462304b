package sim

// Decoded dispatch: the decode record against the isa predicates and the
// config, execute's constant-case dispatch against the op list, the
// per-warp lane kernels against per-lane references, and the latency
// validation the records rely on.

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestValidateNegativeLatency: a negative latency would complete a result
// before its instruction issues (the unsigned completion cycle wraps), so
// Validate refuses every field with its own diagnostic, distinct from the
// all-zero one; zero in a single field stays legal.
func TestValidateNegativeLatency(t *testing.T) {
	typ := reflect.TypeOf(Latencies{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := DefaultConfig(1, 1, 1)
		field := reflect.ValueOf(&cfg.Lat).Elem().Field(i)
		field.SetInt(-1)
		err := cfg.Validate()
		if want := "negative " + name + " latency -1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Lat.%s = -1: Validate() = %v, want %q", name, err, want)
		}
		field.SetInt(0)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Lat.%s = 0: Validate() = %v, want ok", name, err)
		}
	}
}

// TestDecodeAgreesWithISA holds every decoded record to the isa predicates
// and the config, for every op and register fields that include x0 and f0:
// the scoreboard slots are exactly the registers the predicates name (x0
// dropped, f0 kept), the destination, the operands read and the access
// width follow the op, and the latency is the op's cfg.Lat class. Distinct
// class latencies make a wrong class visible.
func TestDecodeAgreesWithISA(t *testing.T) {
	lat := Latencies{ALU: 2, Mul: 3, Div: 5, FAdd: 7, FMul: 11, FMA: 13, FDiv: 17, FSqrt: 19}
	wantLat := func(in isa.Inst) uint64 {
		switch {
		case in.IsMem() || !in.WritesInt() && !in.WritesFloat():
			return 0
		case in.Op == isa.FMULS:
			return uint64(lat.FMul)
		case in.Op == isa.FDIVS:
			return uint64(lat.FDiv)
		case in.Op == isa.FSQRTS:
			return uint64(lat.FSqrt)
		case in.Op >= isa.FMADDS && in.Op <= isa.FNMADDS:
			return uint64(lat.FMA)
		case in.IsFloat():
			return uint64(lat.FAdd)
		case in.Op >= isa.MUL && in.Op <= isa.MULHU:
			return uint64(lat.Mul)
		case in.Op >= isa.DIV && in.Op <= isa.REMU:
			return uint64(lat.Div)
		}
		return uint64(lat.ALU)
	}
	fields := [][4]uint8{{0, 0, 0, 0}, {5, 6, 7, 8}, {0, 6, 7, 8}, {5, 0, 0, 0}, {9, 9, 9, 9}, {31, 0, 31, 0}}
	for _, op := range isa.Ops() {
		for _, f := range fields {
			in := isa.Inst{Op: op, Rd: f[0], Rs1: f[1], Rs2: f[2], Rs3: f[3]}
			d := decode(in, lat)

			want := map[uint8]bool{}
			name := func(ok bool, slot uint8) {
				if ok && slot != 0 {
					want[slot] = true
				}
			}
			name(in.ReadsIntRs1(), in.Rs1)
			name(in.ReadsIntRs2(), in.Rs2)
			name(in.ReadsFloatRs1(), 32+in.Rs1)
			name(in.ReadsFloatRs2(), 32+in.Rs2)
			name(in.ReadsFloatRs3(), 32+in.Rs3)
			name(in.WritesInt(), in.Rd)
			name(in.WritesFloat(), 32+in.Rd)
			got := map[uint8]bool{}
			for _, slot := range d.slots {
				if slot != 0 {
					got[slot] = true
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s %v: scoreboard slots %v, predicates name %v", op, f, d.slots, want)
			}

			var dst uint8
			switch {
			case in.WritesInt():
				dst = in.Rd
			case in.WritesFloat():
				dst = 32 + in.Rd
			}
			if d.dst != dst {
				t.Errorf("%s %v: dst slot %d, want %d", op, f, d.dst, dst)
			}
			// Each operand the op reads, in the file it reads it from.
			operand := func(reads, readsFloat bool, r uint8) uint8 {
				switch {
				case reads:
					return r
				case readsFloat:
					return 32 + r
				}
				return 0
			}
			rs := [3]uint8{operand(in.ReadsIntRs1(), in.ReadsFloatRs1(), in.Rs1),
				operand(in.ReadsIntRs2(), in.ReadsFloatRs2(), in.Rs2),
				operand(false, in.ReadsFloatRs3(), in.Rs3)}
			if got := [3]uint8{d.rs1, d.rs2, d.rs3}; got != rs {
				t.Errorf("%s %v: operand slots %v, want %v", op, f, got, rs)
			}
			if d.isMem != in.IsMem() || d.store != in.IsStore() || d.invalid {
				t.Errorf("%s %v: isMem/store/invalid %v/%v/%v, want %v/%v/false", op, f, d.isMem, d.store, d.invalid, in.IsMem(), in.IsStore())
			}
			if got := wantLat(in); d.lat != got {
				t.Errorf("%s %v: latency %d, want %d", op, f, d.lat, got)
			}
			if in.IsMem() {
				size := uint8(4)
				switch op {
				case isa.LB, isa.LBU, isa.SB:
					size = 1
				case isa.LH, isa.LHU, isa.SH:
					size = 2
				}
				if d.size != size {
					t.Errorf("%s %v: size %d, want %d", op, f, d.size, size)
				}
			}
		}
	}
	if d := decode(isa.Inst{}, lat); !d.invalid {
		t.Error("OpInvalid decodes as a valid instruction")
	}
}

// TestExecuteReachesEveryOp runs, for every isa op, a program of that one
// instruction and an ecall, with operands that keep it in bounds (x0 base
// and lane values, jump targets at the ecall). Each op must issue and run
// its own execute case: no "unimplemented" trap, no panic, and a trap only
// where the op itself defines one.
func TestExecuteReachesEveryOp(t *testing.T) {
	traps := map[isa.Op]string{
		isa.EBREAK: "ebreak",
		isa.VXJOIN: "vx_join with empty IPDOM stack",
	}
	for _, op := range []isa.Op{isa.CSRRW, isa.CSRRC, isa.CSRRWI, isa.CSRRSI, isa.CSRRCI} {
		traps[op] = "only csrr"
	}
	cfg := DefaultConfig(1, 1, 4)
	for _, op := range isa.Ops() {
		in := isa.Inst{Op: op, Rd: 5, Imm: 4, CSR: isa.CSRThreadID}
		if in.IsMem() {
			in.Imm = 0x100
		}
		hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, mem.NewMemory(1<<16), hier)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadProgram(0, []isa.Inst{in, {Op: isa.ECALL}}); err != nil {
			t.Fatal(err)
		}
		if err := s.ActivateWarp(0, 0, 0, 0xF); err != nil {
			t.Fatal(err)
		}
		err = s.Run()
		reason := ""
		var trap *Trap
		if errors.As(err, &trap) {
			reason = trap.Reason
		} else if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		switch want := traps[op]; {
		case want == "" && reason != "":
			t.Errorf("%s: trapped %q", op, reason)
		case want != "" && !strings.Contains(reason, want):
			t.Errorf("%s: trap %q, want %q", op, reason, want)
		case s.TotalStats().Issued == 0 && reason == "":
			t.Errorf("%s: nothing issued", op)
		}
	}
}

// TestLaneRowsMatchPerLane holds the once-per-warp FP and branch kernels
// to per-lane references: every FP compute and every conditional branch,
// dense and sparse masks, operands including NaNs, infinities, signed zeros
// and subnormals, inactive lanes untouched.
func TestLaneRowsMatchPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	special := []uint32{0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000, 0x80000000, 0, 0x00000001, 0x80400000, 0x4F000000, 0xCF000000, 0x3F800000}
	operand := func(l int) uint32 {
		if l%3 == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Uint32()
	}
	masks := []uint64{1, 0xF, 0xFFFFFFFF, 0xF0, 0x80000001, 0x5A5A5A5A}

	const n = 32
	hier, err := mem.NewHierarchy(1, DefaultConfig(1, 1, n).Mem)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(1, 1, n), mem.NewMemory(1<<16), hier)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateWarp(0, 0, 0, s.fullMask); err != nil {
		t.Fatal(err)
	}
	identityLayout(s)
	w := &s.cores[0].warps[0]
	const f = 32 * n // float register r is row 32+r
	tested := 0
	for op := isa.FADDS; op <= isa.FNMADDS; op++ {
		tested++
		for _, tm := range masks {
			for i := range w.regs {
				w.regs[i] = operand(i % n)
			}
			clear(row(w.regs, 0, n))
			in := isa.Inst{Op: op, Rd: 3, Rs1: 4, Rs2: 5, Rs3: 6}
			want := slices.Clone(w.regs)
			dst := want[f:]
			if in.WritesInt() {
				dst = want
			}
			regs := w.regs
			for l := 0; l < n; l++ {
				if tm>>l&1 != 0 {
					dst[3*n+l] = fpLane(op, regs[f+4*n+l], regs[f+5*n+l], regs[f+6*n+l], regs[4*n+l])
				}
			}
			w.tmask = tm
			d := decode(in, s.cfg.Lat)
			s.remap(&d)
			s.executeFP(w, &d)
			if !slices.Equal(w.regs, want) {
				t.Errorf("%s mask %#x: registers differ from the per-lane reference", op, tm)
			}
		}
	}
	if tested != 24 {
		t.Fatalf("tested %d FP ops, want 24", tested)
	}

	for op := isa.BEQ; op <= isa.BGEU; op++ {
		for _, tm := range masks {
			a, b := make([]uint32, n), make([]uint32, n)
			for l := range a {
				a[l], b[l] = operand(l), operand(l)
				if l%4 == 1 {
					b[l] = a[l]
				}
			}
			var want uint64
			for l := 0; l < n; l++ {
				if tm>>l&1 != 0 && branchLane(op, a[l], b[l]) {
					want |= 1 << l
				}
			}
			if got := branchMask(op, a, b, tm); got != want {
				t.Errorf("%s mask %#x: taken lanes %#x, want %#x", op, tm, got, want)
			}
		}
	}
}

// fpLane is the per-lane reference of the FP computes: op on one lane's
// float operands f1-f3 and integer rs1 x1, as register bits.
func fpLane(op isa.Op, f1, f2, f3, x1 uint32) uint32 {
	f32, b32 := math.Float32frombits, math.Float32bits
	switch op {
	case isa.FADDS:
		return b32(f32(f1) + f32(f2))
	case isa.FSUBS:
		return b32(f32(f1) - f32(f2))
	case isa.FMULS:
		return b32(f32(f1) * f32(f2))
	case isa.FDIVS:
		return b32(f32(f1) / f32(f2))
	case isa.FSQRTS:
		return b32(float32(math.Sqrt(float64(f32(f1)))))
	case isa.FMINS:
		return b32(fmin(f32(f1), f32(f2)))
	case isa.FMAXS:
		return b32(fmax(f32(f1), f32(f2)))
	case isa.FSGNJS:
		return f1&^signBit | f2&signBit
	case isa.FSGNJNS:
		return f1&^signBit | (^f2)&signBit
	case isa.FSGNJXS:
		return f1 ^ f2&signBit
	case isa.FMADDS:
		return b32(fma32(f32(f1), f32(f2), f32(f3)))
	case isa.FMSUBS:
		return b32(fma32(f32(f1), f32(f2), -f32(f3)))
	case isa.FNMSUBS:
		return b32(fma32(-f32(f1), f32(f2), f32(f3)))
	case isa.FNMADDS:
		return b32(fma32(-f32(f1), f32(f2), -f32(f3)))
	case isa.FEQS:
		return boolBit(f32(f1) == f32(f2))
	case isa.FLTS:
		return boolBit(f32(f1) < f32(f2))
	case isa.FLES:
		return boolBit(f32(f1) <= f32(f2))
	case isa.FCVTWS:
		return cvtWS(f32(f1))
	case isa.FCVTWUS:
		return cvtWUS(f32(f1))
	case isa.FCVTSW:
		return b32(float32(int32(x1)))
	case isa.FCVTSWU:
		return b32(float32(x1))
	case isa.FMVXW:
		return f1
	case isa.FMVWX:
		return x1
	case isa.FCLASSS:
		return fclass(f32(f1))
	}
	panic("fpLane: bad op " + op.String())
}

// branchLane is the per-lane reference of the conditional branches.
func branchLane(op isa.Op, a, b uint32) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int32(a) < int32(b)
	case isa.BGE:
		return int32(a) >= int32(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	panic("branchLane: bad op " + op.String())
}
