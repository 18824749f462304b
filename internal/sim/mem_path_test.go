package sim

// Memory issue path: the validate-before-mutate contract of executeMem, its
// broadcast and unit-stride fast paths held to a per-lane reference model,
// and memTiming's division-free LSU occupancy.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// newWhiteboxSim builds a 1-core simulator with warps [0, warps) active at
// the program's first instruction.
func newWhiteboxSim(t *testing.T, cfg Config, prog string, warps int, tmask uint64) (*Sim, *mem.Memory) {
	t.Helper()
	p := asm.MustAssemble(prog, 0x1000, nil)
	memory := mem.NewMemory(1 << 20)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < warps; w++ {
		if err := s.ActivateWarp(0, w, 0x1000, tmask); err != nil {
			t.Fatal(err)
		}
	}
	return s, memory
}

// memTrapProg: lane addresses of tid<<20 + 0x8000 — lane 0 in bounds,
// every higher lane far outside the 1 MiB device memory. The store must
// trap without committing lane 0's write.
const memTrapProg = `
	csrr t0, tid
	slli t2, t0, 20
	li   t3, 0x8000
	add  t2, t2, t3
	li   t4, 0xdead
	sw   t4, 0(t2)
	ecall
`

// TestMemTrapNoPartialMutation pins the validate-before-mutate contract of
// executeMem: a store warp that traps on a later lane must leave memory
// untouched — including the earlier lanes that individually were in bounds
// — with the trap record held to its frozen digest, for one warp and for
// several warps at the same pc.
func TestMemTrapNoPartialMutation(t *testing.T) {
	for _, warps := range []int{1, 4} {
		s, memory := newWhiteboxSim(t, DefaultConfig(1, 4, 4), memTrapProg, warps, 0x3)
		var trap *Trap
		if err := s.Run(); !errors.As(err, &trap) {
			t.Fatalf("warps=%d: expected out-of-bounds trap, got %v", warps, err)
		}
		if v, _ := memory.Read32(0x8000); v != 0 {
			t.Fatalf("warps=%d: lane 0 store committed (%#x) despite lane 1 trap", warps, v)
		}
		CheckEngineDigest(t, fmt.Sprintf("warps=%d", warps), digestOf(*trap))
	}
}

// memCase is one executeMem input: an op, the address of each lane of an
// n-lane warp (written to rs1 with imm 0) and the thread mask (0 = full).
type memCase struct {
	name  string
	op    isa.Op
	addrs func(lane, n int) uint32
	mask  uint64
}

// refMemAccess is the per-lane reference model of executeMem's functional
// half, written against the byte image and register-major register copies:
// validate every active lane in lane order (the first failure is the trap),
// then access lane by lane. It returns the trap reason, "" when none.
func refMemAccess(image []byte, regs, fregs []uint32, n int, tmask uint64, in isa.Inst) string {
	size := 4
	switch in.Op {
	case isa.LB, isa.LBU, isa.SB:
		size = 1
	case isa.LH, isa.LHU, isa.SH:
		size = 2
	}
	addr := func(lane int) uint32 { return regs[int(in.Rs1)*n+lane] + uint32(in.Imm) }
	for lane := 0; lane < n; lane++ {
		if tmask&(1<<uint(lane)) == 0 {
			continue
		}
		a := addr(lane)
		if uint64(a)+uint64(size) > uint64(len(image)) {
			return fmt.Sprintf("%s lane %d address %#x out of bounds (mem size %#x)", in.Op, lane, a, len(image))
		}
		if int(a)%size != 0 {
			return fmt.Sprintf("%s lane %d address %#x misaligned", in.Op, lane, a)
		}
	}
	addrs := make([]uint32, n)
	for lane := range addrs {
		addrs[lane] = addr(lane) // before any load can overwrite rs1
	}
	for lane := 0; lane < n; lane++ {
		if tmask&(1<<uint(lane)) == 0 {
			continue
		}
		b := image[addrs[lane]:]
		rd, rs2 := int(in.Rd)*n+lane, int(in.Rs2)*n+lane
		switch in.Op {
		case isa.LW:
			if in.Rd != 0 {
				regs[rd] = binary.LittleEndian.Uint32(b)
			}
		case isa.FLW:
			fregs[rd] = binary.LittleEndian.Uint32(b)
		case isa.LH:
			if in.Rd != 0 {
				regs[rd] = uint32(int32(int16(binary.LittleEndian.Uint16(b))))
			}
		case isa.LHU:
			if in.Rd != 0 {
				regs[rd] = uint32(binary.LittleEndian.Uint16(b))
			}
		case isa.LB:
			if in.Rd != 0 {
				regs[rd] = uint32(int32(int8(b[0])))
			}
		case isa.LBU:
			if in.Rd != 0 {
				regs[rd] = uint32(b[0])
			}
		case isa.SW:
			binary.LittleEndian.PutUint32(b, regs[rs2])
		case isa.FSW:
			binary.LittleEndian.PutUint32(b, fregs[rs2])
		case isa.SH:
			binary.LittleEndian.PutUint16(b, uint16(regs[rs2]))
		case isa.SB:
			b[0] = uint8(regs[rs2])
		}
	}
	return ""
}

// TestMemFastPathParity holds executeMem — broadcast, unit-stride and
// per-lane paths alike — to the per-lane reference model: same registers,
// same memory bytes, same trap reason, and on a trap nothing written.
// The unit-stride shapes cover full, contiguous-partial and scattered
// masks, the last lane out of bounds or misaligned, a misaligned base,
// loads into x0 and rd == rs1; the broadcast shapes cover sub-word widths,
// a partial-mask store (the highest lane's value lands) and an
// out-of-bounds address.
func TestMemFastPathParity(t *testing.T) {
	const memSize = 1 << 16
	unit := func(base uint32) func(int, int) uint32 {
		return func(lane, _ int) uint32 { return base + uint32(lane)*4 }
	}
	// lastOOB puts lanes 0..n-2 in bounds and lane n-1 just past the end.
	lastOOB := func(lane, n int) uint32 { return memSize - uint32(n-1-lane)*4 }
	// lastOff shifts the last lane off the unit-stride line by d bytes.
	lastOff := func(d uint32) func(int, int) uint32 {
		return func(lane, n int) uint32 { return 0x1000 + uint32(lane)*4 + boolBit(lane == n-1)*d }
	}
	same := func(a uint32) func(int, int) uint32 { return func(int, int) uint32 { return a } }
	cases := []memCase{
		{"unit/full", isa.LW, unit(0x1000), 0},
		{"unit/run", isa.LW, unit(0x1000), 0x0FF0},
		{"unit/scattered-mask", isa.LW, unit(0x1000), 0x5A5A},
		{"unit/one-lane", isa.LW, unit(0x1000), 0x100},
		{"unit/last-oob", isa.LW, lastOOB, 0},
		{"unit/last-misaligned", isa.LW, lastOff(2), 0},
		{"unit/base-misaligned", isa.LW, unit(0x1002), 0},
		{"unit/wraps", isa.LW, unit(^uint32(0) - 7), 0},
		{"unit/x0", isa.LW, unit(0x1000), 0},
		{"unit/rd=rs1", isa.LW, unit(0x1000), 0},
		{"unit/flw", isa.FLW, unit(0x2000), 0},
		{"unit/store-full", isa.SW, unit(0x1000), 0},
		{"unit/store-run", isa.SW, unit(0x1000), 0x00FFFF00},
		{"unit/store-scattered", isa.SW, unit(0x1000), 0x80000001},
		{"unit/store-last-oob", isa.SW, lastOOB, 0},
		{"unit/store-last-misaligned", isa.SW, lastOff(1), 0},
		{"unit/fsw", isa.FSW, unit(0x3000), 0},
		{"unit/byte-store", isa.SB, unit(0x1000), 0},
		{"broadcast/lw", isa.LW, same(0x1234 &^ 3), 0x0F0F},
		{"broadcast/lh", isa.LH, same(0x1236), 0},
		{"broadcast/lbu", isa.LBU, same(0x1237), 0xFF},
		{"broadcast/store", isa.SW, same(0x4000), 0x0F0F00F0},
		{"broadcast/sh", isa.SH, same(0x4002), 0},
		{"broadcast/oob", isa.SW, same(memSize), 0x6},
		{"broadcast/misaligned", isa.LW, same(0x4001), 0x6},
		{"strided", isa.LW, func(l, _ int) uint32 { return 0x800 + uint32(l)*68 }, 0},
		{"strided/store", isa.SW, func(l, _ int) uint32 { return 0x800 + uint32(l)*132 }, 0},
	}
	for _, threads := range []int{32, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/t%d", tc.name, threads), func(t *testing.T) {
				checkMemParity(t, tc, threads, memSize)
			})
		}
	}
}

func checkMemParity(t *testing.T, tc memCase, threads int, memSize uint32) {
	cfg := DefaultConfig(1, 1, threads)
	memory := mem.NewMemory(memSize)
	hier, err := mem.NewHierarchy(1, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateWarp(0, 0, 0x1000, s.fullMask); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(tc.name))))
	image := make([]byte, memSize)
	rng.Read(image)
	if err := memory.WriteBytes(0, image); err != nil {
		t.Fatal(err)
	}
	c := &s.cores[0]
	w := &c.warps[0]
	for i := range w.regs {
		w.regs[i], w.fregs[i] = rng.Uint32(), rng.Uint32()
	}
	clear(row(w.regs, 0, threads))
	in := isa.Inst{Op: tc.op, Rd: 7, Rs1: 5, Rs2: 6}
	switch tc.name {
	case "unit/x0":
		in.Rd = 0
	case "unit/rd=rs1":
		in.Rd = in.Rs1
	}
	for lane := 0; lane < threads; lane++ {
		w.regs[int(in.Rs1)*threads+lane] = tc.addrs(lane, threads)
	}
	w.tmask = s.fullMask
	if m := tc.mask; m != 0 {
		for m > s.fullMask { // fold the 32-lane mask onto narrower warps
			m = m&s.fullMask | m>>uint(threads)
		}
		w.tmask = m
	}

	wantRegs, wantFRegs := slices.Clone(w.regs), slices.Clone(w.fregs)
	wantImage := slices.Clone(image)
	wantReason := refMemAccess(wantImage, wantRegs, wantFRegs, threads, w.tmask, in)

	d := decode(in, cfg.Lat)
	_, err = s.executeMem(c, 0, w, &d)
	gotReason := ""
	if err != nil {
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("non-trap error %v", err)
		}
		gotReason = trap.Reason
	}
	if gotReason != wantReason {
		t.Errorf("trap reason %q, want %q", gotReason, wantReason)
	}
	if wantReason != "" && !slices.Equal(wantImage, image) {
		t.Fatal("reference model wrote memory on a trap")
	}
	gotImage, err := memory.ReadBytes(0, memSize)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotImage, wantImage) {
		t.Error("memory bytes differ from the per-lane reference")
	}
	if !slices.Equal(w.regs, wantRegs) || !slices.Equal(w.fregs, wantFRegs) {
		t.Error("registers differ from the per-lane reference")
	}
}

// TestMemTimingOccupancy pins memTiming's division-free LSU accounting:
// for LSUPorts 1-9 and 1-64 line requests the LSU stays busy
// ceil(lines/ports) cycles, and the completion cycle equals that of the
// same lines issued at cycle + i/ports into an identical hierarchy — cold,
// and warm, where every line hits and the last issue cycle sets the
// completion.
func TestMemTimingOccupancy(t *testing.T) {
	const start = 1000
	for ports := 1; ports <= 9; ports++ {
		for n := 1; n <= 64; n++ {
			for _, warm := range []bool{false, true} {
				cfg := DefaultConfig(1, 1, 32)
				cfg.LSUPorts = ports
				hier, err := mem.NewHierarchy(1, cfg.Mem)
				if err != nil {
					t.Fatal(err)
				}
				s, err := New(cfg, mem.NewMemory(1<<20), hier)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := mem.NewHierarchy(1, cfg.Mem)
				if err != nil {
					t.Fatal(err)
				}
				lines := make([]uint32, n)
				for i := range lines {
					lines[i] = uint32(i*i%97) << 6 // repeats: hits and misses mixed
					if warm {
						hier.Access(0, lines[i], false, 0)
						ref.Access(0, lines[i], false, 0)
					}
				}
				var want uint64
				for i, line := range lines {
					want = max(want, ref.Access(0, line, false, start+uint64(i/ports)).Done)
				}
				s.cycle = start
				c := &s.cores[0]
				got := s.memTiming(c, false, lines)
				if got != want {
					t.Errorf("ports=%d lines=%d warm=%v: done %d, want %d", ports, n, warm, got, want)
				}
				if busy, ceil := c.lsuFree-start, uint64((n+ports-1)/ports); busy != ceil {
					t.Errorf("ports=%d lines=%d: LSU busy %d cycles, want %d", ports, n, busy, ceil)
				}
				if c.stats.LineRequests != uint64(n) || c.stats.Loads != 1 {
					t.Errorf("ports=%d lines=%d: stats %+v", ports, n, c.stats)
				}
			}
		}
	}
}

// TestIntALURowsMatchPerLane holds the dense, once-dispatched lane loops of
// intALURow/intALUImmRow to the per-lane intALU/intALUImm reference: every
// op, dense and sparse masks, inactive lanes untouched.
func TestIntALURowsMatchPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func() []uint32 {
		r := make([]uint32, 32)
		for i := range r {
			r[i] = rng.Uint32()
		}
		r[3], r[4] = 0x80000000, 0xFFFFFFFF // MinInt32 / -1 for DIV and REM
		r[5] = 0
		return r
	}
	masks := []uint64{1, 0xF, 0xFF, 0xFFFFFFFF, 0xF0, 0x80000001, rng.Uint64() & 0xFFFFFFFF}
	tested := 0
	for op := isa.ADDI; op <= isa.REMU; op++ {
		reg := op >= isa.ADD && op <= isa.AND || op >= isa.MUL && op <= isa.REMU
		if !reg && !(op >= isa.ADDI && op <= isa.SRAI) {
			continue
		}
		tested++
		for _, tm := range masks {
			a, b, old := row(), row(), row()
			imm := int32(b[7])
			got, want := slices.Clone(old), slices.Clone(old)
			if reg {
				intALURow(op, got, a, b, tm)
			} else {
				intALUImmRow(op, got, a, imm, tm)
			}
			for l := range want {
				switch {
				case tm>>l&1 == 0:
				case reg:
					want[l] = intALU(op, a[l], b[l])
				default:
					want[l] = intALUImm(op, a[l], imm)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s mask %#x: got %x, want %x", op, tm, got, want)
			}
		}
	}
	if tested != 27 {
		t.Fatalf("tested %d ops, want the 27 integer ALU ops", tested)
	}
}

// intALU is the per-lane reference of the register-register integer ops.
func intALU(op isa.Op, a, b uint32) uint32 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.SLL:
		return a << (b & 31)
	case isa.SLT:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case isa.SLTU:
		if a < b {
			return 1
		}
		return 0
	case isa.XOR:
		return a ^ b
	case isa.SRL:
		return a >> (b & 31)
	case isa.SRA:
		return uint32(int32(a) >> (b & 31))
	case isa.OR:
		return a | b
	case isa.AND:
		return a & b
	case isa.MUL:
		return a * b
	case isa.MULH:
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
	case isa.MULHSU:
		return uint32(uint64(int64(int32(a))*int64(b)) >> 32)
	case isa.MULHU:
		return uint32(uint64(a) * uint64(b) >> 32)
	case isa.DIV:
		if b == 0 {
			return ^uint32(0)
		}
		if int32(a) == math.MinInt32 && int32(b) == -1 {
			return a
		}
		return uint32(int32(a) / int32(b))
	case isa.DIVU:
		if b == 0 {
			return ^uint32(0)
		}
		return a / b
	case isa.REM:
		if b == 0 {
			return a
		}
		if int32(a) == math.MinInt32 && int32(b) == -1 {
			return 0
		}
		return uint32(int32(a) % int32(b))
	case isa.REMU:
		if b == 0 {
			return a
		}
		return a % b
	}
	panic("intALU: bad op " + op.String())
}

// intALUImm is the per-lane reference of the register-immediate ops.
func intALUImm(op isa.Op, a uint32, imm int32) uint32 {
	switch op {
	case isa.ADDI:
		return a + uint32(imm)
	case isa.SLTI:
		if int32(a) < imm {
			return 1
		}
		return 0
	case isa.SLTIU:
		if a < uint32(imm) {
			return 1
		}
		return 0
	case isa.XORI:
		return a ^ uint32(imm)
	case isa.ORI:
		return a | uint32(imm)
	case isa.ANDI:
		return a & uint32(imm)
	case isa.SLLI:
		return a << uint(imm&31)
	case isa.SRLI:
		return a >> uint(imm&31)
	case isa.SRAI:
		return uint32(int32(a) >> uint(imm&31))
	}
	panic("intALUImm: bad op " + op.String())
}
