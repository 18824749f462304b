package sim

// Register files: as the accessors see them across a program loaded while a
// warp of an earlier one is still active and across Reset and Reshape, and
// the program-sized layout behind them.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// growA and growB share their first seven instructions: warp 0 loops there,
// warp 1 takes the short path. growB's loop exit names f5, f6, s5 and s6,
// which growA never does.
const growA = `
	csrr t0, wid
	bnez t0, short
	li   t1, 0
	li   t2, 60
loop:
	addi t1, t1, 1
	mul  t3, t1, t1
	blt  t1, t2, loop
	ecall
short:
	li   a0, 7
	ecall
`

const growB = `
	csrr t0, wid
	bnez t0, short
	li   t1, 0
	li   t2, 60
loop:
	addi t1, t1, 1
	mul  t3, t1, t1
	blt  t1, t2, loop
	fcvt.s.w f5, t3
	fadd.s   f6, f5, f5
	csrr     s6, tid
	add      s5, t3, s6
	ecall
short:
	li   a0, 7
	ecall
`

// TestLoadProgramWhileWarpActive stops growA at a MaxCycles deadline with
// warp 0 inside its loop and warp 1 retired, loads growB over it and runs
// to the end: warp 0 keeps its loop registers, finishes growB's tail, and
// every register of both warps — read through Reg and FReg — and the run's
// cycle and statistics are held to their frozen digest.
func TestLoadProgramWhileWarpActive(t *testing.T) {
	cfg := DefaultConfig(1, 2, 4)
	cfg.MaxCycles = 100
	s := newDiffSim(t, cfg, growA, activateAll(cfg, 2, 0xF))
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "exceeded cycle limit") {
		t.Fatalf("first run: err %v, want the deadline", err)
	}
	if a0, _ := s.WarpActive(0, 0); !a0 {
		t.Fatal("warp 0 retired before the deadline")
	}
	if a1, _ := s.WarpActive(0, 1); a1 {
		t.Fatal("warp 1 still active at the deadline")
	}
	p, err := asm.Assemble(growB, 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		t.Fatal(err)
	}
	s.cfg.MaxCycles = 0
	mustRun(t, s)

	reg := func(read func(core, warp, lane int, r uint8) (uint32, error), w, lane int, r uint8) uint32 {
		v, err := read(0, w, lane, r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for lane := 0; lane < 4; lane++ {
		for _, c := range []struct {
			name      string
			got, want uint32
		}{
			{"warp 0 t1", reg(s.Reg, 0, lane, 6), 60},
			{"warp 0 t3", reg(s.Reg, 0, lane, 28), 3600},
			{"warp 0 s5", reg(s.Reg, 0, lane, 21), 3600 + uint32(lane)},
			{"warp 0 f6", reg(s.FReg, 0, lane, 6), math.Float32bits(7200)},
			{"warp 1 a0", reg(s.Reg, 1, lane, 10), 7},
			{"warp 1 t1", reg(s.Reg, 1, lane, 6), 0},
			{"warp 1 f5", reg(s.FReg, 1, lane, 5), 0},
		} {
			if c.got != c.want {
				t.Errorf("lane %d %s = %d, want %d", lane, c.name, c.got, c.want)
			}
		}
	}
	var regs []uint32
	for w := 0; w < 2; w++ {
		for lane := 0; lane < 4; lane++ {
			for r := uint8(0); r < 32; r++ {
				regs = append(regs, reg(s.Reg, w, lane, r), reg(s.FReg, w, lane, r))
			}
		}
	}
	CheckEngineDigest(t, "", digestOf(regs, s.Cycle(), s.CoreStatsOf(0)))
}

// TestResetForgetsRegisters: Reset and Reshape promise the freshly
// constructed state, so registers the last run wrote read 0 afterwards —
// through Reg and FReg, before and after the next program is loaded, and
// to that program, which reads them before writing anything.
func TestResetForgetsRegisters(t *testing.T) {
	read := func(t *testing.T, s *Sim, r uint8, float bool) uint32 {
		t.Helper()
		get := s.Reg
		if float {
			get = s.FReg
		}
		v, err := get(0, 0, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, rewind := range []string{"reset", "reshape"} {
		t.Run(rewind, func(t *testing.T) {
			s := rig(t, cfg1c1w1t(), "li t0, 77\nfmv.w.x f1, t0\necall", nil)
			mustRun(t, s)
			if t0, f1 := read(t, s, 5, false), read(t, s, 1, true); t0 != 77 || f1 != 77 {
				t.Fatalf("after the run t0, f1 = %d, %d, want 77, 77", t0, f1)
			}
			if rewind == "reset" {
				s.Reset()
			} else if err := s.Reshape(s.cfg, s.memory, s.hier); err != nil {
				t.Fatal(err)
			}
			if t0, f1 := read(t, s, 5, false), read(t, s, 1, true); t0 != 0 || f1 != 0 {
				t.Errorf("after %s t0, f1 = %d, %d, want 0, 0 (a fresh Sim's)", rewind, t0, f1)
			}
			p, err := asm.Assemble("addi t1, t0, 1\nfmv.x.w t2, f1\necall", 0x1000, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LoadProgram(p.Base, p.Insts); err != nil {
				t.Fatal(err)
			}
			if t0, f1 := read(t, s, 5, false), read(t, s, 1, true); t0 != 0 || f1 != 0 {
				t.Errorf("after %s and a load t0, f1 = %d, %d, want 0, 0 (not activated since)", rewind, t0, f1)
			}
			if err := s.ActivateWarp(0, 0, 0x1000, 1); err != nil {
				t.Fatal(err)
			}
			mustRun(t, s)
			if t1, t2 := read(t, s, 6, false), read(t, s, 7, false); t1 != 1 || t2 != 0 {
				t.Errorf("next program read t0+1, f1 = %d, %d, want 1, 0", t1, t2)
			}
		})
	}
}

// TestProgramSizedLayout holds the register layout to its rules: a row per
// slot the loaded programs name and none for any other, x0 at row 0, every
// record field the row of the slot decode gives it; rows only added between
// Resets, with active warps fitted and inactive ones left alone; and Reset
// dropping the layout and every warp's rows.
func TestProgramSizedLayout(t *testing.T) {
	cfg := DefaultConfig(1, 3, 4)
	s := rigNoStart(t, cfg, growA, nil)
	check := func(prog []isa.Inst, named map[uint8]bool) {
		t.Helper()
		for _, in := range prog {
			d := decode(in, s.cfg.Lat)
			for _, slot := range append(d.slots[:], d.dst, d.rs1, d.rs2, d.rs3) {
				if slot != 0 {
					named[slot] = true
				}
			}
		}
		if s.nrows != 1+len(named) {
			t.Errorf("%d rows for %d named slots, want one more for x0", s.nrows, len(named))
		}
		rows := map[uint8]uint8{}
		for slot, r := range s.rowOf {
			switch {
			case !named[uint8(slot)] && r != 0:
				t.Errorf("unnamed slot %d has row %d", slot, r)
			case named[uint8(slot)] && (r == 0 || int(r) >= s.nrows):
				t.Errorf("named slot %d has row %d of %d", slot, r, s.nrows)
			case r != 0 && rows[r] != 0:
				t.Errorf("slots %d and %d share row %d", rows[r], slot, r)
			}
			if r != 0 {
				rows[r] = uint8(slot)
			}
		}
		for i, in := range prog {
			want := decode(in, s.cfg.Lat)
			for k, slot := range want.slots {
				want.slots[k] = s.rowOf[slot]
			}
			want.dst, want.rs1, want.rs2, want.rs3 = s.rowOf[want.dst], s.rowOf[want.rs1], s.rowOf[want.rs2], s.rowOf[want.rs3]
			if s.dec[i] != want {
				t.Errorf("record %d (%s) = %+v, want %+v", i, in.Op, s.dec[i], want)
			}
		}
	}
	fits := func(wid, rows int) {
		t.Helper()
		w := &s.cores[0].warps[wid]
		if len(w.regs) != rows*cfg.Threads || len(w.pend) != rows {
			t.Errorf("warp %d holds %d words and %d completions, want %d rows", wid, len(w.regs), len(w.pend), rows)
		}
	}

	named := map[uint8]bool{}
	check(asm.MustAssemble(growA, 0x1000, nil).Insts, named)
	rowsA := s.nrows
	rowOfA := s.rowOf
	for wid := 0; wid < 2; wid++ {
		if err := s.ActivateWarp(0, wid, 0x1000, 0xF); err != nil {
			t.Fatal(err)
		}
		fits(wid, rowsA)
	}
	s.cores[0].warps[1].active = false // as if it had retired
	p, err := asm.Assemble(growB, 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		t.Fatal(err)
	}
	check(p.Insts, named)
	if s.nrows <= rowsA {
		t.Fatalf("growB added no rows to growA's %d", rowsA)
	}
	for slot, r := range rowOfA {
		if r != 0 && s.rowOf[slot] != r {
			t.Errorf("slot %d moved from row %d to %d", slot, r, s.rowOf[slot])
		}
	}
	fits(0, s.nrows)
	fits(1, rowsA)
	fits(2, 0)

	s.Reset()
	if s.nrows != 1 || s.rowOf != [64]uint8{} {
		t.Errorf("Reset left %d rows, layout %v", s.nrows, s.rowOf)
	}
	for wid := 0; wid < 3; wid++ {
		fits(wid, 0)
	}
}
