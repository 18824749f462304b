package sim

import (
	"math/bits"

	"repro/internal/isa"
)

// decoded is one instruction as the issue path consumes it, resolved once
// by LoadProgram against the device's latencies and the register layout:
// fetch, the scoreboard, execute and executeMem read this record and
// nothing else that is static.
//
// decode fills the register fields with scoreboard slots — x0-x31 are
// slots 0-31, f0-f31 slots 32-63 — and remap then rewrites every one to the
// slot's row in the per-warp register file and scoreboard (layout.go). x0
// is row 0, which is never written: its value and completion stay 0, so an
// unused or x0 entry reads zero and adds nothing to the readiness max.
type decoded struct {
	in isa.Inst
	// slots are the registers the instruction reads or writes, the set the
	// isa predicates name; the write is included so a result cannot land
	// under an older, slower one still in flight.
	slots [4]uint8
	// dst is the register the result lands in (rd in the file the op
	// writes; a load's data register), 0 when there is none or it is x0;
	// rs1-rs3 are the operands the op reads, each in the file the op reads
	// it from (a store's data register is rs2), 0 when unread.
	dst, rs1, rs2, rs3 uint8

	size    uint8 // memory access width in bytes
	isMem   bool
	store   bool
	invalid bool   // a data word or malformed instruction: fetching it traps
	lat     uint64 // result latency of a non-memory op (its cfg.Lat class)
}

// floatSlot is the scoreboard slot of float register r.
func floatSlot(r uint8) uint8 { return 32 + r }

// decode resolves in into its issue record under latencies lat.
func decode(in isa.Inst, lat Latencies) decoded {
	d := decoded{in: in, invalid: in.Op == isa.OpInvalid, isMem: in.IsMem(), store: in.IsStore()}
	n := 0
	use := func(slot uint8) {
		if slot != 0 {
			d.slots[n] = slot
			n++
		}
	}
	switch {
	case in.ReadsIntRs1():
		d.rs1 = in.Rs1
	case in.ReadsFloatRs1():
		d.rs1 = floatSlot(in.Rs1)
	}
	switch {
	case in.ReadsIntRs2():
		d.rs2 = in.Rs2
	case in.ReadsFloatRs2():
		d.rs2 = floatSlot(in.Rs2)
	}
	if in.ReadsFloatRs3() {
		d.rs3 = floatSlot(in.Rs3)
	}
	use(d.rs1)
	use(d.rs2)
	use(d.rs3)
	switch {
	case in.WritesInt():
		d.dst = in.Rd
	case in.WritesFloat():
		d.dst = floatSlot(in.Rd)
	}
	use(d.dst)

	switch in.Op {
	case isa.LB, isa.LBU, isa.SB:
		d.size = 1
	case isa.LH, isa.LHU, isa.SH:
		d.size = 2
	case isa.LW, isa.SW, isa.FLW, isa.FSW:
		d.size = 4
	}
	if !d.isMem && (in.WritesInt() || in.WritesFloat()) {
		d.lat = uint64(latencyClass(in.Op, lat))
	}
	return d
}

// latencyClass returns the functional-unit latency of a register-writing
// non-memory op.
func latencyClass(op isa.Op, lat Latencies) int {
	switch op {
	case isa.MUL, isa.MULH, isa.MULHSU, isa.MULHU:
		return lat.Mul
	case isa.DIV, isa.DIVU, isa.REM, isa.REMU:
		return lat.Div
	case isa.FADDS, isa.FSUBS, isa.FSGNJS, isa.FSGNJNS, isa.FSGNJXS, isa.FMINS, isa.FMAXS,
		isa.FCVTSW, isa.FCVTSWU, isa.FMVWX,
		isa.FEQS, isa.FLTS, isa.FLES, isa.FCVTWS, isa.FCVTWUS, isa.FMVXW, isa.FCLASSS:
		return lat.FAdd
	case isa.FMULS:
		return lat.FMul
	case isa.FMADDS, isa.FMSUBS, isa.FNMSUBS, isa.FNMADDS:
		return lat.FMA
	case isa.FDIVS:
		return lat.FDiv
	case isa.FSQRTS:
		return lat.FSqrt
	}
	return lat.ALU
}

// regsReadyAt returns the earliest cycle every register d reads or writes
// is free: the latest pending completion among its scoreboard rows.
func regsReadyAt(w *warp, d *decoded) uint64 {
	p := w.pend
	return max(p[d.slots[0]], p[d.slots[1]], p[d.slots[2]], p[d.slots[3]])
}

// fetchIndex returns the program index of pc, or a value at least
// len(prog) when pc lies outside the program or is misaligned: rotating the
// two alignment bits to the top folds the alignment check into the bounds
// check (programs are far shorter than 2^30 instructions).
func (s *Sim) fetchIndex(pc uint32) uint32 {
	return bits.RotateLeft32(pc-s.progBase, -2)
}

// fetchTrap is the trap of a warp whose pc fails fetch: outside the
// program, or at a word that does not decode to an instruction.
func (s *Sim) fetchTrap(c *simCore, wid int, w *warp) error {
	reason := "executed data word / invalid instruction"
	if s.fetchIndex(w.pc) >= uint32(len(s.dec)) {
		reason = "instruction fetch outside program"
	}
	return &Trap{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Reason: reason}
}
