package sim

import (
	"math/bits"

	"repro/internal/isa"
)

// decoded is one instruction as the issue path consumes it, resolved once
// by LoadProgram against the device's latencies: fetch, the scoreboard,
// execute and executeMem read this record and nothing else that is static.
//
// Scoreboard slots index warp.pend: x0-x31 are slots 0-31, f0-f31 slots
// 32-63. Slot 0 (x0) is never written, so its completion stays 0 and an
// unused or x0 entry in slots adds nothing to the readiness max.
type decoded struct {
	in isa.Inst
	// slots are the registers the instruction reads or writes, the set the
	// isa predicates name; the write is included so a result cannot land
	// under an older, slower one still in flight.
	slots [4]uint8
	dst   uint8 // slot the result lands in; 0 when there is none (or it is x0)
	// Memory operands: access width in bytes, and the slot of the register
	// whose row the access reads (store) or writes (load); noData for an
	// integer load into x0, which is dropped.
	size    uint8
	data    uint8
	isMem   bool
	store   bool
	invalid bool   // a data word or malformed instruction: fetching it traps
	lat     uint64 // result latency of a non-memory op (its cfg.Lat class)
}

// noData marks a load whose result is dropped (decoded.data).
const noData = 0xFF

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
	if in.ReadsIntRs1() {
		use(in.Rs1)
	}
	if in.ReadsIntRs2() {
		use(in.Rs2)
	}
	if in.ReadsFloatRs1() {
		use(floatSlot(in.Rs1))
	}
	if in.ReadsFloatRs2() {
		use(floatSlot(in.Rs2))
	}
	if in.ReadsFloatRs3() {
		use(floatSlot(in.Rs3))
	}
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
	switch {
	case d.store && in.Op == isa.FSW:
		d.data = floatSlot(in.Rs2)
	case d.store:
		d.data = in.Rs2
	case d.isMem && d.dst == 0:
		d.data = noData
	case d.isMem:
		d.data = d.dst
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
// is free: the latest pending completion among its scoreboard slots.
func regsReadyAt(w *warp, d *decoded) uint64 {
	p := &w.pend
	return max(p[d.slots[0]&63], p[d.slots[1]&63], p[d.slots[2]&63], p[d.slots[3]&63])
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
