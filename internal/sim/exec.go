package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
)

// execute runs one issued instruction on warp w (functionally at issue,
// with latencies applied through the scoreboard) and advances the pc.
// Lane loops are written out explicitly: this function runs once per
// simulated instruction and must not allocate.
func (s *Sim) execute(c *simCore, wid int, w *warp, in isa.Inst) error {
	if s.observer != nil {
		s.observer(IssueEvent{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Mask: w.tmask, Inst: in})
	}
	c.stats.Issued++
	c.stats.LaneOps += uint64(bits.OnesCount64(w.tmask))

	nextPC := w.pc + 4
	lat := s.cfg.Lat
	op := in.Op
	rd, rs1, rs2 := int(in.Rd), int(in.Rs1), int(in.Rs2)
	n := s.cfg.Threads
	regs := w.regs

	switch {
	case op >= isa.ADD && op <= isa.AND || op >= isa.MUL && op <= isa.REMU:
		if rd != 0 {
			intALURow(op, row(regs, rd, n), row(regs, rs1, n), row(regs, rs2, n), w.tmask)
			w.pendI[rd] = s.cycle + uint64(intLatency(op, lat))
		}

	case op >= isa.ADDI && op <= isa.SRAI:
		if rd != 0 {
			intALUImmRow(op, row(regs, rd, n), row(regs, rs1, n), in.Imm, w.tmask)
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op == isa.LUI:
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, uint32(in.Imm))
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op == isa.AUIPC:
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, w.pc+uint32(in.Imm))
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op == isa.JAL:
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, w.pc+4)
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}
		nextPC = w.pc + uint32(in.Imm)

	case op == isa.JALR:
		var target uint32
		first := true
		a := row(regs, rs1, n)
		for m := w.tmask; m != 0; m &= m - 1 {
			t := (a[bits.TrailingZeros64(m)] + uint32(in.Imm)) &^ 1
			if first {
				target, first = t, false
			} else if t != target {
				return s.trapf(c, wid, w, "divergent jalr target across lanes")
			}
		}
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, w.pc+4)
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}
		nextPC = target

	case in.IsBranch():
		var taken, first = false, true
		a, b := row(regs, rs1, n), row(regs, rs2, n)
		for m := w.tmask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			t := branchTaken(op, a[l], b[l])
			if first {
				taken, first = t, false
			} else if t != taken {
				return s.trapf(c, wid, w, "divergent %s across active lanes (use vx_split/vx_join)", op)
			}
		}
		if taken {
			nextPC = w.pc + uint32(in.Imm)
		}

	case in.IsMem():
		done, err := s.executeMem(c, wid, w, in)
		if err != nil {
			return err
		}
		if in.IsLoad() {
			if op == isa.FLW {
				w.pendF[rd] = done
			} else if rd != 0 {
				w.pendI[rd] = done
			}
		}

	case op == isa.FENCE:
		// Memory ordering is trivially satisfied: the model performs all
		// functional accesses at issue, in order. FENCE is a 1-cycle nop.

	case op == isa.ECALL:
		// Kernel exit for the issuing warp. The issuing warp is always in
		// the ready set, so deactivation leaves it in neither scheduler set.
		w.active = false
		c.active--
		c.ready &^= 1 << uint(wid)

	case op == isa.EBREAK:
		return s.trapf(c, wid, w, "ebreak")

	case op >= isa.CSRRW && op <= isa.CSRRCI:
		if op != isa.CSRRS || rs1 != 0 {
			return s.trapf(c, wid, w, "only csrr (csrrs rd, csr, zero) is supported; CSRs are read-only")
		}
		for m := w.tmask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			v, err := s.csrRead(c, wid, w, lane, in.CSR)
			if err != nil {
				return s.trapf(c, wid, w, "%v", err)
			}
			if rd != 0 {
				regs[rd*n+lane] = v
			}
		}
		if rd != 0 {
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op >= isa.FADDS && op <= isa.FNMADDS:
		if err := s.executeFP(w, in); err != nil {
			return s.trapf(c, wid, w, "%v", err)
		}
		switch op {
		case isa.FADDS, isa.FSUBS, isa.FSGNJS, isa.FSGNJNS, isa.FSGNJXS, isa.FMINS, isa.FMAXS,
			isa.FCVTSW, isa.FCVTSWU, isa.FMVWX:
			w.pendF[rd] = s.cycle + uint64(lat.FAdd)
		case isa.FMULS:
			w.pendF[rd] = s.cycle + uint64(lat.FMul)
		case isa.FMADDS, isa.FMSUBS, isa.FNMSUBS, isa.FNMADDS:
			w.pendF[rd] = s.cycle + uint64(lat.FMA)
		case isa.FDIVS:
			w.pendF[rd] = s.cycle + uint64(lat.FDiv)
		case isa.FSQRTS:
			w.pendF[rd] = s.cycle + uint64(lat.FSqrt)
		case isa.FEQS, isa.FLTS, isa.FLES, isa.FCVTWS, isa.FCVTWUS, isa.FMVXW, isa.FCLASSS:
			if rd != 0 {
				w.pendI[rd] = s.cycle + uint64(lat.FAdd)
			}
		}

	case op == isa.VXTMC:
		nm := uint64(firstLaneValue(w, rs1, n)) & s.fullMask
		if nm == 0 {
			w.active = false
			c.active--
			c.ready &^= 1 << uint(wid)
		} else {
			w.tmask = nm
		}

	case op == isa.VXWSPAWN:
		count := int(firstLaneValue(w, rs1, n))
		entry := firstLaneValue(w, rs2, n)
		if count > s.cfg.Warps {
			count = s.cfg.Warps
		}
		for k := 1; k < count; k++ {
			tgt := &c.warps[k]
			if tgt.active {
				return s.trapf(c, wid, w, "vx_wspawn: warp %d already active", k)
			}
			s.resetWarp(tgt, entry, 1)
			c.ready |= 1 << uint(k)
			c.active++
		}

	case op == isa.VXSPLIT:
		if len(w.ipdom) >= maxIPDOMDepth {
			return s.trapf(c, wid, w, "IPDOM stack overflow")
		}
		pred := predMask(w, rs1, n)
		then := w.tmask & pred
		els := w.tmask &^ pred
		if then == 0 || els == 0 {
			// Unanimous: push a marker so the matching join pops cleanly.
			w.ipdom = append(w.ipdom, ipdomEntry{mask: w.tmask, reconv: true})
		} else {
			w.ipdom = append(w.ipdom,
				ipdomEntry{mask: w.tmask, reconv: true},
				ipdomEntry{mask: els, pc: w.pc + 4})
			w.tmask = then
		}

	case op == isa.VXJOIN:
		if len(w.ipdom) == 0 {
			return s.trapf(c, wid, w, "vx_join with empty IPDOM stack")
		}
		e := w.ipdom[len(w.ipdom)-1]
		w.ipdom = w.ipdom[:len(w.ipdom)-1]
		w.tmask = e.mask
		if !e.reconv {
			nextPC = e.pc
		}

	case op == isa.VXBAR:
		id := int(firstLaneValue(w, rs1, n))
		count := int(firstLaneValue(w, rs2, n))
		if id < 0 || id >= maxBarriers {
			return s.trapf(c, wid, w, "barrier id %d out of range", id)
		}
		if count > s.cfg.Warps {
			return s.trapf(c, wid, w, "barrier count %d exceeds %d warps", count, s.cfg.Warps)
		}
		if count > 1 {
			b := &c.barriers[id]
			b.arrived++
			if b.arrived >= count {
				// Release everyone (the arriving warp never blocks). Waiters
				// re-enter the scheduler's ready set: a released warp's next
				// attempt re-decodes at its post-barrier pc.
				for m := b.waiters; m != 0; m &= m - 1 {
					c.warps[bits.TrailingZeros64(m)].barWait = false
				}
				c.ready |= b.waiters
				*b = barrier{}
				if c.nextWake > s.cycle {
					c.nextWake = s.cycle
				}
			} else {
				b.waiters |= 1 << uint(wid)
				w.barWait = true
				c.ready &^= 1 << uint(wid)
			}
		}

	case op == isa.VXPRED:
		if nm := w.tmask & predMask(w, rs1, n); nm != 0 {
			w.tmask = nm
		}

	case op == isa.VXBALLOT:
		count := uint32(bits.OnesCount64(w.tmask & predMask(w, rs1, n)))
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, count)
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	default:
		return s.trapf(c, wid, w, "unimplemented op %s", op)
	}

	w.pc = nextPC
	return nil
}

func (s *Sim) trapf(c *simCore, wid int, w *warp, format string, args ...any) error {
	return &Trap{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Reason: fmt.Sprintf(format, args...)}
}

// row returns register r's lanes of a register-major file of n-lane warps.
func row(regs []uint32, r, n int) []uint32 { return regs[r*n : r*n+n] }

// setLanes writes v to the active lanes of a register row.
func setLanes(dst []uint32, tmask uint64, v uint32) {
	for m := tmask; m != 0; m &= m - 1 {
		dst[bits.TrailingZeros64(m)] = v
	}
}

// intALURow applies register-register op to the active lanes of rows a
// and b. A mask covering lanes 0..k-1 (every full warp) runs a dense loop,
// with the commonest ops dispatched once per warp rather than once per lane.
func intALURow(op isa.Op, dst, a, b []uint32, tmask uint64) {
	if tmask&(tmask+1) != 0 {
		for m := tmask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = intALU(op, a[l], b[l])
		}
		return
	}
	k := bits.Len64(tmask)
	dst, a, b = dst[:k], a[:k], b[:k]
	switch op {
	case isa.ADD:
		for l := range dst {
			dst[l] = a[l] + b[l]
		}
	case isa.SUB:
		for l := range dst {
			dst[l] = a[l] - b[l]
		}
	case isa.AND:
		for l := range dst {
			dst[l] = a[l] & b[l]
		}
	case isa.OR:
		for l := range dst {
			dst[l] = a[l] | b[l]
		}
	case isa.XOR:
		for l := range dst {
			dst[l] = a[l] ^ b[l]
		}
	case isa.MUL:
		for l := range dst {
			dst[l] = a[l] * b[l]
		}
	default:
		for l := range dst {
			dst[l] = intALU(op, a[l], b[l])
		}
	}
}

// intALUImmRow is intALURow for the register-immediate ops.
func intALUImmRow(op isa.Op, dst, a []uint32, imm int32, tmask uint64) {
	if tmask&(tmask+1) != 0 {
		for m := tmask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = intALUImm(op, a[l], imm)
		}
		return
	}
	k := bits.Len64(tmask)
	dst, a = dst[:k], a[:k]
	switch op {
	case isa.ADDI:
		for l := range dst {
			dst[l] = a[l] + uint32(imm)
		}
	case isa.SLLI:
		for l := range dst {
			dst[l] = a[l] << uint(imm&31)
		}
	default:
		for l := range dst {
			dst[l] = intALUImm(op, a[l], imm)
		}
	}
}

// predMask builds the lane mask of active lanes whose integer register r
// is non-zero (n lanes per warp).
func predMask(w *warp, r, n int) uint64 {
	var pred uint64
	a := row(w.regs, r, n)
	for m := w.tmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if a[lane] != 0 {
			pred |= 1 << uint(lane)
		}
	}
	return pred
}

// firstLaneValue reads integer register r of the lowest active lane.
func firstLaneValue(w *warp, r, n int) uint32 {
	return w.regs[r*n+bits.TrailingZeros64(w.tmask)]
}

// executeMem performs a load/store: functional access now, timing through
// the coalescer and hierarchy. It returns the cycle loaded data is ready.
//
// Every active lane is validated before any functional access, so a store
// warp that traps on a later lane never leaves earlier lanes' stores
// committed. Two address shapes skip the per-lane walk: a broadcast (every
// active lane at one address — uniform operands, single-lane warps) is
// checked and accessed once, and a unit-stride word access (active lanes
// one contiguous run at base+4*lane) is checked once as a span and copied
// in one piece between memory and the register row. Each knows its line
// list without coalescing. An access that fails its shape's check goes
// through the per-lane loop, which raises the same trap for the same lane.
func (s *Sim) executeMem(c *simCore, wid int, w *warp, in isa.Inst) (uint64, error) {
	size := uint32(4)
	switch in.Op {
	case isa.LB, isa.LBU, isa.SB:
		size = 1
	case isa.LH, isa.LHU, isa.SH:
		size = 2
	}
	isStore := in.IsStore()
	n := s.cfg.Threads
	tm := w.tmask
	imm := uint32(in.Imm)
	base := row(w.regs, int(in.Rs1), n)
	addrs := c.addrBuf[:n]

	// Gather lane addresses, noting any lane off the lowest active lane's
	// address (diff) and off the unit-stride line through it (off).
	lo := bits.TrailingZeros64(tm)
	first := base[lo] + imm
	var diff, off uint32
	for m := tm; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		addr := base[lane] + imm
		addrs[lane] = addr
		diff |= addr ^ first
		off |= addr ^ (first + uint32(lane-lo)*4)
	}
	// The register row the access reads (store) or writes (load); nil for
	// an integer load into x0, which is dropped.
	var data []uint32
	switch {
	case in.Op == isa.FLW:
		data = row(w.fregs, int(in.Rd), n)
	case in.Op == isa.FSW:
		data = row(w.fregs, int(in.Rs2), n)
	case isStore:
		data = row(w.regs, int(in.Rs2), n)
	case in.Rd != 0:
		data = row(w.regs, int(in.Rd), n)
	}

	shift := s.hier.LineShift()
	run := tm >> uint(lo)
	var lines []uint32
	switch {
	case diff == 0 && first&(size-1) == 0 && s.memory.InBounds(first, size):
		if isStore {
			// Lanes store in ascending order: the highest lane's value lands.
			s.store(in.Op, first, data[63-bits.LeadingZeros64(tm)])
		} else if data != nil {
			setLanes(data, tm, s.load(in.Op, first))
		}
		lines = append(c.lineBuf[:0], first>>shift<<shift)
	case size == 4 && off == 0 && run&(run+1) == 0 && first&3 == 0 &&
		s.memory.InBounds(first, uint32(bits.Len64(run))*4):
		width := bits.Len64(run)
		if isStore {
			s.memory.WriteWords(first, data[lo:lo+width])
		} else if data != nil {
			s.memory.ReadWords(first, data[lo:lo+width])
		}
		lines = mem.CoalesceUnit(first, width, shift, c.lineBuf)
	default:
		for m := tm; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			addr := addrs[lane]
			if !s.memory.InBounds(addr, size) {
				return 0, s.trapf(c, wid, w, "%s lane %d address %#x out of bounds (mem size %#x)", in.Op, lane, addr, s.memory.Size())
			}
			if addr&(size-1) != 0 {
				return 0, s.trapf(c, wid, w, "%s lane %d address %#x misaligned", in.Op, lane, addr)
			}
		}
		// Functional access, now that no lane can trap.
		for m := tm; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if isStore {
				s.store(in.Op, addrs[lane], data[lane])
			} else if data != nil {
				data[lane] = s.load(in.Op, addrs[lane])
			}
		}
		lines = mem.Coalesce(addrs, tm, shift, c.lineBuf)
	}
	if s.NoCoalesce {
		// Ablation A2: one request per active lane, in lane order.
		lines = lines[:0]
		for m := tm; m != 0; m &= m - 1 {
			lines = append(lines, addrs[bits.TrailingZeros64(m)]>>shift<<shift)
		}
	}
	// The line buffer is per-core and preallocated: this path runs once per
	// memory instruction and must not allocate.
	c.lineBuf = lines
	return s.memTiming(c, isStore, lines), nil
}

// load returns the register value load op delivers from the validated
// address addr: sign- or zero-extended for sub-word loads.
func (s *Sim) load(op isa.Op, addr uint32) uint32 {
	switch op {
	case isa.LH:
		v, _ := s.memory.Read16(addr)
		return uint32(int32(int16(v)))
	case isa.LHU:
		v, _ := s.memory.Read16(addr)
		return uint32(v)
	case isa.LB:
		v, _ := s.memory.Read8(addr)
		return uint32(int32(int8(v)))
	case isa.LBU:
		v, _ := s.memory.Read8(addr)
		return uint32(v)
	}
	v, _ := s.memory.Read32(addr)
	return v
}

// store writes register value v to the validated address addr, truncated
// to the width of store op.
func (s *Sim) store(op isa.Op, addr, v uint32) {
	switch op {
	case isa.SH:
		s.memory.Write16(addr, uint16(v))
	case isa.SB:
		s.memory.Write8(addr, uint8(v))
	default:
		s.memory.Write32(addr, v)
	}
}

// memTiming walks one memory instruction's coalesced line requests through
// the hierarchy and applies the LSU/MSHR and statistics side effects: the
// LSU issues LSUPorts lines per cycle, so line i goes out at cycle
// s.cycle + i/LSUPorts and the LSU stays busy ceil(len(lines)/LSUPorts)
// cycles. Both are tracked with a per-cycle counter instead of divisions.
// Returns the completion cycle.
func (s *Sim) memTiming(c *simCore, isStore bool, lines []uint32) uint64 {
	ports := s.cfg.LSUPorts
	at, k := s.cycle, 0 // issue cycle of the next line, lines already issued at it
	var done uint64
	for _, line := range lines {
		r := s.hier.Access(c.id, line, isStore, at)
		if r.Done > done {
			done = r.Done
		}
		if s.mshrs > 0 && !r.L1Hit {
			// Allocate an MSHR per L1 miss (stores allocate too:
			// write-allocate fills).
			c.mshr = append(c.mshr, r.Done)
		}
		if k++; k == ports {
			at, k = at+1, 0
		}
	}
	if k != 0 {
		at++ // a partly used last cycle still occupies the LSU
	}
	c.lsuFree = at
	c.stats.LineRequests += uint64(len(lines))
	if isStore {
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	return done
}

// csrRead implements the read-only CSR space.
func (s *Sim) csrRead(c *simCore, wid int, w *warp, lane int, csr uint16) (uint32, error) {
	switch csr {
	case isa.CSRThreadID:
		return uint32(lane), nil
	case isa.CSRWarpID:
		return uint32(wid), nil
	case isa.CSRCoreID:
		return uint32(c.id), nil
	case isa.CSRTMask:
		return uint32(w.tmask), nil
	case isa.CSRNumThreads:
		return uint32(s.cfg.Threads), nil
	case isa.CSRNumWarps:
		return uint32(s.cfg.Warps), nil
	case isa.CSRNumCores:
		return uint32(s.cfg.Cores), nil
	case isa.CSRCycle:
		return uint32(s.cycle), nil
	case isa.CSRCycleH:
		return uint32(s.cycle >> 32), nil
	case isa.CSRInstRet:
		return uint32(c.stats.Issued), nil
	case isa.CSRInstRetH:
		return uint32(c.stats.Issued >> 32), nil
	}
	return 0, fmt.Errorf("unknown csr %#x", csr)
}

// executeFP runs the functional part of floating-point computes with
// explicit lane loops (no allocation on the hot path).
func (s *Sim) executeFP(w *warp, in isa.Inst) error {
	f32 := math.Float32frombits
	b32 := math.Float32bits
	n := s.cfg.Threads
	rd := int(in.Rd)
	fd, f1, f2, f3 := row(w.fregs, rd, n), row(w.fregs, int(in.Rs1), n), row(w.fregs, int(in.Rs2), n), row(w.fregs, int(in.Rs3), n)
	xd, x1 := row(w.regs, rd, n), row(w.regs, int(in.Rs1), n)

	for m := w.tmask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		switch in.Op {
		case isa.FADDS:
			fd[l] = b32(f32(f1[l]) + f32(f2[l]))
		case isa.FSUBS:
			fd[l] = b32(f32(f1[l]) - f32(f2[l]))
		case isa.FMULS:
			fd[l] = b32(f32(f1[l]) * f32(f2[l]))
		case isa.FDIVS:
			fd[l] = b32(f32(f1[l]) / f32(f2[l]))
		case isa.FSQRTS:
			fd[l] = b32(float32(math.Sqrt(float64(f32(f1[l])))))
		case isa.FMINS:
			fd[l] = b32(fmin(f32(f1[l]), f32(f2[l])))
		case isa.FMAXS:
			fd[l] = b32(fmax(f32(f1[l]), f32(f2[l])))
		case isa.FSGNJS:
			fd[l] = f1[l]&^signBit | f2[l]&signBit
		case isa.FSGNJNS:
			fd[l] = f1[l]&^signBit | (^f2[l])&signBit
		case isa.FSGNJXS:
			fd[l] = f1[l] ^ f2[l]&signBit
		case isa.FMADDS:
			fd[l] = b32(fma32(f32(f1[l]), f32(f2[l]), f32(f3[l])))
		case isa.FMSUBS:
			fd[l] = b32(fma32(f32(f1[l]), f32(f2[l]), -f32(f3[l])))
		case isa.FNMSUBS:
			fd[l] = b32(fma32(-f32(f1[l]), f32(f2[l]), f32(f3[l])))
		case isa.FNMADDS:
			fd[l] = b32(fma32(-f32(f1[l]), f32(f2[l]), -f32(f3[l])))
		case isa.FEQS:
			if rd != 0 {
				xd[l] = boolBit(f32(f1[l]) == f32(f2[l]))
			}
		case isa.FLTS:
			if rd != 0 {
				xd[l] = boolBit(f32(f1[l]) < f32(f2[l]))
			}
		case isa.FLES:
			if rd != 0 {
				xd[l] = boolBit(f32(f1[l]) <= f32(f2[l]))
			}
		case isa.FCVTWS:
			if rd != 0 {
				xd[l] = cvtWS(f32(f1[l]))
			}
		case isa.FCVTWUS:
			if rd != 0 {
				xd[l] = cvtWUS(f32(f1[l]))
			}
		case isa.FCVTSW:
			fd[l] = b32(float32(int32(x1[l])))
		case isa.FCVTSWU:
			fd[l] = b32(float32(x1[l]))
		case isa.FMVXW:
			if rd != 0 {
				xd[l] = f1[l]
			}
		case isa.FMVWX:
			fd[l] = x1[l]
		case isa.FCLASSS:
			if rd != 0 {
				xd[l] = fclass(f32(f1[l]))
			}
		default:
			return fmt.Errorf("unimplemented FP op %s", in.Op)
		}
	}
	return nil
}

const signBit = uint32(1) << 31

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// fma32 is a fused multiply-add rounded once to float32.
func fma32(a, b, c float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

// fmin/fmax follow RISC-V: if one operand is NaN, return the other.
func fmin(a, b float32) float32 {
	switch {
	case a != a:
		return b
	case b != b:
		return a
	case a < b:
		return a
	}
	return b
}

func fmax(a, b float32) float32 {
	switch {
	case a != a:
		return b
	case b != b:
		return a
	case a > b:
		return a
	}
	return b
}

// cvtWS converts float32 to int32 with RISC-V truncation and clamping.
func cvtWS(f float32) uint32 {
	switch {
	case f != f:
		return uint32(math.MaxInt32)
	case f >= math.MaxInt32:
		return uint32(math.MaxInt32)
	case f <= math.MinInt32:
		return 0x80000000 // int32 min
	}
	return uint32(int32(f))
}

func cvtWUS(f float32) uint32 {
	switch {
	case f != f:
		return math.MaxUint32
	case f >= math.MaxUint32:
		return math.MaxUint32
	case f <= 0:
		return 0
	}
	return uint32(f)
}

// fclass returns the RISC-V fclass.s bit for f.
func fclass(f float32) uint32 {
	b := math.Float32bits(f)
	sign := b&signBit != 0
	exp := b >> 23 & 0xFF
	frac := b & 0x7FFFFF
	switch {
	case exp == 0xFF && frac != 0:
		if frac&(1<<22) != 0 {
			return 1 << 9 // quiet NaN
		}
		return 1 << 8 // signaling NaN
	case exp == 0xFF && sign:
		return 1 << 0 // -inf
	case exp == 0xFF:
		return 1 << 7 // +inf
	case exp == 0 && frac == 0 && sign:
		return 1 << 3 // -0
	case exp == 0 && frac == 0:
		return 1 << 4 // +0
	case exp == 0 && sign:
		return 1 << 2 // negative subnormal
	case exp == 0:
		return 1 << 5 // positive subnormal
	case sign:
		return 1 << 1 // negative normal
	}
	return 1 << 6 // positive normal
}
