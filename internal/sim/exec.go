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
// simulated instruction and must not allocate. The switch has constant case
// lists only, so it compiles to a jump table; a trap returns before the
// instruction writes anything.
func (s *Sim) execute(c *simCore, wid int, w *warp, d *decoded) error {
	in := &d.in
	if s.observer != nil {
		s.observer(IssueEvent{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Mask: w.tmask, Inst: *in})
	}
	c.stats.Issued++
	c.stats.LaneOps += uint64(bits.OnesCount64(w.tmask))

	nextPC := w.pc + 4
	done := s.cycle + d.lat // completion of the result in slot d.dst, if any
	op := in.Op
	rd, rs1, rs2 := int(in.Rd), int(in.Rs1), int(in.Rs2)
	n := s.cfg.Threads
	regs := w.regs

	switch op {
	case isa.ADD, isa.SUB, isa.SLL, isa.SLT, isa.SLTU, isa.XOR, isa.SRL, isa.SRA, isa.OR, isa.AND,
		isa.MUL, isa.MULH, isa.MULHSU, isa.MULHU, isa.DIV, isa.DIVU, isa.REM, isa.REMU:
		if rd != 0 {
			intALURow(op, row(regs, rd, n), row(regs, rs1, n), row(regs, rs2, n), w.tmask)
		}

	case isa.ADDI, isa.SLTI, isa.SLTIU, isa.XORI, isa.ORI, isa.ANDI, isa.SLLI, isa.SRLI, isa.SRAI:
		if rd != 0 {
			intALUImmRow(op, row(regs, rd, n), row(regs, rs1, n), in.Imm, w.tmask)
		}

	case isa.LUI:
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, uint32(in.Imm))
		}

	case isa.AUIPC:
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, w.pc+uint32(in.Imm))
		}

	case isa.JAL:
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, w.pc+4)
		}
		nextPC = w.pc + uint32(in.Imm)

	case isa.JALR:
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
		}
		nextPC = target

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		switch branchMask(op, row(regs, rs1, n), row(regs, rs2, n), w.tmask) {
		case 0:
		case w.tmask:
			nextPC = w.pc + uint32(in.Imm)
		default:
			return s.trapf(c, wid, w, "divergent %s across active lanes (use vx_split/vx_join)", op)
		}

	case isa.LB, isa.LH, isa.LW, isa.LBU, isa.LHU, isa.SB, isa.SH, isa.SW, isa.FLW, isa.FSW:
		var err error
		if done, err = s.executeMem(c, wid, w, d); err != nil {
			return err
		}

	case isa.FENCE:
		// Memory ordering is trivially satisfied: the model performs all
		// functional accesses at issue, in order. FENCE is a 1-cycle nop.

	case isa.ECALL:
		// Kernel exit for the issuing warp. The issuing warp is always in
		// the ready set, so deactivation leaves it in neither scheduler set.
		w.active = false
		c.active--
		c.ready &^= 1 << uint(wid)

	case isa.EBREAK:
		return s.trapf(c, wid, w, "ebreak")

	case isa.CSRRW, isa.CSRRS, isa.CSRRC, isa.CSRRWI, isa.CSRRSI, isa.CSRRCI:
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

	case isa.FADDS, isa.FSUBS, isa.FMULS, isa.FDIVS, isa.FSQRTS,
		isa.FSGNJS, isa.FSGNJNS, isa.FSGNJXS, isa.FMINS, isa.FMAXS,
		isa.FCVTWS, isa.FCVTWUS, isa.FCVTSW, isa.FCVTSWU, isa.FMVXW, isa.FMVWX,
		isa.FEQS, isa.FLTS, isa.FLES, isa.FCLASSS,
		isa.FMADDS, isa.FMSUBS, isa.FNMSUBS, isa.FNMADDS:
		// Every FP compute writes a result; dst is 0 only for an integer
		// result into x0, which is dropped.
		if d.dst != 0 {
			s.executeFP(w, in)
		}

	case isa.VXTMC:
		nm := uint64(firstLaneValue(w, rs1, n)) & s.fullMask
		if nm == 0 {
			w.active = false
			c.active--
			c.ready &^= 1 << uint(wid)
		} else {
			w.tmask = nm
		}

	case isa.VXWSPAWN:
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

	case isa.VXSPLIT:
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

	case isa.VXJOIN:
		if len(w.ipdom) == 0 {
			return s.trapf(c, wid, w, "vx_join with empty IPDOM stack")
		}
		e := w.ipdom[len(w.ipdom)-1]
		w.ipdom = w.ipdom[:len(w.ipdom)-1]
		w.tmask = e.mask
		if !e.reconv {
			nextPC = e.pc
		}

	case isa.VXBAR:
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
				// attempt fetches its post-barrier pc.
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

	case isa.VXPRED:
		if nm := w.tmask & predMask(w, rs1, n); nm != 0 {
			w.tmask = nm
		}

	case isa.VXBALLOT:
		count := uint32(bits.OnesCount64(w.tmask & predMask(w, rs1, n)))
		if rd != 0 {
			setLanes(row(regs, rd, n), w.tmask, count)
		}

	default:
		return s.trapf(c, wid, w, "unimplemented op %s", op)
	}

	if d.dst != 0 {
		w.pend[d.dst&63] = done
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
func (s *Sim) executeMem(c *simCore, wid int, w *warp, d *decoded) (uint64, error) {
	in := &d.in
	size := uint32(d.size)
	isStore := d.store
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
	if d.data != noData {
		file := w.regs
		if d.data >= 32 {
			file = w.fregs
		}
		data = row(file, int(d.data&31), n)
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
// Each line probes its L1 first and takes the hierarchy's miss path only on
// a miss — almost every line of a campaign hits. Returns the completion
// cycle.
func (s *Sim) memTiming(c *simCore, isStore bool, lines []uint32) uint64 {
	ports := s.cfg.LSUPorts
	at, k := s.cycle, 0 // issue cycle of the next line, lines already issued at it
	var done uint64
	for _, line := range lines {
		t, hit := s.hier.AccessL1(c.id, line, isStore, at)
		if !hit {
			t, _ = s.hier.AccessMiss(c.id, line, isStore, at)
			if s.mshrs > 0 {
				// Allocate an MSHR per L1 miss (stores allocate too:
				// write-allocate fills).
				c.mshr = append(c.mshr, t)
			}
		}
		done = max(done, t)
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

// executeFP runs the functional part of a floating-point compute: the op
// is chosen once per warp and each case loops over the active lanes.
func (s *Sim) executeFP(w *warp, in *isa.Inst) {
	n := s.cfg.Threads
	tm := w.tmask
	rd, rs1 := int(in.Rd), int(in.Rs1)
	fd, f1, f2, f3 := row(w.fregs, rd, n), row(w.fregs, rs1, n), row(w.fregs, int(in.Rs2), n), row(w.fregs, int(in.Rs3), n)
	xd, x1 := row(w.regs, rd, n), row(w.regs, rs1, n)

	switch in.Op {
	case isa.FADDS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return b32(f32(x) + f32(y)) })
	case isa.FSUBS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return b32(f32(x) - f32(y)) })
	case isa.FMULS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return b32(f32(x) * f32(y)) })
	case isa.FDIVS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return b32(f32(x) / f32(y)) })
	case isa.FSQRTS:
		lanes1(fd, f1, tm, func(x uint32) uint32 { return b32(float32(math.Sqrt(float64(f32(x))))) })
	case isa.FMINS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return b32(fmin(f32(x), f32(y))) })
	case isa.FMAXS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return b32(fmax(f32(x), f32(y))) })
	case isa.FSGNJS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return x&^signBit | y&signBit })
	case isa.FSGNJNS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return x&^signBit | (^y)&signBit })
	case isa.FSGNJXS:
		lanes2(fd, f1, f2, tm, func(x, y uint32) uint32 { return x ^ y&signBit })
	case isa.FMADDS:
		lanes3(fd, f1, f2, f3, tm, func(x, y, z uint32) uint32 { return b32(fma32(f32(x), f32(y), f32(z))) })
	case isa.FMSUBS:
		lanes3(fd, f1, f2, f3, tm, func(x, y, z uint32) uint32 { return b32(fma32(f32(x), f32(y), -f32(z))) })
	case isa.FNMSUBS:
		lanes3(fd, f1, f2, f3, tm, func(x, y, z uint32) uint32 { return b32(fma32(-f32(x), f32(y), f32(z))) })
	case isa.FNMADDS:
		lanes3(fd, f1, f2, f3, tm, func(x, y, z uint32) uint32 { return b32(fma32(-f32(x), f32(y), -f32(z))) })
	case isa.FEQS:
		lanes2(xd, f1, f2, tm, func(x, y uint32) uint32 { return boolBit(f32(x) == f32(y)) })
	case isa.FLTS:
		lanes2(xd, f1, f2, tm, func(x, y uint32) uint32 { return boolBit(f32(x) < f32(y)) })
	case isa.FLES:
		lanes2(xd, f1, f2, tm, func(x, y uint32) uint32 { return boolBit(f32(x) <= f32(y)) })
	case isa.FCVTWS:
		lanes1(xd, f1, tm, func(x uint32) uint32 { return cvtWS(f32(x)) })
	case isa.FCVTWUS:
		lanes1(xd, f1, tm, func(x uint32) uint32 { return cvtWUS(f32(x)) })
	case isa.FCVTSW:
		lanes1(fd, x1, tm, func(x uint32) uint32 { return b32(float32(int32(x))) })
	case isa.FCVTSWU:
		lanes1(fd, x1, tm, func(x uint32) uint32 { return b32(float32(x)) })
	case isa.FMVXW:
		lanes1(xd, f1, tm, func(x uint32) uint32 { return x })
	case isa.FMVWX:
		lanes1(fd, x1, tm, func(x uint32) uint32 { return x })
	case isa.FCLASSS:
		lanes1(xd, f1, tm, func(x uint32) uint32 { return fclass(f32(x)) })
	default:
		panic("executeFP: bad op " + in.Op.String())
	}
}

// f32 and b32 convert between a float register's bits and its value.
func f32(x uint32) float32 { return math.Float32frombits(x) }
func b32(f float32) uint32 { return math.Float32bits(f) }

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

// canonicalNaN is the RISC-V F canonical quiet NaN, 0x7fc00000.
var canonicalNaN = math.Float32frombits(0x7fc00000)

// fmin/fmax follow RISC-V F: if one operand is NaN, return the other; two
// NaNs give the canonical NaN; -0.0 orders below +0.0.
func fmin(a, b float32) float32 {
	switch {
	case a != a && b != b:
		return canonicalNaN
	case a != a:
		return b
	case b != b:
		return a
	case a < b || a == b && math.Signbit(float64(a)):
		return a
	}
	return b
}

func fmax(a, b float32) float32 {
	switch {
	case a != a && b != b:
		return canonicalNaN
	case a != a:
		return b
	case b != b:
		return a
	case a > b || a == b && !math.Signbit(float64(a)):
		return a
	}
	return b
}

// cvtWS converts float32 to int32 the RISC-V way: round to nearest even
// (the rounding mode the ops encode), then clamp; NaN gives the maximum.
func cvtWS(f float32) uint32 {
	r := math.RoundToEven(float64(f))
	switch {
	case r != r, r >= math.MaxInt32:
		return uint32(math.MaxInt32)
	case r <= math.MinInt32:
		return 0x80000000 // int32 min
	}
	return uint32(int32(r))
}

// cvtWUS is cvtWS's unsigned twin: negative results clamp to 0.
func cvtWUS(f float32) uint32 {
	r := math.RoundToEven(float64(f))
	switch {
	case r != r, r >= math.MaxUint32:
		return math.MaxUint32
	case r <= 0:
		return 0
	}
	return uint32(r)
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
