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

	switch {
	case op >= isa.ADD && op <= isa.AND || op >= isa.MUL && op <= isa.REMU:
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = intALU(op, w.regs[b+rs1], w.regs[b+rs2])
			}
			w.pendI[rd] = s.cycle + uint64(intLatency(op, lat))
		}

	case op >= isa.ADDI && op <= isa.SRAI:
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = intALUImm(op, w.regs[b+rs1], in.Imm)
			}
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op == isa.LUI:
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = uint32(in.Imm)
			}
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op == isa.AUIPC:
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = w.pc + uint32(in.Imm)
			}
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}

	case op == isa.JAL:
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = w.pc + 4
			}
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}
		nextPC = w.pc + uint32(in.Imm)

	case op == isa.JALR:
		var target uint32
		first := true
		for m := w.tmask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m) * 32
			t := (w.regs[b+rs1] + uint32(in.Imm)) &^ 1
			if first {
				target, first = t, false
			} else if t != target {
				return s.trapf(c, wid, w, "divergent jalr target across lanes")
			}
		}
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = w.pc + 4
			}
			w.pendI[rd] = s.cycle + uint64(lat.ALU)
		}
		nextPC = target

	case in.IsBranch():
		var taken, first = false, true
		for m := w.tmask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m) * 32
			t := branchTaken(op, w.regs[b+rs1], w.regs[b+rs2])
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
				w.regs[lane*32+rd] = v
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
		nm := uint64(s.firstLaneValue(w, in.Rs1)) & s.fullMask
		if nm == 0 {
			w.active = false
			c.active--
			c.ready &^= 1 << uint(wid)
		} else {
			w.tmask = nm
		}

	case op == isa.VXWSPAWN:
		n := int(s.firstLaneValue(w, in.Rs1))
		entry := s.firstLaneValue(w, in.Rs2)
		if n > s.cfg.Warps {
			n = s.cfg.Warps
		}
		for k := 1; k < n; k++ {
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
		pred := predMask(w, rs1)
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
		id := int(s.firstLaneValue(w, in.Rs1))
		count := int(s.firstLaneValue(w, in.Rs2))
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
		if nm := w.tmask & predMask(w, rs1); nm != 0 {
			w.tmask = nm
		}

	case op == isa.VXBALLOT:
		count := uint32(bits.OnesCount64(w.tmask & predMask(w, rs1)))
		if rd != 0 {
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				w.regs[b+rd] = count
			}
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

// predMask builds the lane mask of active lanes whose integer register r
// is non-zero.
func predMask(w *warp, r int) uint64 {
	var pred uint64
	for m := w.tmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if w.regs[lane*32+r] != 0 {
			pred |= 1 << uint(lane)
		}
	}
	return pred
}

// firstLaneValue reads integer register r of the lowest active lane.
func (s *Sim) firstLaneValue(w *warp, r uint8) uint32 {
	lane := bits.TrailingZeros64(w.tmask)
	return w.regs[lane*32+int(r)]
}

// executeMem performs a load/store: functional access now, timing through
// the coalescer and hierarchy. It returns the cycle loaded data is ready.
func (s *Sim) executeMem(c *simCore, wid int, w *warp, in isa.Inst) (uint64, error) {
	size := uint32(4)
	switch in.Op {
	case isa.LB, isa.LBU, isa.SB:
		size = 1
	case isa.LH, isa.LHU, isa.SH:
		size = 2
	}
	isStore := in.IsStore()
	rd, rs1, rs2 := int(in.Rd), int(in.Rs1), int(in.Rs2)

	// Gather lane addresses and validate every active lane before any
	// functional access: a store warp that traps on a later lane must not
	// leave earlier lanes' stores committed to memory.
	for m := w.tmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		addr := w.regs[lane*32+rs1] + uint32(in.Imm)
		c.addrBuf[lane] = addr
		if !s.memory.InBounds(addr, size) {
			return 0, s.trapf(c, wid, w, "%s lane %d address %#x out of bounds (mem size %#x)", in.Op, lane, addr, s.memory.Size())
		}
		if addr%size != 0 {
			return 0, s.trapf(c, wid, w, "%s lane %d address %#x misaligned", in.Op, lane, addr)
		}
	}

	// Functional access, now that no lane can trap.
	for m := w.tmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		b := lane * 32
		addr := c.addrBuf[lane]
		switch in.Op {
		case isa.LW:
			v, _ := s.memory.Read32(addr)
			if rd != 0 {
				w.regs[b+rd] = v
			}
		case isa.FLW:
			v, _ := s.memory.Read32(addr)
			w.fregs[b+rd] = v
		case isa.LH:
			v, _ := s.memory.Read16(addr)
			if rd != 0 {
				w.regs[b+rd] = uint32(int32(int16(v)))
			}
		case isa.LHU:
			v, _ := s.memory.Read16(addr)
			if rd != 0 {
				w.regs[b+rd] = uint32(v)
			}
		case isa.LB:
			v, _ := s.memory.Read8(addr)
			if rd != 0 {
				w.regs[b+rd] = uint32(int32(int8(v)))
			}
		case isa.LBU:
			v, _ := s.memory.Read8(addr)
			if rd != 0 {
				w.regs[b+rd] = uint32(v)
			}
		case isa.SW:
			s.memory.Write32(addr, w.regs[b+rs2])
		case isa.FSW:
			s.memory.Write32(addr, w.fregs[b+rs2])
		case isa.SH:
			s.memory.Write16(addr, uint16(w.regs[b+rs2]))
		case isa.SB:
			s.memory.Write8(addr, uint8(w.regs[b+rs2]))
		}
	}

	// Timing: coalesce lanes into line requests, streamed 1/cycle. The
	// scratch buffers are per-core and preallocated: this path runs once per
	// memory instruction and must not allocate.
	shift := s.hier.LineShift()
	var lines []uint32
	if s.NoCoalesce {
		lines = c.lineBuf[:0]
		for m := w.tmask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			lines = append(lines, c.addrBuf[lane]>>shift<<shift)
		}
		c.lineBuf = lines
	} else {
		c.lineBuf = mem.Coalesce(c.addrBuf[:s.cfg.Threads], w.tmask, shift, c.lineBuf)
		lines = c.lineBuf
	}
	return s.memTiming(c, isStore, lines), nil
}

// memTiming walks one memory instruction's coalesced line requests through
// the hierarchy and applies the LSU/MSHR and statistics side effects — the
// timing half of executeMem, shared verbatim by the batched-memory replay
// (finishBatchedMem), which must produce the same completion cycles and
// MSHR allocations as the per-warp path. Returns the completion cycle.
func (s *Sim) memTiming(c *simCore, isStore bool, lines []uint32) uint64 {
	ports := s.cfg.LSUPorts
	var done uint64
	for i, line := range lines {
		r := s.hier.Access(c.id, line, isStore, s.cycle+uint64(i/ports))
		if r.Done > done {
			done = r.Done
		}
		if s.mshrs > 0 && !r.L1Hit {
			// Allocate an MSHR per L1 miss (stores allocate too:
			// write-allocate fills).
			c.mshr = append(c.mshr, r.Done)
		}
	}
	c.lsuFree = s.cycle + uint64((len(lines)+ports-1)/ports)
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
	rd, rs1, rs2, rs3 := int(in.Rd), int(in.Rs1), int(in.Rs2), int(in.Rs3)

	for m := w.tmask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m) * 32
		switch in.Op {
		case isa.FADDS:
			w.fregs[b+rd] = b32(f32(w.fregs[b+rs1]) + f32(w.fregs[b+rs2]))
		case isa.FSUBS:
			w.fregs[b+rd] = b32(f32(w.fregs[b+rs1]) - f32(w.fregs[b+rs2]))
		case isa.FMULS:
			w.fregs[b+rd] = b32(f32(w.fregs[b+rs1]) * f32(w.fregs[b+rs2]))
		case isa.FDIVS:
			w.fregs[b+rd] = b32(f32(w.fregs[b+rs1]) / f32(w.fregs[b+rs2]))
		case isa.FSQRTS:
			w.fregs[b+rd] = b32(float32(math.Sqrt(float64(f32(w.fregs[b+rs1])))))
		case isa.FMINS:
			w.fregs[b+rd] = b32(fmin(f32(w.fregs[b+rs1]), f32(w.fregs[b+rs2])))
		case isa.FMAXS:
			w.fregs[b+rd] = b32(fmax(f32(w.fregs[b+rs1]), f32(w.fregs[b+rs2])))
		case isa.FSGNJS:
			w.fregs[b+rd] = w.fregs[b+rs1]&^signBit | w.fregs[b+rs2]&signBit
		case isa.FSGNJNS:
			w.fregs[b+rd] = w.fregs[b+rs1]&^signBit | (^w.fregs[b+rs2])&signBit
		case isa.FSGNJXS:
			w.fregs[b+rd] = w.fregs[b+rs1] ^ w.fregs[b+rs2]&signBit
		case isa.FMADDS:
			w.fregs[b+rd] = b32(fma32(f32(w.fregs[b+rs1]), f32(w.fregs[b+rs2]), f32(w.fregs[b+rs3])))
		case isa.FMSUBS:
			w.fregs[b+rd] = b32(fma32(f32(w.fregs[b+rs1]), f32(w.fregs[b+rs2]), -f32(w.fregs[b+rs3])))
		case isa.FNMSUBS:
			w.fregs[b+rd] = b32(fma32(-f32(w.fregs[b+rs1]), f32(w.fregs[b+rs2]), f32(w.fregs[b+rs3])))
		case isa.FNMADDS:
			w.fregs[b+rd] = b32(fma32(-f32(w.fregs[b+rs1]), f32(w.fregs[b+rs2]), -f32(w.fregs[b+rs3])))
		case isa.FEQS:
			if rd != 0 {
				w.regs[b+rd] = boolBit(f32(w.fregs[b+rs1]) == f32(w.fregs[b+rs2]))
			}
		case isa.FLTS:
			if rd != 0 {
				w.regs[b+rd] = boolBit(f32(w.fregs[b+rs1]) < f32(w.fregs[b+rs2]))
			}
		case isa.FLES:
			if rd != 0 {
				w.regs[b+rd] = boolBit(f32(w.fregs[b+rs1]) <= f32(w.fregs[b+rs2]))
			}
		case isa.FCVTWS:
			if rd != 0 {
				w.regs[b+rd] = cvtWS(f32(w.fregs[b+rs1]))
			}
		case isa.FCVTWUS:
			if rd != 0 {
				w.regs[b+rd] = cvtWUS(f32(w.fregs[b+rs1]))
			}
		case isa.FCVTSW:
			w.fregs[b+rd] = b32(float32(int32(w.regs[b+rs1])))
		case isa.FCVTSWU:
			w.fregs[b+rd] = b32(float32(w.regs[b+rs1]))
		case isa.FMVXW:
			if rd != 0 {
				w.regs[b+rd] = w.fregs[b+rs1]
			}
		case isa.FMVWX:
			w.fregs[b+rd] = w.regs[b+rs1]
		case isa.FCLASSS:
			if rd != 0 {
				w.regs[b+rd] = fclass(f32(w.fregs[b+rs1]))
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
