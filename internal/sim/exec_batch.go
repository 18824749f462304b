package sim

// Uniform-warp batched execution. SIMT kernels keep many warps of a core
// in lockstep: same pc, same thread mask, no divergence — yet the per-warp
// issue path re-dispatches the same opcode switch and re-walks the same
// lane loop once per warp per instruction. When Config.BatchExec is on,
// the heap scheduler engine (issueHeap, sched.go) detects such cohorts at
// issue time and executes the instruction functionally ONCE over the whole
// cohort with a fused warps x lanes kernel from this file. Timing is not
// batched: each cohort member still occupies its own issue slot, and when
// the scheduler actually picks it the per-warp bookkeeping — observer
// IssueEvent, Issued/LaneOps statistics, scoreboard writeback, pc advance —
// is replayed at the true issue cycle by finishBatched, in exactly the
// order the unbatched path produces. Every simulated observable (device
// cycles, statistics, stall attribution, observer stream, sweep records)
// is therefore byte-identical to the per-warp oracle (BatchExec=false),
// which is enforced by the four-layer differential harness (batch_test.go,
// the registry-kernel matrix, the sweep record test and the CI CLI diff).
//
// Only pure compute is batchable: ALU/imm/LUI/AUIPC and FP computes. These
// never trap, never touch memory, never redirect the pc and never mutate
// warp control state, so pre-executing a cohort mate a few cycles before
// its issue slot is architecturally invisible. Branches, jumps, memory
// ops, CSR reads, FENCE/ECALL/EBREAK and the VX* warp-control ops always
// take the per-warp path, keeping divergence diagnostics and executeMem
// coalescing/timing untouched.
//
// The fused loops hoist the register-file slice headers into locals
// (regs/fregs): the element stores provably cannot alias the headers then,
// so the compiler keeps them in registers instead of reloading them after
// every store.

import (
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
)

// batchable reports whether op is eligible for cohort execution: pure
// compute whose only architectural effects are register writes and a
// pc += 4 advance (cannot trap, no memory access, no control flow, no
// warp-control side effects).
func batchable(op isa.Op) bool {
	switch {
	case op >= isa.ADD && op <= isa.AND,
		op >= isa.MUL && op <= isa.REMU,
		op >= isa.ADDI && op <= isa.SRAI,
		op == isa.LUI, op == isa.AUIPC,
		op >= isa.FADDS && op <= isa.FNMADDS:
		return true
	}
	return false
}

// batchExec functionally executes one batchable instruction for every warp
// of the cohort span. The opcode dispatch runs once per cohort; the per-op
// bodies are tight fused loops over warps x active lanes on the lane-major
// register files. Scoreboard, statistics and observer effects are NOT
// applied here — they are replayed per warp by finishBatched when each
// member's issue slot arrives.
func batchExec(ws []*warp, in isa.Inst) {
	op := in.Op
	switch {
	case op >= isa.ADD && op <= isa.AND || op >= isa.MUL && op <= isa.REMU:
		batchIntRR(ws, in)
	case op >= isa.ADDI && op <= isa.SRAI:
		batchIntImm(ws, in)
	case op == isa.LUI:
		rd := int(in.Rd)
		if rd == 0 {
			return
		}
		v := uint32(in.Imm)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = v
			}
		}
	case op == isa.AUIPC:
		rd := int(in.Rd)
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs := w.regs
			v := w.pc + uint32(in.Imm) // cohort pcs are identical by construction
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = v
			}
		}
	default: // FADDS..FNMADDS, guaranteed by batchable
		batchFP(ws, in)
	}
}

// batchIntRR fuses register-register integer ops. The hot single-cycle ops
// and MUL get dedicated loops; the long-latency ops (MULH*/DIV*/REM*) share
// the scalar intALU helper — their per-lane dispatch cost is irrelevant
// next to their functional-unit latency, and reusing the helper keeps the
// division edge cases (divide by zero, MinInt32/-1) in one place.
func batchIntRR(ws []*warp, in isa.Inst) {
	rd, rs1, rs2 := int(in.Rd), int(in.Rs1), int(in.Rs2)
	if rd == 0 {
		return
	}
	switch in.Op {
	case isa.ADD:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] + regs[b+rs2]
			}
		}
	case isa.SUB:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] - regs[b+rs2]
			}
		}
	case isa.SLL:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] << (regs[b+rs2] & 31)
			}
		}
	case isa.SLT:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = boolBit(int32(regs[b+rs1]) < int32(regs[b+rs2]))
			}
		}
	case isa.SLTU:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = boolBit(regs[b+rs1] < regs[b+rs2])
			}
		}
	case isa.XOR:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] ^ regs[b+rs2]
			}
		}
	case isa.SRL:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] >> (regs[b+rs2] & 31)
			}
		}
	case isa.SRA:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = uint32(int32(regs[b+rs1]) >> (regs[b+rs2] & 31))
			}
		}
	case isa.OR:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] | regs[b+rs2]
			}
		}
	case isa.AND:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] & regs[b+rs2]
			}
		}
	case isa.MUL:
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] * regs[b+rs2]
			}
		}
	default: // MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU
		op := in.Op
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = intALU(op, regs[b+rs1], regs[b+rs2])
			}
		}
	}
}

// batchIntImm fuses register-immediate integer ops.
func batchIntImm(ws []*warp, in isa.Inst) {
	rd, rs1 := int(in.Rd), int(in.Rs1)
	if rd == 0 {
		return
	}
	imm := in.Imm
	switch in.Op {
	case isa.ADDI:
		v := uint32(imm)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] + v
			}
		}
	case isa.XORI:
		v := uint32(imm)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] ^ v
			}
		}
	case isa.ORI:
		v := uint32(imm)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] | v
			}
		}
	case isa.ANDI:
		v := uint32(imm)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] & v
			}
		}
	case isa.SLLI:
		sh := uint(imm & 31)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] << sh
			}
		}
	case isa.SRLI:
		sh := uint(imm & 31)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = regs[b+rs1] >> sh
			}
		}
	case isa.SRAI:
		sh := uint(imm & 31)
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = uint32(int32(regs[b+rs1]) >> sh)
			}
		}
	default: // SLTI, SLTIU
		op := in.Op
		for _, w := range ws {
			regs := w.regs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = intALUImm(op, regs[b+rs1], imm)
			}
		}
	}
}

// batchFP fuses the floating-point computes. The add/mul/FMA family gets
// dedicated loops; the long-latency and bookkeeping ops reuse the scalar
// helpers (fmin, cvtWS, fclass, ...) so the RISC-V NaN and clamping rules
// stay in one place. Semantics mirror executeFP case by case, including
// the rd==x0 guards on the int-destination ops.
func batchFP(ws []*warp, in isa.Inst) {
	f32 := math.Float32frombits
	b32 := math.Float32bits
	rd, rs1, rs2, rs3 := int(in.Rd), int(in.Rs1), int(in.Rs2), int(in.Rs3)

	switch in.Op {
	case isa.FADDS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(f32(fregs[b+rs1]) + f32(fregs[b+rs2]))
			}
		}
	case isa.FSUBS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(f32(fregs[b+rs1]) - f32(fregs[b+rs2]))
			}
		}
	case isa.FMULS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(f32(fregs[b+rs1]) * f32(fregs[b+rs2]))
			}
		}
	case isa.FMADDS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(fma32(f32(fregs[b+rs1]), f32(fregs[b+rs2]), f32(fregs[b+rs3])))
			}
		}
	case isa.FMSUBS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(fma32(f32(fregs[b+rs1]), f32(fregs[b+rs2]), -f32(fregs[b+rs3])))
			}
		}
	case isa.FNMSUBS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(fma32(-f32(fregs[b+rs1]), f32(fregs[b+rs2]), f32(fregs[b+rs3])))
			}
		}
	case isa.FNMADDS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(fma32(-f32(fregs[b+rs1]), f32(fregs[b+rs2]), -f32(fregs[b+rs3])))
			}
		}
	case isa.FDIVS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(f32(fregs[b+rs1]) / f32(fregs[b+rs2]))
			}
		}
	case isa.FSQRTS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(float32(math.Sqrt(float64(f32(fregs[b+rs1])))))
			}
		}
	case isa.FMINS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(fmin(f32(fregs[b+rs1]), f32(fregs[b+rs2])))
			}
		}
	case isa.FMAXS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(fmax(f32(fregs[b+rs1]), f32(fregs[b+rs2])))
			}
		}
	case isa.FSGNJS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = fregs[b+rs1]&^signBit | fregs[b+rs2]&signBit
			}
		}
	case isa.FSGNJNS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = fregs[b+rs1]&^signBit | (^fregs[b+rs2])&signBit
			}
		}
	case isa.FSGNJXS:
		for _, w := range ws {
			fregs := w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = fregs[b+rs1] ^ fregs[b+rs2]&signBit
			}
		}
	case isa.FCVTSW:
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(float32(int32(regs[b+rs1])))
			}
		}
	case isa.FCVTSWU:
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = b32(float32(regs[b+rs1]))
			}
		}
	case isa.FMVWX:
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				fregs[b+rd] = regs[b+rs1]
			}
		}
	case isa.FEQS:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = boolBit(f32(fregs[b+rs1]) == f32(fregs[b+rs2]))
			}
		}
	case isa.FLTS:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = boolBit(f32(fregs[b+rs1]) < f32(fregs[b+rs2]))
			}
		}
	case isa.FLES:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = boolBit(f32(fregs[b+rs1]) <= f32(fregs[b+rs2]))
			}
		}
	case isa.FCVTWS:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = cvtWS(f32(fregs[b+rs1]))
			}
		}
	case isa.FCVTWUS:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = cvtWUS(f32(fregs[b+rs1]))
			}
		}
	case isa.FMVXW:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = fregs[b+rs1]
			}
		}
	case isa.FCLASSS:
		if rd == 0 {
			return
		}
		for _, w := range ws {
			regs, fregs := w.regs, w.fregs
			for m := w.tmask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m) * 32
				regs[b+rd] = fclass(f32(fregs[b+rs1]))
			}
		}
	}
}

// batchWriteback classifies a batchable instruction's scoreboard writeback
// — which pend array it targets (none for rd == x0 int destinations) and
// its completion latency — mirroring execute's per-op writeback exactly.
// Computed once per cohort and stashed on each member (warp.batchDst /
// batchRd / batchLat), so finishBatched replays the writeback without
// re-running the opcode switches, or even reloading the instruction, per
// warp.
func batchWriteback(in isa.Inst, lat Latencies) (uint8, uint32) {
	op := in.Op
	rd := int(in.Rd)
	switch {
	case op >= isa.ADD && op <= isa.AND || op >= isa.MUL && op <= isa.REMU:
		if rd == 0 {
			return batchDstNone, 0
		}
		return batchDstInt, uint32(intLatency(op, lat))
	case op >= isa.ADDI && op <= isa.SRAI, op == isa.LUI, op == isa.AUIPC:
		if rd == 0 {
			return batchDstNone, 0
		}
		return batchDstInt, uint32(lat.ALU)
	default: // FADDS..FNMADDS: mirror execute's writeback classes exactly
		switch op {
		case isa.FMULS:
			return batchDstFP, uint32(lat.FMul)
		case isa.FMADDS, isa.FMSUBS, isa.FNMSUBS, isa.FNMADDS:
			return batchDstFP, uint32(lat.FMA)
		case isa.FDIVS:
			return batchDstFP, uint32(lat.FDiv)
		case isa.FSQRTS:
			return batchDstFP, uint32(lat.FSqrt)
		case isa.FEQS, isa.FLTS, isa.FLES, isa.FCVTWS, isa.FCVTWUS, isa.FMVXW, isa.FCLASSS:
			if rd == 0 {
				return batchDstNone, 0
			}
			return batchDstInt, uint32(lat.FAdd)
		default: // FADDS, FSUBS, FSGNJ*, FMIN/FMAX, FCVTSW(U), FMVWX
			return batchDstFP, uint32(lat.FAdd)
		}
	}
}

// tryBatchMem attempts cohort batching of a memory instruction under
// Config.BatchMem. The cohort predicate is collectCohort's, unchanged (same
// pc, same thread mask, no scoreboard hazard, no unconsumed pre-execution);
// with a cohort present the leader executes completely normally — per-lane
// validation, functional access, coalescing, hierarchy timing, statistics,
// observer event — and its decoded operation, lane address vector and line
// list are captured as the core's memTemplate. Each mate is then tested for
// AFFINE CONGRUENCE: its lane-address vector must equal the leader's plus
// one per-warp constant delta (the base + tid*stride shape every registry
// kernel emits). Congruent mates whose shifted address span stays in bounds
// and aligned are marked for batched replay (finishBatchedMem); the rest —
// scattered vectors, lane-varying deltas, out-of-bounds shifts — are simply
// left unmarked and execute (or trap) normally at their own issue slots,
// byte-identically to the oracle.
//
// Unlike compute batching, NOTHING of a mate executes at formation time:
// pre-running a load or store early would reorder it against other warps'
// stores and break functional byte-identity. The mate's functional access,
// hierarchy walk, MSHR allocation and statistics all happen at its true
// issue cycle; what batching removes is the per-warp re-decode, per-lane
// validation and re-coalescing, plus the per-lane access loop when the bulk
// fast path applies. Returns whether the leader issued here (false: no
// cohort, the caller executes it on the plain per-warp path).
func (s *Sim) tryBatchMem(c *simCore, wid int, w *warp, in isa.Inst, m instMeta) (bool, error) {
	span := s.collectCohort(c, wid, w, in, m)
	if span == nil {
		return false, nil
	}
	pc := w.pc // execute advances it; mates are marked at the shared pc
	if err := s.execute(c, wid, w, in); err != nil {
		return false, err
	}

	// Capture the template from the leader's freshly filled scratch
	// (addrBuf/lineBuf are overwritten by the next memory instruction, so
	// the template keeps copies).
	t := &c.memT
	t.gen++
	t.op, t.rd, t.rs2 = in.Op, in.Rd, in.Rs2
	t.isStore = in.IsStore()
	t.fp = in.Op == isa.FLW
	t.size = 4
	switch in.Op {
	case isa.LB, isa.LBU, isa.SB:
		t.size = 1
	case isa.LH, isa.LHU, isa.SH:
		t.size = 2
	}
	n := s.cfg.Threads
	copy(t.addrs[:n], c.addrBuf[:n])
	t.nLines = copy(t.lines[:], c.lineBuf)
	first := true
	for mm := w.tmask; mm != 0; mm &= mm - 1 {
		a := c.addrBuf[bits.TrailingZeros64(mm)]
		if first {
			t.minA, t.maxA, first = a, a, false
			continue
		}
		if a < t.minA {
			t.minA = a
		}
		if a > t.maxA {
			t.maxA = a
		}
	}
	t.unit = t.size == 4 && w.tmask == s.fullMask
	if t.unit {
		t.base = t.addrs[0]
		for lane := 1; lane < n; lane++ {
			if t.addrs[lane] != t.base+uint32(lane)*4 {
				t.unit = false
				break
			}
		}
	}

	// Congruence and validity per mate. Deltas are computed against the
	// captured leader addresses, not the leader's registers — a load with
	// rd == rs1 has already overwritten those. All arithmetic is mod 2^32,
	// exactly the wrap executeMem's own address computation uses; the span
	// check mateMin <= mateMax rejects vectors whose shift wraps the
	// address space, and InBounds on the shifted maximum then covers every
	// lane (the minimum is implied). A line-aligned delta preserves the
	// leader's alignment; a non-aligned t.size divisor cannot arise (delta
	// must be a multiple of the access size for every mate lane to stay
	// aligned, checked directly).
	imm := uint32(in.Imm)
	rs1 := int(in.Rs1)
	lane0 := bits.TrailingZeros64(w.tmask)
	for _, mw := range span[1:] {
		delta := mw.regs[lane0*32+rs1] + imm - t.addrs[lane0]
		congruent := true
		for mm := w.tmask; mm != 0; mm &= mm - 1 {
			lane := bits.TrailingZeros64(mm)
			if mw.regs[lane*32+rs1]+imm-t.addrs[lane] != delta {
				congruent = false
				break
			}
		}
		if !congruent || delta%t.size != 0 {
			continue
		}
		mateMin, mateMax := t.minA+delta, t.maxA+delta
		if mateMin > mateMax || !s.memory.InBounds(mateMax, t.size) {
			continue
		}
		mw.batched, mw.batchPC, mw.batchDst = true, pc, batchDstMem
		mw.batchGen, mw.batchMemDelta = t.gen, delta
	}
	return true, nil
}

// batchMemAccess performs a marked mate's functional memory access from the
// core's template: one opcode dispatch per replay (instead of one per
// lane), lane addresses derived as the leader's plus the mate's delta, and
// the contiguous bulk-copy fast path — one bounds check plus one tight copy
// loop between flat memory and the lane-major register file — when the
// template is full-mask unit-stride 32-bit. Validation is skipped: the
// mate's whole address span was bounds- and alignment-checked at cohort
// formation, and device memory never shrinks while a kernel runs.
func (s *Sim) batchMemAccess(t *memTemplate, w *warp, delta uint32) {
	mm := s.memory
	rd, rs2 := int(t.rd), int(t.rs2)
	switch t.op {
	case isa.LW:
		if rd == 0 {
			return
		}
		if t.unit {
			mm.ReadWordsStrided(t.base+delta, s.cfg.Threads, w.regs, rd, 32)
			return
		}
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			v, _ := mm.Read32(t.addrs[lane] + delta)
			regs[lane*32+rd] = v
		}
	case isa.FLW:
		if t.unit {
			mm.ReadWordsStrided(t.base+delta, s.cfg.Threads, w.fregs, rd, 32)
			return
		}
		fregs := w.fregs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			v, _ := mm.Read32(t.addrs[lane] + delta)
			fregs[lane*32+rd] = v
		}
	case isa.SW:
		if t.unit {
			mm.WriteWordsStrided(t.base+delta, s.cfg.Threads, w.regs, rs2, 32)
			return
		}
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			mm.Write32(t.addrs[lane]+delta, regs[lane*32+rs2])
		}
	case isa.FSW:
		if t.unit {
			mm.WriteWordsStrided(t.base+delta, s.cfg.Threads, w.fregs, rs2, 32)
			return
		}
		fregs := w.fregs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			mm.Write32(t.addrs[lane]+delta, fregs[lane*32+rs2])
		}
	case isa.LH:
		if rd == 0 {
			return
		}
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			v, _ := mm.Read16(t.addrs[lane] + delta)
			regs[lane*32+rd] = uint32(int32(int16(v)))
		}
	case isa.LHU:
		if rd == 0 {
			return
		}
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			v, _ := mm.Read16(t.addrs[lane] + delta)
			regs[lane*32+rd] = uint32(v)
		}
	case isa.LB:
		if rd == 0 {
			return
		}
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			v, _ := mm.Read8(t.addrs[lane] + delta)
			regs[lane*32+rd] = uint32(int32(int8(v)))
		}
	case isa.LBU:
		if rd == 0 {
			return
		}
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			v, _ := mm.Read8(t.addrs[lane] + delta)
			regs[lane*32+rd] = uint32(v)
		}
	case isa.SH:
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			mm.Write16(t.addrs[lane]+delta, uint16(regs[lane*32+rs2]))
		}
	case isa.SB:
		regs := w.regs
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			mm.Write8(t.addrs[lane]+delta, uint8(regs[lane*32+rs2]))
		}
	}
}

// finishBatchedMem replays a memory cohort mate at its true issue cycle:
// observer event and issue statistics, the fused functional access
// (batchMemAccess), the mate's line list — the leader's coalesced list
// shifted by the delta (mem.CoalesceTemplate) with a direct re-coalesce
// fallback for non-line-aligned deltas — and the full per-warp hierarchy
// timing (memTiming: L1/L2/DRAM walk, MSHR allocation, lsuFree, stats)
// plus the load's scoreboard writeback. Every observable therefore lands exactly where the per-warp
// oracle puts it. Returns false when the mark's generation no longer
// matches the core template (a later cohort overwrote it before this
// mate's slot arrived); the caller then executes the instruction normally.
func (s *Sim) finishBatchedMem(c *simCore, wid int, w *warp) bool {
	t := &c.memT
	if w.batchGen != t.gen {
		return false
	}
	if s.observer != nil {
		s.observer(IssueEvent{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Mask: w.tmask, Inst: s.prog[(w.pc-s.progBase)/4]})
	}
	c.stats.Issued++
	c.stats.LaneOps += uint64(bits.OnesCount64(w.tmask))
	w.batched = false
	delta := w.batchMemDelta
	s.batchMemAccess(t, w, delta)

	shift := s.hier.LineShift()
	var lines []uint32
	if s.NoCoalesce {
		lines = c.lineBuf[:0]
		for msk := w.tmask; msk != 0; msk &= msk - 1 {
			lane := bits.TrailingZeros64(msk)
			lines = append(lines, (t.addrs[lane]+delta)>>shift<<shift)
		}
		c.lineBuf = lines
	} else {
		var ok bool
		if lines, ok = mem.CoalesceTemplate(t.lines[:t.nLines], delta, shift, c.lineBuf); !ok {
			// Non-line-aligned delta: rebuild the mate's address vector and
			// coalesce it directly, exactly like the per-warp path.
			for msk := w.tmask; msk != 0; msk &= msk - 1 {
				lane := bits.TrailingZeros64(msk)
				c.addrBuf[lane] = t.addrs[lane] + delta
			}
			lines = mem.Coalesce(c.addrBuf[:s.cfg.Threads], w.tmask, shift, c.lineBuf)
		}
		c.lineBuf = lines
	}

	rd := int(t.rd)
	done := s.memTiming(c, t.isStore, lines)
	if !t.isStore {
		if t.fp {
			w.pendF[rd] = done
		} else if rd != 0 {
			w.pendI[rd] = done
		}
	}
	w.pc += 4
	return true
}

// finishBatched replays the per-warp issue bookkeeping for a warp whose
// instruction was already executed functionally as part of a cohort: the
// observer IssueEvent, the Issued/LaneOps statistics, the scoreboard
// writeback and the pc advance, all at the warp's true issue cycle — the
// exact effects (and order) execute produces for the same instruction,
// minus the lane loops. The writeback classification was precomputed at
// cohort formation (warp.batchDst/batchRd/batchLat), so the instruction
// word itself is only reloaded when an observer needs the IssueEvent.
// Called from issueHeap when the scheduler picks a pre-executed warp.
func (s *Sim) finishBatched(c *simCore, wid int, w *warp) {
	if s.observer != nil {
		s.observer(IssueEvent{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Mask: w.tmask, Inst: s.prog[(w.pc-s.progBase)/4]})
	}
	c.stats.Issued++
	c.stats.LaneOps += uint64(bits.OnesCount64(w.tmask))
	w.batched = false
	switch w.batchDst {
	case batchDstInt:
		w.pendI[w.batchRd] = s.cycle + uint64(w.batchLat)
	case batchDstFP:
		w.pendF[w.batchRd] = s.cycle + uint64(w.batchLat)
	}
	w.pc += 4
}
