package sim

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// Lockstep-batch memory harness (bare-simulator level): batches of warps
// issuing the same load or store at the same pc — the unit-stride,
// broadcast and per-lane arms of executeMem, coalescing, the L1/hierarchy
// walk, MSHR allocation and LSU occupancy — held byte-identical, down to
// individual L2 banks and DRAM channels, to their frozen digests under
// every scheduler policy.

// memUnitProg: every warp streams full-mask unit-stride words — the
// contiguous fast path. The loop reuses static offsets from a fixed base
// (no pointer advance), so after the first pass every access is an L1 hit
// and the warps stay in lockstep. Each lane owns the words at
// base = 0x8000 + cid<<13 + wid<<7 + tid<<2 and base+32, so the final
// memory has a closed form (see checkMemUnitResults).
const memUnitProg = `
	csrr s0, cid
	slli s0, s0, 13
	csrr s1, wid
	slli t0, s1, 7
	add  s0, s0, t0
	csrr t1, tid
	slli t0, t1, 2
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 24
	addi s2, s1, 3
loop:
	lw   t4, 0(s0)
	add  t4, t4, s2
	sw   t4, 0(s0)
	lw   t5, 32(s0)
	add  t5, t5, t4
	sw   t5, 32(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// checkMemUnitResults holds memUnitProg's final memory to its closed form:
// after 24 passes a lane's first word is 24*(wid+3) and its second the sum
// of the first word's running values, 300*(wid+3); lanes outside their
// warp's mask leave both words zero.
func checkMemUnitResults(t *testing.T, name string, cfg Config, tmask func(w int) uint64, snap snapshot) {
	t.Helper()
	for c := 0; c < cfg.Cores; c++ {
		for w := 0; w < cfg.Warps; w++ {
			for lane := 0; lane < cfg.Threads; lane++ {
				off := c<<13 + w<<7 + lane<<2
				first := binary.LittleEndian.Uint32(snap.memData[off:])
				second := binary.LittleEndian.Uint32(snap.memData[off+32:])
				var wantFirst, wantSecond uint32
				if tmask(w)>>lane&1 == 1 {
					wantFirst, wantSecond = uint32(24*(w+3)), uint32(300*(w+3))
				}
				if first != wantFirst || second != wantSecond {
					t.Errorf("%s: core %d warp %d lane %d: words (%d, %d), want (%d, %d)",
						name, c, w, lane, first, second, wantFirst, wantSecond)
				}
			}
		}
	}
}

// memStridedProg: lane stride of 64 bytes — each lane its own line, so
// every access takes the per-lane arm and coalesces into eight lines.
const memStridedProg = `
	csrr s0, cid
	slli s0, s0, 14
	csrr s1, wid
	slli t0, s1, 11
	add  s0, s0, t0
	csrr t1, tid
	slli t0, t1, 6
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 16
	addi s2, s1, 1
loop:
	lw   t4, 0(s0)
	add  t4, t4, s2
	sw   t4, 0(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// memOverlapProg: every warp of a core stores to and loads from the SAME
// addresses. Each warp's stores overwrite the others' lines; the value a
// warp observes with its own load depends purely on issue order.
const memOverlapProg = `
	csrr s0, cid
	slli s0, s0, 10
	csrr t1, tid
	slli t0, t1, 2
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	csrr s1, wid
	li   t3, 12
loop:
	addi t4, s1, 0x40
	sw   t4, 0(s0)
	lw   t5, 0(s0)
	add  t6, t5, t4
	sw   t6, 64(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// memByteHalfProg: sub-word loads and stores (sb/lb/lbu, sh/lh/lhu) folded
// into a word store so the results land in the snapshot window.
const memByteHalfProg = `
	csrr s0, cid
	slli s0, s0, 12
	csrr s1, wid
	slli t0, s1, 8
	add  s0, s0, t0
	csrr t1, tid
	slli t0, t1, 3
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	addi t3, t1, 0x41
	sb   t3, 0(s0)
	lb   t4, 0(s0)
	lbu  t5, 0(s0)
	sh   t3, 2(s0)
	lh   t6, 2(s0)
	lhu  s2, 2(s0)
	add  t4, t4, t5
	add  t4, t4, t6
	add  t4, t4, s2
	sw   t4, 4(s0)
	ecall
`

// memNonCongruentProg: the lane stride is wid*4, so warp 0's lanes all hit
// one address (the broadcast arm) while higher warps spread out, each warp
// with its own stride.
const memNonCongruentProg = `
	csrr s1, wid
	csrr t1, tid
	mul  t0, t1, s1
	slli t0, t0, 2
	li   t2, 0x8000
	add  t0, t0, t2
	csrr s0, cid
	slli s2, s0, 11
	add  t0, t0, s2
	addi t3, s1, 5
	sw   t3, 0(t0)
	lw   t4, 0(t0)
	slli t5, s1, 7
	add  t5, t5, t2
	slli t6, t1, 2
	add  t5, t5, t6
	add  t5, t5, s2
	sw   t4, 0x400(t5)
	ecall
`

// TestBatchMemMatchesOracle is the core memory case, held to frozen digests
// across all scheduler policies —
// unit-stride (full, partial and mixed thread masks, each also checked
// against its closed form), strided, overlapping stores between warps,
// sub-word ops, per-warp strides, and the compute+memory mixes shared with
// the engine harness.
func TestBatchMemMatchesOracle(t *testing.T) {
	full := func(int) uint64 { return 0xFF }
	mixed := func(w int) uint64 {
		if w%2 == 1 {
			return 0x33
		}
		return 0xFF
	}
	cases := []struct {
		name  string
		prog  string
		warps int              // 0: all warps, each under tmask
		tmask func(int) uint64 // per-warp mask
		unit  bool             // closed-form check of memUnitProg
	}{
		{"unit", memUnitProg, 0, full, true},
		{"unit/partial-mask", memUnitProg, 0, func(int) uint64 { return 0x55 }, true},
		{"unit/mixed-masks", memUnitProg, 0, mixed, true},
		{"strided", memStridedProg, 0, full, false},
		{"store-overlap", memOverlapProg, 0, full, false},
		{"byte-half", memByteHalfProg, 0, full, false},
		{"non-congruent", memNonCongruentProg, 0, full, false},
		{"compute-mem-mix", diffMemProg, 4, func(int) uint64 { return 0xF }, false},
		{"compute-mem-uniform", batchUniformProg, 0, full, false},
	}
	for _, tc := range cases {
		for _, pol := range SchedPolicies() {
			t.Run(fmt.Sprintf("%s/%s", tc.name, pol), func(t *testing.T) {
				cfg := DefaultConfig(2, 8, 8)
				cfg.Sched = pol
				activate := activateMasks(cfg, tc.tmask)
				if tc.warps != 0 {
					activate = activateAll(cfg, tc.warps, tc.tmask(0))
				}
				got := runFrozen(t, cfg, tc.prog, activate)
				if tc.unit {
					checkMemUnitResults(t, pol.String(), cfg, tc.tmask, got)
				}
			})
		}
	}
}

// TestBatchMemMSHRBound reruns the strided differential with a tight MSHR
// bound: the structural LSU/MSHR gate must stall lockstep warps exactly
// where their frozen digests say it does.
func TestBatchMemMSHRBound(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(2, 8, 8)
			cfg.Sched = pol
			cfg.Mem.L1.MSHRs = 2
			cfg.Mem.L2.MSHRs = 2
			runFrozen(t, cfg, memStridedProg, activateAll(cfg, cfg.Warps, 0xFF))
		})
	}
}

// TestBatchMemUnitStrideDigest runs the unit-stride lockstep program under
// the rr policy: the snapshot is held to its frozen digest and to
// memUnitProg's closed-form memory.
func TestBatchMemUnitStrideDigest(t *testing.T) {
	cfg := DefaultConfig(2, 8, 8)
	snap := runFrozen(t, cfg, memUnitProg, activateAll(cfg, cfg.Warps, 0xFF))
	checkMemUnitResults(t, "rr", cfg, func(int) uint64 { return 0xFF }, snap)
}
