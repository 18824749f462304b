package sim

// Bare-simulator half of the memory-axis harness: the three memory-side
// grid axes (per-core/per-bank MSHR bound, L1 geometry, L1 next-line
// prefetch) compose with every scheduling policy without breaking the
// determinism contract. Each non-default memory point is held to its frozen
// digest in every simulated observable — cycles, per-core counters,
// per-level cache stats including the prefetch counters,
// per-bank/per-channel stats, memory contents. The kernel-level matrix lives in memaxis_matrix_test.go; the
// sweep-record identity in internal/sweep/mem_axis_test.go.

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// memAxisPoint is one non-default cell of the memory grid exercised by the
// bare-sim differentials.
type memAxisPoint struct {
	name     string
	mshrs    int
	l1Size   int // 0 = default geometry
	l1Ways   int
	prefetch bool
}

func memAxisPoints() []memAxisPoint {
	return []memAxisPoint{
		{name: "mshrs=1", mshrs: 1},
		{name: "mshrs=4", mshrs: 4},
		{name: "l1=8k2w", l1Size: 8 << 10, l1Ways: 2},
		{name: "l1=32k8w", l1Size: 32 << 10, l1Ways: 8},
		{name: "prefetch=nextline", prefetch: true},
		{name: "mshrs=2/l1=8k2w/prefetch=nextline", mshrs: 2, l1Size: 8 << 10, l1Ways: 2, prefetch: true},
	}
}

func (pt memAxisPoint) apply(cfg Config) Config {
	cfg.Mem.L1.MSHRs = pt.mshrs
	cfg.Mem.L2.MSHRs = pt.mshrs
	if pt.l1Size > 0 {
		cfg.Mem.L1.SizeBytes = pt.l1Size
		cfg.Mem.L1.Ways = pt.l1Ways
	}
	if pt.prefetch {
		cfg.Mem.Prefetch = mem.PrefetchNextLine
	}
	return cfg
}

// TestMemAxisEngineDifferential holds the engine, at every non-default
// memory point, to its frozen digest under an rr and a 2lev scheduler.
func TestMemAxisEngineDifferential(t *testing.T) {
	checkMemAxisPoints(t, SchedRoundRobin, SchedTwoLevel)
}

// TestMemAxisScanOracle does the same under the rr and gto schedulers.
func TestMemAxisScanOracle(t *testing.T) {
	checkMemAxisPoints(t, SchedRoundRobin, SchedGTO)
}

// checkMemAxisPoints runs diffMemProg at every memory point under each
// policy and holds the snapshot to its frozen digest.
func checkMemAxisPoints(t *testing.T, policies ...SchedPolicy) {
	for _, pt := range memAxisPoints() {
		for _, sched := range policies {
			t.Run(fmt.Sprintf("%s/%s", pt.name, sched), func(t *testing.T) {
				cfg := pt.apply(DefaultConfig(4, 4, 4))
				cfg.Sched = sched
				CheckEngineDigest(t, "", digestOf(runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF))))
			})
		}
	}
}

// memAxisDisjointProg is a strided load/store loop whose (core, warp,
// thread) regions stay disjoint across all iterations (cid<<14, wid<<12,
// tid<<10, 8 iterations of 64B stride = 512B per thread), unlike
// diffMemProg whose warps overlap after 16 lines. The sanity checks below
// compare runs under *different* configs, where overlapping stores would
// make final memory timing-dependent; disjoint regions make it invariant.
const memAxisDisjointProg = `
	csrr s0, cid
	slli s0, s0, 14
	csrr t0, wid
	slli t1, t0, 12
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 10
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 8
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// TestMSHRBoundDiverges is the axis sanity check: a tight MSHR bound must
// slow the memory-heavy differential program down relative to the
// unbounded default — if it never does, the gate is dead code — while
// leaving the functional results (memory contents) and the demand traffic
// (accesses, misses) untouched.
func TestMSHRBoundDiverges(t *testing.T) {
	cfg := DefaultConfig(4, 4, 4)
	unbounded := runSnapshot(t, cfg, memAxisDisjointProg, activateAll(cfg, 4, 0xF))
	cfg.Mem.L1.MSHRs = 1
	cfg.Mem.L2.MSHRs = 1
	bounded := runSnapshot(t, cfg, memAxisDisjointProg, activateAll(cfg, 4, 0xF))
	if bounded.cycles <= unbounded.cycles {
		t.Errorf("MSHRs=1 ran in %d cycles, unbounded in %d; the bound never stalled",
			bounded.cycles, unbounded.cycles)
	}
	for i := range unbounded.memData {
		if unbounded.memData[i] != bounded.memData[i] {
			t.Fatalf("MSHR bound changed memory at %#x: %#x vs %#x",
				0x8000+i, unbounded.memData[i], bounded.memData[i])
		}
	}
	for c := range unbounded.l1 {
		u, b := unbounded.l1[c], bounded.l1[c]
		if u.Accesses != b.Accesses || u.Misses != b.Misses {
			t.Errorf("core %d: MSHR bound changed demand traffic: %+v vs %+v", c, u, b)
		}
	}
	// Loosening the bound can only help: MSHRs=8 is no slower than MSHRs=1.
	cfg.Mem.L1.MSHRs = 8
	cfg.Mem.L2.MSHRs = 8
	loose := runSnapshot(t, cfg, memAxisDisjointProg, activateAll(cfg, 4, 0xF))
	if loose.cycles > bounded.cycles {
		t.Errorf("MSHRs=8 (%d cycles) slower than MSHRs=1 (%d cycles)", loose.cycles, bounded.cycles)
	}
}

// TestPrefetchAxisObservables is the prefetch sanity check: on the strided
// differential program the next-line prefetcher must actually issue fills
// and convert some demand misses into prefetch hits, without perturbing the
// functional results or the demand access count.
func TestPrefetchAxisObservables(t *testing.T) {
	cfg := DefaultConfig(4, 4, 4)
	off := runSnapshot(t, cfg, memAxisDisjointProg, activateAll(cfg, 4, 0xF))
	cfg.Mem.Prefetch = mem.PrefetchNextLine
	on := runSnapshot(t, cfg, memAxisDisjointProg, activateAll(cfg, 4, 0xF))

	var issued, hits uint64
	for c := range on.l1 {
		issued += on.l1[c].PrefetchIssued
		hits += on.l1[c].PrefetchHits
		if off.l1[c].PrefetchIssued != 0 || off.l1[c].PrefetchHits != 0 {
			t.Errorf("core %d: prefetch counters nonzero with prefetch off: %+v", c, off.l1[c])
		}
		if on.l1[c].Accesses != off.l1[c].Accesses {
			t.Errorf("core %d: prefetch changed the demand access count: %d vs %d",
				c, on.l1[c].Accesses, off.l1[c].Accesses)
		}
	}
	if issued == 0 {
		t.Error("next-line prefetcher issued nothing on a strided stream")
	}
	if hits == 0 {
		t.Error("next-line prefetcher never hit on a strided stream")
	}
	if hits > issued {
		t.Errorf("prefetch hits %d exceed issues %d", hits, issued)
	}
	for i := range off.memData {
		if off.memData[i] != on.memData[i] {
			t.Fatalf("prefetch changed memory at %#x", 0x8000+i)
		}
	}
}
