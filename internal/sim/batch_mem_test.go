package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// Batched-memory differential harness (bare-simulator level). The contract
// under test: with Config.BatchMem on, every simulated observable — cycles,
// per-core statistics, cache/DRAM statistics down to individual L2 banks
// and DRAM channels, memory contents, traps — is byte-identical to the
// per-warp oracle (BatchMem off), under every scheduler policy and both
// engines. Timing is never batched: each cohort
// mate's L1/hierarchy walk, MSHR allocation and LSU occupancy happen at its
// true issue cycle; only the functional access and coalescing are derived
// from the leader's affine address template.

// batchMemOracle runs prog with the full per-warp oracle (both batching
// layers off) and returns its snapshot; cfg is taken by value so the
// caller's copy keeps its settings.
func batchMemOracle(t *testing.T, cfg Config, prog string, activate func(*Sim) error) snapshot {
	t.Helper()
	cfg.BatchExec = false
	cfg.BatchMem = false
	return runSnapshot(t, cfg, prog, activate)
}

// memUnitProg: every warp streams full-mask unit-stride words — the
// contiguous bulk-copy fast path. The loop reuses static offsets from a
// fixed base (no pointer advance), so after the first pass every access is
// an L1 hit and the warps stay in lockstep.
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

// memStridedProg: lane stride of 64 bytes — affinely congruent across
// warps but not unit-stride, so mates replay through the per-lane template
// path and the shifted coalesced line list.
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
// addresses (per-warp delta zero). Mate stores overlap the leader's lines;
// the store each warp observes with its own load depends purely on issue
// order, which batching must not change.
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

// memByteHalfProg: sub-word loads and stores (sb/lb/lbu, sh/lh/lhu) — the
// fused per-op kernels without a bulk path — folded into a word store so
// the results land in the snapshot window.
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
// one address while higher warps spread out — the per-warp deltas vary by
// lane and no mate is affinely congruent with the leader. Every mate must
// fall back to plain per-warp execution mid-cohort.
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

// TestBatchMemMatchesOracle is the core differential: batched memory
// execution against the per-warp oracle across all scheduler policies and
// both engines — unit-stride (bulk path), strided
// (template path), partial and mixed thread masks, overlapping stores
// between mates, sub-word ops, non-congruent fallback, and the
// compute+mem mixes shared with the engine harness.
func TestBatchMemMatchesOracle(t *testing.T) {
	mixedMasks := func(cfg Config) func(*Sim) error {
		return func(s *Sim) error {
			for c := 0; c < cfg.Cores; c++ {
				for w := 0; w < cfg.Warps; w++ {
					tmask := uint64(0xFF)
					if w%2 == 1 {
						tmask = 0x33
					}
					if err := s.ActivateWarp(c, w, 0x1000, tmask); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	cases := []struct {
		name     string
		prog     string
		activate func(Config) func(*Sim) error
	}{
		{"unit", memUnitProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
		{"unit/partial-mask", memUnitProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0x55) }},
		{"unit/mixed-masks", memUnitProg, mixedMasks},
		{"strided", memStridedProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
		{"store-overlap", memOverlapProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
		{"byte-half", memByteHalfProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
		{"non-congruent", memNonCongruentProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
		{"compute-mem-mix", diffMemProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"compute-mem-uniform", batchUniformProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
	}
	for _, tc := range cases {
		for _, pol := range SchedPolicies() {
			t.Run(fmt.Sprintf("%s/%s", tc.name, pol), func(t *testing.T) {
				cfg := DefaultConfig(2, 8, 8)
				cfg.Sched = pol
				oracle := batchMemOracle(t, cfg, tc.prog, tc.activate(cfg))
				cfg.BatchExec = true
				cfg.BatchMem = true
				for _, engine := range []struct {
					name string
					tick bool
				}{{"event", false}, {"tick", true}} {
					cfg.TickEngine = engine.tick
					got := runSnapshot(t, cfg, tc.prog, tc.activate(cfg))
					diffSnapshots(t, fmt.Sprintf("%s/%s", pol, engine.name), oracle, got)
				}
			})
		}
	}
}

// TestBatchMemMSHRBound reruns the strided differential with a tight MSHR
// bound: the structural LSU/MSHR gate must stall replaying mates exactly
// where it stalls the oracle's per-warp instructions.
func TestBatchMemMSHRBound(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(2, 8, 8)
			cfg.Sched = pol
			cfg.Mem.L1.MSHRs = 2
			cfg.Mem.L2.MSHRs = 2
			activate := activateAll(cfg, cfg.Warps, 0xFF)
			oracle := batchMemOracle(t, cfg, memStridedProg, activate)
			cfg.BatchExec, cfg.BatchMem = true, true
			got := runSnapshot(t, cfg, memStridedProg, activate)
			diffSnapshots(t, pol.String(), oracle, got)
		})
	}
}

// batchMemWhiteboxProg: four lockstep warps, identical unit-stride lane
// addresses (per-warp delta zero), one load.
const batchMemWhiteboxProg = `
	csrr t1, tid
	slli t1, t1, 2
	li   t0, 0x8000
	add  t0, t0, t1
	lw   t2, 0(t0)
	ecall
`

// driveCore steps the heap issue loop like the engines do — advancing the
// device cycle on stalls — until pred returns true or the step budget runs
// out (the test then fails).
func driveCore(t *testing.T, s *Sim, c *simCore, pred func() bool) {
	t.Helper()
	for step := 0; step < 10000; step++ {
		if pred() {
			return
		}
		issued, _, err := s.issueHeap(c)
		if err != nil {
			t.Fatal(err)
		}
		if !issued {
			s.cycle++
		}
	}
	t.Fatal("condition not reached within step budget")
}

// newWhiteboxSim builds a 1-core simulator for direct issueHeap driving.
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

// TestBatchMemCohortForms is the whitebox guard that memory batching
// actually engages: with four warps in lockstep at a load, the leader's
// issue must execute it and mark every mate with a memory replay
// (batchDstMem, the template generation, and the per-warp delta), and each
// mate's own slot must consume the mark and deliver the loaded data.
func TestBatchMemCohortForms(t *testing.T) {
	cfg := DefaultConfig(1, 4, 4)
	s, memory := newWhiteboxSim(t, cfg, batchMemWhiteboxProg, 4, 0xF)
	for lane := 0; lane < 4; lane++ {
		memory.Write32(0x8000+uint32(lane)*4, 0x111*uint32(lane+1))
	}
	c := &s.cores[0]
	memMarks := func() int {
		n := 0
		for w := range c.warps {
			if c.warps[w].batched && c.warps[w].batchDst == batchDstMem {
				n++
			}
		}
		return n
	}
	driveCore(t, s, c, func() bool { return memMarks() == 3 })
	lwPC := uint32(0x1000 + 5*4) // li 0x8000 expands to lui+addi
	for w := range c.warps {
		mw := &c.warps[w]
		if !mw.batched || mw.batchDst != batchDstMem {
			continue
		}
		if mw.batchPC != lwPC {
			t.Errorf("warp %d batchPC = %#x, want %#x", w, mw.batchPC, lwPC)
		}
		if mw.batchGen != c.memT.gen {
			t.Errorf("warp %d batchGen = %d, want %d", w, mw.batchGen, c.memT.gen)
		}
		if mw.batchMemDelta != 0 {
			t.Errorf("warp %d delta = %#x, want 0 (identical addresses)", w, mw.batchMemDelta)
		}
	}
	if !c.memT.unit {
		t.Error("full-mask unit-stride word load did not set the bulk fast-path flag")
	}
	driveCore(t, s, c, func() bool { return c.active == 0 })
	if n := memMarks(); n != 0 {
		t.Fatalf("%d warps still marked after completion", n)
	}
	for w := 0; w < 4; w++ {
		for lane := 0; lane < 4; lane++ {
			v, err := s.Reg(0, w, lane, 7) // t2
			if err != nil {
				t.Fatal(err)
			}
			if want := 0x111 * uint32(lane+1); v != want {
				t.Errorf("warp %d lane %d: loaded %#x, want %#x", w, lane, v, want)
			}
		}
	}
}

// TestBatchMemNonCongruentNoMarks pins the mid-cohort fallback: a cohort
// whose mates are not affinely congruent with the leader (lane-varying
// deltas) must mark nobody — the mates execute normally — and still finish
// with correct data.
func TestBatchMemNonCongruentNoMarks(t *testing.T) {
	cfg := DefaultConfig(1, 4, 4)
	prog := `
	csrr s1, wid
	csrr t1, tid
	mul  t0, t1, s1
	slli t0, t0, 2
	li   t2, 0x8000
	add  t0, t0, t2
	lw   t2, 0(t0)
	ecall
`
	s, memory := newWhiteboxSim(t, cfg, prog, 4, 0xF)
	for i := uint32(0); i < 16; i++ {
		memory.Write32(0x8000+i*4, 0x1000+i)
	}
	c := &s.cores[0]
	sawMemMark := false
	driveCore(t, s, c, func() bool {
		for w := range c.warps {
			if c.warps[w].batched && c.warps[w].batchDst == batchDstMem {
				sawMemMark = true
			}
		}
		return c.active == 0
	})
	if sawMemMark {
		t.Error("non-congruent mate was marked for batched memory replay")
	}
	for w := 0; w < 4; w++ {
		for lane := 0; lane < 4; lane++ {
			v, err := s.Reg(0, w, lane, 7) // t2
			if err != nil {
				t.Fatal(err)
			}
			if want := 0x1000 + uint32(w*lane); v != want {
				t.Errorf("warp %d lane %d: loaded %#x, want %#x", w, lane, v, want)
			}
		}
	}
}

// TestBatchMemInert pins the gating: memory batching requires the heap
// scheduler and the compute-batching layer — under ScanSched or with
// BatchExec off, s.batchMem must be false and the per-warp oracle path
// runs unconditionally.
func TestBatchMemInert(t *testing.T) {
	build := func(mut func(*Config)) *Sim {
		cfg := DefaultConfig(1, 4, 4)
		cfg.BatchExec, cfg.BatchMem = true, true
		mut(&cfg)
		memory := mem.NewMemory(1 << 16)
		hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, memory, hier)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := build(func(cfg *Config) { cfg.ScanSched = true }); s.batchMem {
		t.Error("ScanSched config has memory batching enabled; the scan oracle must stay per-warp")
	}
	if s := build(func(cfg *Config) { cfg.BatchExec = false }); s.batchMem {
		t.Error("BatchExec=false config has memory batching enabled; BatchMem rides on the cohort machinery")
	}
	if s := build(func(cfg *Config) {}); !s.batchMem {
		t.Error("default heap-scheduler config should have memory batching enabled")
	}
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
// — identically under both engines and both BatchMem settings, with
// byte-identical trap records. The multi-warp activation also covers the
// cohort-leader trap path (the leader fails during batched formation and
// the error propagates unchanged).
func TestMemTrapNoPartialMutation(t *testing.T) {
	run := func(tick, batchMem bool, warps int) *Trap {
		t.Helper()
		cfg := DefaultConfig(1, 4, 4)
		cfg.TickEngine = tick
		cfg.BatchMem = batchMem
		s, memory := newWhiteboxSim(t, cfg, memTrapProg, warps, 0x3)
		err := s.Run()
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("tick=%v batchMem=%v warps=%d: expected out-of-bounds trap, got %v", tick, batchMem, warps, err)
		}
		if v, _ := memory.Read32(0x8000); v != 0 {
			t.Fatalf("tick=%v batchMem=%v warps=%d: lane 0 store committed (%#x) despite lane 1 trap", tick, batchMem, warps, v)
		}
		return trap
	}
	for _, warps := range []int{1, 4} {
		oracle := run(false, false, warps)
		for _, engine := range []bool{false, true} {
			got := run(engine, true, warps)
			if *oracle != *got {
				t.Errorf("warps=%d tick=%v: trap differs:\noracle  %+v\nbatched %+v", warps, engine, oracle, got)
			}
		}
	}
}

// TestBatchMemScanSchedDifferential runs a memory-heavy program under
// ScanSched with BatchMem requested: the scan oracle must stay
// byte-identical to itself with the flag off (the flag is inert there).
func TestBatchMemScanSchedDifferential(t *testing.T) {
	cfg := DefaultConfig(2, 8, 8)
	cfg.ScanSched = true
	activate := activateAll(cfg, cfg.Warps, 0xFF)
	oracle := batchMemOracle(t, cfg, memUnitProg, activate)
	cfg.BatchExec, cfg.BatchMem = true, true
	got := runSnapshot(t, cfg, memUnitProg, activate)
	diffSnapshots(t, "scan-sched", oracle, got)
}
