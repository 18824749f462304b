package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// Batched-execution differential harness (bare-simulator level). The
// contract under test: with Config.BatchExec on, every simulated observable
// — cycles, per-core statistics, cache/DRAM statistics, memory contents,
// the observer stream, traps — is byte-identical to the per-warp oracle
// (BatchExec off), under every scheduler policy and both engines.

// batchUniformProg keeps every warp of a core in lockstep through a
// compute-heavy loop that covers the whole batchable set: fast ALU ops,
// the slow mul/div arm, immediates, lui/auipc, and the FP pipelines.
// Lane values differ (tid-dependent), so the fused warps x lanes loops are
// exercised with non-uniform data; control flow is warp-uniform (bnez on a
// loop counter every lane shares). Results land in the snapshot window.
const batchUniformProg = `
	csrr s0, cid
	csrr s1, wid
	csrr s2, tid
	slli t0, s1, 3
	add  t0, t0, s2
	add  t0, t0, s0
	fcvt.s.w f0, t0
	li   t1, 48
	li   t2, 0
	li   t3, 7
loop:
	add  t2, t2, t0
	xor  t4, t2, t1
	mul  t5, t4, t3
	sub  t2, t5, t4
	ori  t6, t2, 1
	div  a2, t5, t6
	lui  a0, 0x12
	auipc a1, 0
	add  a0, a0, a2
	fadd.s f1, f0, f0
	fmul.s f2, f1, f0
	fmadd.s f3, f2, f1, f0
	fsgnjx.s f4, f3, f2
	fmin.s f5, f4, f1
	addi t1, t1, -1
	bnez t1, loop
	slli s3, s0, 12
	slli s4, s1, 7
	add  s3, s3, s4
	slli s5, s2, 3
	add  s3, s3, s5
	li   s6, 0x8000
	add  s3, s3, s6
	sw   t2, 0(s3)
	fsw  f3, 4(s3)
	ecall
`

// batchOracle runs prog with BatchExec off (the per-warp oracle) and
// returns its snapshot; cfg is taken by value so the caller's copy keeps
// its BatchExec setting.
func batchOracle(t *testing.T, cfg Config, prog string, activate func(*Sim) error) snapshot {
	t.Helper()
	cfg.BatchExec = false
	return runSnapshot(t, cfg, prog, activate)
}

// TestBatchMatchesUnbatchedOracle is the core differential: batched
// execution vs the per-warp oracle across all four scheduler policies and
// both engines — on the uniform cohort-heavy program,
// on the memory/FP/divergence programs shared with the engine harness
// (cohorts form and dissolve around fallback ops), and on partial and
// per-warp-mixed thread masks.
func TestBatchMatchesUnbatchedOracle(t *testing.T) {
	mixedMasks := func(cfg Config) func(*Sim) error {
		return func(s *Sim) error {
			for c := 0; c < cfg.Cores; c++ {
				for w := 0; w < cfg.Warps; w++ {
					tmask := uint64(0xFF)
					if w%2 == 1 {
						tmask = 0x0F
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
		{"uniform", batchUniformProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0xFF) }},
		{"partial-mask", batchUniformProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, 0x55) }},
		{"mixed-masks", batchUniformProg, mixedMasks},
		{"mem", diffMemProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"fp-divergence", diffFPProg,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
	}
	for _, tc := range cases {
		for _, pol := range SchedPolicies() {
			t.Run(fmt.Sprintf("%s/%s", tc.name, pol), func(t *testing.T) {
				cfg := DefaultConfig(2, 8, 8)
				cfg.Sched = pol
				oracle := batchOracle(t, cfg, tc.prog, tc.activate(cfg))
				cfg.BatchExec = true
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

// TestBatchRotationBoundary pins cohort formation across the round-robin
// rotation boundary: an odd warp count keeps the rr pointer sliding
// relative to cohort membership, so the leader is regularly picked
// mid-mask with mates on both sides of the wrap. The two-level policy
// gets the same program so group-boundary rotation is covered too.
func TestBatchRotationBoundary(t *testing.T) {
	for _, pol := range []SchedPolicy{SchedRoundRobin, SchedTwoLevel} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(1, 5, 8)
			cfg.Sched = pol
			activate := activateAll(cfg, 5, 0xFF)
			oracle := batchOracle(t, cfg, batchUniformProg, activate)
			cfg.BatchExec = true
			got := runSnapshot(t, cfg, batchUniformProg, activate)
			diffSnapshots(t, pol.String(), oracle, got)
		})
	}
}

// TestBatchObserverStream pins observer byte-identity: the per-issue event
// stream (order included) must not change when cohort mates replay their
// bookkeeping instead of executing.
func TestBatchObserverStream(t *testing.T) {
	run := func(batch bool) []IssueEvent {
		cfg := DefaultConfig(2, 8, 8)
		cfg.BatchExec = batch
		p := asm.MustAssemble(batchUniformProg, 0x1000, nil)
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
		if err := activateAll(cfg, cfg.Warps, 0xFF)(s); err != nil {
			t.Fatal(err)
		}
		var events []IssueEvent
		s.SetObserver(func(ev IssueEvent) { events = append(events, ev) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return events
	}
	oracle := run(false)
	batched := run(true)
	if len(oracle) != len(batched) {
		t.Fatalf("event count differs: oracle %d, batched %d", len(oracle), len(batched))
	}
	for i := range oracle {
		if oracle[i] != batched[i] {
			t.Fatalf("event %d differs:\noracle  %+v\nbatched %+v", i, oracle[i], batched[i])
		}
	}
}

// TestBatchCohortForms is the whitebox guard that batching actually
// engages: with several warps parked at the same pc on a batchable
// instruction, the first issue must pre-execute the cohort and mark every
// mate, and each mate's own issue must consume the mark.
func TestBatchCohortForms(t *testing.T) {
	cfg := DefaultConfig(1, 4, 4)
	p := asm.MustAssemble("add t0, t1, t2\necall\n", 0x1000, nil)
	memory := mem.NewMemory(1 << 16)
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
	for w := 0; w < 4; w++ {
		if err := s.ActivateWarp(0, w, 0x1000, 0xF); err != nil {
			t.Fatal(err)
		}
	}
	c := &s.cores[0]
	issued, _, err := s.issueHeap(c)
	if err != nil || !issued {
		t.Fatalf("first issue: issued=%v err=%v", issued, err)
	}
	marked := 0
	for w := range c.warps {
		if c.warps[w].batched {
			if c.warps[w].batchPC != 0x1000 {
				t.Errorf("warp %d batchPC = %#x, want 0x1000", w, c.warps[w].batchPC)
			}
			marked++
		}
	}
	if marked != 3 {
		t.Fatalf("cohort mates marked = %d, want 3", marked)
	}
	// Each mate's own issue slot consumes its mark.
	for i := 0; i < 3; i++ {
		if issued, _, err := s.issueHeap(c); err != nil || !issued {
			t.Fatalf("mate issue %d: issued=%v err=%v", i, issued, err)
		}
	}
	for w := range c.warps {
		if c.warps[w].batched {
			t.Errorf("warp %d still marked batched after its issue", w)
		}
	}
}

// TestBatchScanSchedInert pins that the legacy scan oracle never batches:
// ScanSched forces the per-warp path even with BatchExec requested, so the
// scan engine stays a fully independent oracle.
func TestBatchScanSchedInert(t *testing.T) {
	cfg := DefaultConfig(1, 4, 4)
	cfg.ScanSched = true
	cfg.BatchExec = true
	memory := mem.NewMemory(1 << 16)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	if s.batch {
		t.Fatal("ScanSched config has batching enabled; the scan oracle must stay per-warp")
	}
}

// batchTrapProg: uniform compute, then every lane jumps through a
// tid-dependent register — a divergent jalr, which is not batchable and
// must fall back per-warp and trap identically in both modes.
const batchTrapProg = `
	csrr t0, tid
	li   t1, 16
	li   t2, 0
loop:
	add  t2, t2, t0
	mul  t3, t2, t0
	addi t1, t1, -1
	bnez t1, loop
	slli t4, t0, 2
	la   t5, done
	add  t5, t5, t4
	jalr t5
done:
	ecall
`

// TestBatchTrapIdentity pins the mid-cohort trap contract: a warp whose
// next instruction is trap-capable (here a lane-divergent jalr) falls back
// to the per-warp path, and the resulting trap — cycle, core, warp, pc,
// reason — is byte-identical to the unbatched oracle under every policy.
func TestBatchTrapIdentity(t *testing.T) {
	run := func(pol SchedPolicy, batch bool) *Trap {
		cfg := DefaultConfig(2, 4, 4)
		cfg.Sched = pol
		cfg.BatchExec = batch
		p := asm.MustAssemble(batchTrapProg, 0x1000, nil)
		memory := mem.NewMemory(1 << 16)
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
		if err := activateAll(cfg, 4, 0xF)(s); err != nil {
			t.Fatal(err)
		}
		err = s.Run()
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("sched=%s batch=%v: expected divergent-jalr trap, got %v", pol, batch, err)
		}
		return trap
	}
	for _, pol := range SchedPolicies() {
		oracle := run(pol, false)
		batched := run(pol, true)
		if *oracle != *batched {
			t.Errorf("sched=%s: trap differs:\noracle  %+v\nbatched %+v", pol, oracle, batched)
		}
	}
}

// batchEarlyExitProg: warp 0 leaves the cohort mid-stream through a
// warp-uniform branch and a jalr (both fallback ops) while its former
// mates keep computing; the run completes, so full snapshots — including
// the mates' stored results — must match the oracle.
const batchEarlyExitProg = `
	csrr s1, wid
	csrr t0, tid
	li   t1, 12
	li   t2, 0
loopA:
	add  t2, t2, t0
	mul  t3, t2, t0
	addi t1, t1, -1
	bnez t1, loopA
	bnez s1, rest
	la   t5, store
	jalr t5
rest:
	li   t1, 12
loopB:
	add  t2, t2, t3
	xor  t3, t3, t2
	addi t1, t1, -1
	bnez t1, loopB
store:
	slli s3, s1, 6
	csrr t6, tid
	slli t4, t6, 2
	add  s3, s3, t4
	li   s6, 0x8000
	add  s3, s3, s6
	sw   t2, 0(s3)
	ecall
`

// TestBatchMateEarlyExit pins that a warp leaving the cohort stream via
// fallback control flow does not corrupt the warps it was batched with.
func TestBatchMateEarlyExit(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(1, 4, 4)
			cfg.Sched = pol
			activate := activateAll(cfg, 4, 0xF)
			oracle := batchOracle(t, cfg, batchEarlyExitProg, activate)
			cfg.BatchExec = true
			got := runSnapshot(t, cfg, batchEarlyExitProg, activate)
			diffSnapshots(t, pol.String(), oracle, got)
		})
	}
}

// batchX0Prog: batchable ops with rd == x0 in a lockstep cohort. The
// batched kernels must discard the writes exactly like the per-warp path.
const batchX0Prog = `
	csrr t0, tid
	addi t1, t0, 5
	add  x0, t0, t1
	addi x0, t1, 9
	mul  x0, t0, t1
	lui  x0, 0x5
	auipc x0, 0
	fcvt.s.w f0, t0
	fcvt.w.s x0, f0
	feq.s x0, f0, f0
	add  t2, t0, t1
	csrr s1, wid
	slli s3, s1, 6
	slli t4, t0, 2
	add  s3, s3, t4
	li   s6, 0x8000
	add  s3, s3, s6
	sw   t2, 0(s3)
	ecall
`

// TestBatchRdX0 runs an x0-destination cohort and checks both snapshot
// identity and that x0 stayed architecturally zero in every lane.
func TestBatchRdX0(t *testing.T) {
	cfg := DefaultConfig(1, 4, 4)
	activate := activateAll(cfg, 4, 0xF)
	oracle := batchOracle(t, cfg, batchX0Prog, activate)
	cfg.BatchExec = true
	p := asm.MustAssemble(batchX0Prog, 0x1000, nil)
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
	if err := activate(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := takeSnapshot(s, hier, cfg.Cores)
	got.memData, err = memory.ReadBytes(0x8000, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "rd-x0", oracle, got)
	for w := 0; w < 4; w++ {
		for lane := 0; lane < 4; lane++ {
			v, err := s.Reg(0, w, lane, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Errorf("warp %d lane %d: x0 = %#x after batched x0-destination ops", w, lane, v)
			}
		}
	}
}
