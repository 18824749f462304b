package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// This file pins the scheduler subsystem (sched.go): frozen digests for rr
// and gto, determinism and functional equivalence of every policy, the
// ready/sleep set invariant and both deadlockTrap diagnostics. The
// kernel-level matrix lives in sched_matrix_test.go.

// highWarpProg is a strided load/store loop laid out for up to 64 warps of
// up to 4 cores without cross-core overlap (cid<<16, wid<<10, tid<<6),
// so runs stay race-free at high warp counts.
const highWarpProg = `
	csrr s0, cid
	slli s0, s0, 16
	csrr t0, wid
	slli t1, t0, 10
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 6
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 8
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	fcvt.s.w f0, t4
	fmadd.s f1, f0, f0, f0
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// schedDiffCases are the (program, activation) points every scheduler
// differential below runs.
func schedDiffCases() []struct {
	name     string
	prog     string
	activate func(Config) func(*Sim) error
} {
	return []struct {
		name     string
		prog     string
		activate func(Config) func(*Sim) error
	}{
		{"mem", diffMemProg, func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"fp-divergence", diffFPProg, func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"wspawn-barrier", diffSpawnProg, func(cfg Config) func(*Sim) error { return activateAll(cfg, 1, 1) }},
	}
}

// TestSchedHeapMatchesScanOracle is the bare-simulator half of the
// scheduler harness: under the rr and gto policies the ready-set/wake-heap
// engine is held to its frozen digest — cycles, per-core counters
// (including the MemStall/ExecStall attribution), cache and DRAM
// statistics, memory contents.
func TestSchedHeapMatchesScanOracle(t *testing.T) {
	for _, sched := range []SchedPolicy{SchedRoundRobin, SchedGTO} {
		for _, tc := range schedDiffCases() {
			t.Run(fmt.Sprintf("%s/%s", sched, tc.name), func(t *testing.T) {
				cfg := DefaultConfig(4, 4, 4)
				cfg.Sched = sched
				CheckEngineDigest(t, "", digestOf(runSnapshot(t, cfg, tc.prog, tc.activate(cfg))))
			})
		}
	}
}

// TestSchedHighWarpDifferential runs the scheduler at the warp count the
// wake heap exists for: 32 warps per core. Every policy must reproduce
// itself run to run; rr and gto are also held to their frozen digests.
func TestSchedHighWarpDifferential(t *testing.T) {
	activate := func(cfg Config) func(*Sim) error { return activateAll(cfg, 32, 0x3) }
	for _, sched := range SchedPolicies() {
		t.Run(sched.String(), func(t *testing.T) {
			cfg := DefaultConfig(2, 32, 2)
			cfg.Sched = sched
			digest := digestOf(runSnapshot(t, cfg, highWarpProg, activate(cfg)))
			if again := digestOf(runSnapshot(t, cfg, highWarpProg, activate(cfg))); again != digest {
				t.Errorf("rerun digest %s, first run %s", again, digest)
			}
			if sched == SchedRoundRobin || sched == SchedGTO {
				CheckEngineDigest(t, "", digest)
			}
		})
	}
}

// TestSchedPoliciesFunctionallyIdentical pins that scheduling affects
// timing only: every policy retires the same architectural state (memory
// contents) and the same issued-instruction count on a race-free program,
// while remaining free to differ in cycles.
func TestSchedPoliciesFunctionallyIdentical(t *testing.T) {
	var ref snapshot
	for i, sched := range SchedPolicies() {
		cfg := DefaultConfig(2, 8, 4)
		cfg.Sched = sched
		snap := runSnapshot(t, cfg, highWarpProg, activateAll(cfg, 8, 0xF))
		var issued uint64
		for _, cs := range snap.cores {
			issued += cs.Issued
		}
		if i == 0 {
			ref = snap
			continue
		}
		var refIssued uint64
		for _, cs := range ref.cores {
			refIssued += cs.Issued
		}
		if issued != refIssued {
			t.Errorf("%s: issued %d instructions, rr issued %d", sched, issued, refIssued)
		}
		if !slices.Equal(snap.memData, ref.memData) {
			t.Errorf("%s: final memory differs from rr", sched)
		}
	}
}

// TestSchedSetsDrainAfterRun pins the scheduler-set invariant at the only
// externally observable point: once every warp has retired, each core's
// ready set and wake heap must both be empty (an active non-barrier warp
// is in exactly one of them; inactive warps are in neither).
func TestSchedSetsDrainAfterRun(t *testing.T) {
	cfg := DefaultConfig(2, 4, 4)
	p := asm.MustAssemble(diffSpawnProg, 0x1000, nil)
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
	if err := activateAll(cfg, 1, 1)(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range s.cores {
		c := &s.cores[i]
		if c.ready != 0 {
			t.Errorf("core %d: ready set %#x not drained after run", i, c.ready)
		}
		if len(c.wakeHeap) != 0 {
			t.Errorf("core %d: wake heap holds %d entries after run", i, len(c.wakeHeap))
		}
	}
}

// deadlockBarrierProg: warp 0 exits immediately while warp 1 waits on a
// two-warp barrier no second warp can ever reach.
const deadlockBarrierProg = `
	csrr t0, wid
	bnez t0, wait
	ecall
wait:
	li   t0, 0
	li   t1, 2
	vx_bar t0, t1
	ecall
`

// TestDeadlockTrapBarrierNeverFills drives the first deadlockTrap variant
// end-to-end: a warp parked on a barrier that can never fill must trap with
// the barrier diagnostic and the waiting warp's coordinates.
func TestDeadlockTrapBarrierNeverFills(t *testing.T) {
	cfg := DefaultConfig(2, 2, 2)
	s := newDiffSim(t, cfg, deadlockBarrierProg, activateAll(cfg, 2, 0x3))
	trap, ok := s.Run().(*Trap)
	if !ok {
		t.Fatal("want a deadlock *Trap")
	}
	if !strings.Contains(trap.Reason, "barrier that can never fill") {
		t.Errorf("trap reason %q, want the barrier diagnostic", trap.Reason)
	}
	if trap.Warp != 1 {
		t.Errorf("trap names warp %d, want the waiting warp 1", trap.Warp)
	}
}

// TestDeadlockTrapNoSchedulableEvent pins the second deadlockTrap variant
// directly. Run can only reach it through a scheduler-bookkeeping bug (a
// runnable warp always yields a wake time), so it is the defensive
// diagnostic; construct its state by hand and pin the classification.
func TestDeadlockTrapNoSchedulableEvent(t *testing.T) {
	s := rigNoStart(t, DefaultConfig(1, 1, 1), `ecall`, nil)
	if err := s.ActivateWarp(0, 0, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	trap, ok := s.deadlockTrap().(*Trap)
	if !ok {
		t.Fatal("deadlockTrap did not return a *Trap")
	}
	if !strings.Contains(trap.Reason, "no schedulable event") {
		t.Errorf("trap reason %q, want the no-schedulable-event diagnostic", trap.Reason)
	}
}

// TestParseSchedPolicy pins the name round trip the CLI flags and the
// sweep checkpoint meta depend on.
func TestParseSchedPolicy(t *testing.T) {
	for _, p := range SchedPolicies() {
		got, err := ParseSchedPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSchedPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseSchedPolicy("lifo"); err == nil {
		t.Error("ParseSchedPolicy accepted an unknown policy")
	}
}

// TestValidateSchedulerConstraints pins the structural limit the
// scheduler subsystem introduces, the 64-warp ready-mask width, and that
// every policy validates.
func TestValidateSchedulerConstraints(t *testing.T) {
	cfg := DefaultConfig(1, 65, 2)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("Validate(65 warps) = %v, want the warp-mask width error", err)
	}
	for _, p := range SchedPolicies() {
		cfg = DefaultConfig(1, 64, 2)
		cfg.Sched = p
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(64 warps, %s) = %v, want ok", p, err)
		}
	}
}
