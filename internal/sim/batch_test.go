package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// Lockstep-batch harness (bare-simulator level): programs that keep a whole
// batch of warps at the same pc, issue after issue, with lane-varying data.
// Every simulated observable — cycles, per-core statistics, cache/DRAM
// statistics, memory contents, the observer stream, traps — is held to its
// frozen digest under every scheduling policy. Where a program's results
// have a closed form, the stored values are also checked against it
// directly.

// batchUniformProg keeps every warp of a core in lockstep through a
// compute-heavy loop over the fast ALU ops, the slow mul/div arm,
// immediates, lui/auipc and the FP pipelines. Lane values differ
// (tid-dependent), so the dense lane loops run with non-uniform data;
// control flow is warp-uniform (bnez on a loop counter every lane shares).
// Results land in the snapshot window at 0x8000 + cid<<12 + wid<<7 + tid<<3.
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

// batchUniformT2 is the closed form of the integer result batchUniformProg
// stores for one lane.
func batchUniformT2(cid, wid, tid int) uint32 {
	t0 := uint32(wid*8 + tid + cid)
	var t2 uint32
	for t1 := uint32(48); t1 > 0; t1-- {
		t2 += t0
		t4 := t2 ^ t1
		t2 = t4*7 - t4
	}
	return t2
}

// checkBatchUniformResults holds every lane's stored integer result to
// batchUniformT2; lanes outside their warp's mask must have stored nothing.
func checkBatchUniformResults(t *testing.T, name string, cfg Config, tmask func(w int) uint64, snap snapshot) {
	t.Helper()
	for c := 0; c < cfg.Cores; c++ {
		for w := 0; w < cfg.Warps; w++ {
			for lane := 0; lane < cfg.Threads; lane++ {
				off := c<<12 + w<<7 + lane<<3
				got := binary.LittleEndian.Uint32(snap.memData[off:])
				want := uint32(0)
				if tmask(w)>>lane&1 == 1 {
					want = batchUniformT2(c, w, lane)
				}
				if got != want {
					t.Errorf("%s: core %d warp %d lane %d stored %#x, want %#x", name, c, w, lane, got, want)
				}
			}
		}
	}
}

// runFrozen runs prog on the device for cfg, holds the snapshot to the
// test's frozen digest, and returns it.
func runFrozen(t *testing.T, cfg Config, prog string, activate func(*Sim) error) snapshot {
	t.Helper()
	got := runSnapshot(t, cfg, prog, activate)
	CheckEngineDigest(t, "", digestOf(got))
	return got
}

// activateMasks starts every warp of every core with the mask tmask(w).
func activateMasks(cfg Config, tmask func(w int) uint64) func(*Sim) error {
	return func(s *Sim) error {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < cfg.Warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, tmask(w)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestBatchMatchesUnbatchedOracle is the core lockstep case across all
// four scheduler policies — on the uniform lockstep program (full, partial
// and per-warp mixed thread masks, each also checked against its closed
// form) and on the memory/FP/divergence programs shared with the engine
// harness, where the warps fall in and out of step.
func TestBatchMatchesUnbatchedOracle(t *testing.T) {
	mixed := func(w int) uint64 {
		if w%2 == 1 {
			return 0x0F
		}
		return 0xFF
	}
	cases := []struct {
		name  string
		prog  string
		warps int              // 0: all warps, each under tmask
		tmask func(int) uint64 // per-warp mask
		check bool             // closed-form check of batchUniformProg
	}{
		{"uniform", batchUniformProg, 0, func(int) uint64 { return 0xFF }, true},
		{"partial-mask", batchUniformProg, 0, func(int) uint64 { return 0x55 }, true},
		{"mixed-masks", batchUniformProg, 0, mixed, true},
		{"mem", diffMemProg, 4, func(int) uint64 { return 0xF }, false},
		{"fp-divergence", diffFPProg, 4, func(int) uint64 { return 0xF }, false},
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
				if tc.check {
					checkBatchUniformResults(t, pol.String(), cfg, tc.tmask, got)
				}
			})
		}
	}
}

// TestBatchRotationBoundary pins lockstep issue across the round-robin
// rotation boundary: an odd warp count keeps the rr pointer sliding
// relative to the batch, so the issuing warp is regularly picked mid-mask
// with ready warps on both sides of the wrap. The two-level policy gets the
// same program so group-boundary rotation is covered too.
func TestBatchRotationBoundary(t *testing.T) {
	for _, pol := range []SchedPolicy{SchedRoundRobin, SchedTwoLevel} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(1, 5, 8)
			cfg.Sched = pol
			full := func(int) uint64 { return 0xFF }
			got := runFrozen(t, cfg, batchUniformProg, activateMasks(cfg, full))
			checkBatchUniformResults(t, pol.String(), cfg, full, got)
		})
	}
}

// TestBatchObserverStream pins the observer contract on the lockstep
// program: the per-issue event stream, order included, matches its frozen
// digest.
func TestBatchObserverStream(t *testing.T) {
	cfg := DefaultConfig(2, 8, 8)
	s := newDiffSim(t, cfg, batchUniformProg, activateAll(cfg, cfg.Warps, 0xFF))
	var events []IssueEvent
	s.SetObserver(func(ev IssueEvent) { events = append(events, ev) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	CheckEngineDigest(t, "", digestOf(events))
}

// batchTrapProg: lockstep compute, then every lane jumps through a
// tid-dependent register — a divergent jalr, which traps.
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

// TestBatchTrapIdentity pins the trap contract of a lockstep batch: the
// divergent-jalr trap — cycle, core, warp, pc, reason — is held to its
// frozen digest under every policy.
func TestBatchTrapIdentity(t *testing.T) {
	for _, pol := range SchedPolicies() {
		cfg := DefaultConfig(2, 4, 4)
		cfg.Sched = pol
		s := newDiffSim(t, cfg, batchTrapProg, activateAll(cfg, 4, 0xF))
		var trap *Trap
		if err := s.Run(); !errors.As(err, &trap) {
			t.Fatalf("sched=%s: expected divergent-jalr trap, got %v", pol, err)
		}
		CheckEngineDigest(t, pol.String(), digestOf(*trap))
	}
}

// batchEarlyExitProg: warp 0 leaves the lockstep batch mid-stream through a
// warp-uniform branch and a jalr while the other warps keep computing; the
// run completes, so full snapshots — including every warp's stored result
// at 0x8000 + wid<<6 + tid<<2 — must match their frozen digests.
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

// TestBatchMateEarlyExit pins that a warp leaving the lockstep stream via
// control flow does not disturb the warps it was in step with.
func TestBatchMateEarlyExit(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(1, 4, 4)
			cfg.Sched = pol
			got := runFrozen(t, cfg, batchEarlyExitProg, activateAll(cfg, 4, 0xF))
			// Warp 0 stores loopA's sum 12*tid.
			for lane := 0; lane < 4; lane++ {
				v := binary.LittleEndian.Uint32(got.memData[lane<<2:])
				if want := uint32(12 * lane); v != want {
					t.Errorf("warp 0 lane %d stored %#x, want %#x", lane, v, want)
				}
			}
		})
	}
}

// batchX0Prog: ops with rd == x0 issued by a lockstep batch. Every write
// must be discarded.
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

// TestBatchRdX0 runs an x0-destination lockstep batch and checks the
// snapshot's frozen digest, the stored results, and that x0 stayed
// architecturally zero in every lane.
func TestBatchRdX0(t *testing.T) {
	cfg := DefaultConfig(1, 4, 4)
	s := newDiffSim(t, cfg, batchX0Prog, activateAll(cfg, 4, 0xF))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	CheckEngineDigest(t, "", digestOf(takeSnapshot(t, s)))
	memory := s.Memory()
	for w := 0; w < 4; w++ {
		for lane := 0; lane < 4; lane++ {
			v, err := s.Reg(0, w, lane, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Errorf("warp %d lane %d: x0 = %#x after x0-destination ops", w, lane, v)
			}
			stored, ok := memory.Read32(0x8000 + uint32(w<<6+lane<<2))
			if !ok {
				t.Fatal("result word out of bounds")
			}
			if wantT2 := uint32(2*lane + 5); stored != wantT2 {
				t.Errorf("warp %d lane %d: stored %#x, want %#x", w, lane, stored, wantT2)
			}
		}
	}
}
