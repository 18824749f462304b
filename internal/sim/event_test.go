package sim

// Bare-simulator half of the engine harness: the event-driven device engine
// (event.go) held to the frozen answers of testdata/engine_digests.json in
// every simulated observable — device cycles, per-core counters including
// the MemStall/ExecStall attribution, cache/DRAM statistics, memory
// contents, observer stream, trap coordinates and the MaxCycles deadline —
// across every scheduling policy. internal/sim/event_matrix_test.go holds
// the registry kernels to their golden digests.

import (
	"fmt"
	"strings"
	"testing"
)

// Every scheduling policy on the standard differential programs is held to
// its frozen digest.
func TestEventMatchesTickEngine(t *testing.T) {
	for _, sched := range SchedPolicies() {
		for _, tc := range schedDiffCases() {
			t.Run(fmt.Sprintf("%s/%s", sched, tc.name), func(t *testing.T) {
				cfg := DefaultConfig(4, 4, 4)
				cfg.Sched = sched
				CheckEngineDigest(t, "", digestOf(runSnapshot(t, cfg, tc.prog, tc.activate(cfg))))
			})
		}
	}
}

// TestEventHighWarpDifferential runs the engine at 32 warps per core, where
// most warps sleep on every cycle.
func TestEventHighWarpDifferential(t *testing.T) {
	for _, sched := range SchedPolicies() {
		cfg := DefaultConfig(2, 32, 2)
		cfg.Sched = sched
		CheckEngineDigest(t, sched.String(), digestOf(runSnapshot(t, cfg, highWarpProg, activateAll(cfg, 32, 0x3))))
	}
}

// partialSkipProg drives the regime where sleeping cores never see a
// device-wide idle cycle: core 0 spins a dependent ALU loop that issues
// every cycle, while every other core walks a strided read-modify-write
// loop that sleeps out DRAM misses for long stretches. The sleepers' lazy
// bulk spans must add up to their exact MemStall/ExecStall split.
const partialSkipProg = `
	csrr s0, cid
	bnez s0, memside
	li   t0, 3000
busy:
	addi t0, t0, -1
	bnez t0, busy
	ecall
memside:
	slli s0, s0, 14
	csrr t0, wid
	slli t1, t0, 10
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 6
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 16
mloop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, mloop
	ecall
`

// TestEventPartialSkipAttribution is the targeted stall-attribution case
// for that regime, plus shape assertions proving the program exercised it.
func TestEventPartialSkipAttribution(t *testing.T) {
	cfg := DefaultConfig(4, 2, 4)
	snap := runSnapshot(t, cfg, partialSkipProg, activateAll(cfg, 2, 0xF))
	CheckEngineDigest(t, "", digestOf(snap))
	if busy := snap.cores[0]; busy.Issued < 3000 {
		t.Errorf("core 0 issued %d instructions, want a >=3000-cycle busy loop keeping the device issuing", busy.Issued)
	}
	for c := 1; c < cfg.Cores; c++ {
		if st := snap.cores[c]; st.MemStall == 0 {
			t.Errorf("core %d MemStall = 0, want long DRAM sleeps under a busy device", c)
		}
	}
}

// TestEventDeadlockBarrier drives the first deadlockTrap variant through
// the event queue's parked list: trap coordinates, trap cycle and the
// settled stall statistics are held to their frozen digest.
func TestEventDeadlockBarrier(t *testing.T) {
	cfg := DefaultConfig(2, 2, 2)
	s := newDiffSim(t, cfg, deadlockBarrierProg, activateAll(cfg, 2, 0x3))
	trap, ok := s.Run().(*Trap)
	if !ok {
		t.Fatal("want a deadlock *Trap")
	}
	if !strings.Contains(trap.Reason, "barrier that can never fill") {
		t.Fatalf("trap reason %q", trap.Reason)
	}
	CheckEngineDigest(t, "", digestOf(*trap, []CoreStats{s.CoreStatsOf(0), s.CoreStatsOf(1)}))
}

// TestEventDeadlockNoSchedulableEvent reaches the second deadlockTrap
// variant through the event queue itself: a core whose only active warp has
// vanished from both scheduler structures (the bookkeeping bug the variant
// is defensive against) fails its issue with no timed wake, lands on the
// parked list, and the drained queue classifies the deadlock — charging the
// parked core the one stall cycle of the trap cycle.
func TestEventDeadlockNoSchedulableEvent(t *testing.T) {
	s := rigNoStart(t, DefaultConfig(1, 1, 1), `ecall`, nil)
	if err := s.ActivateWarp(0, 0, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	s.cores[0].ready = 0 // rig: active warp in neither ready set nor wake heap
	trap, ok := s.Run().(*Trap)
	if !ok {
		t.Fatal("want a deadlock *Trap")
	}
	if !strings.Contains(trap.Reason, "no schedulable event") {
		t.Errorf("trap reason %q, want the no-schedulable-event diagnostic", trap.Reason)
	}
	if trap.Cycle != 0 {
		t.Errorf("trap cycle %d, want 0 (first failed issue drains the queue)", trap.Cycle)
	}
	if st := s.CoreStatsOf(0); st.ExecStall != 1 || st.MemStall != 0 {
		t.Errorf("stats %+v, want the parked core's single settled ExecStall cycle", st)
	}
}

// TestEventObserverStreamMatchesTick pins the observer contract: the issue
// stream arrives in (cycle, core) order and matches its frozen digest.
func TestEventObserverStreamMatchesTick(t *testing.T) {
	cfg := DefaultConfig(4, 2, 4)
	s := newDiffSim(t, cfg, diffMemProg, activateAll(cfg, 2, 0xF))
	var evs []IssueEvent
	s.SetObserver(func(e IssueEvent) { evs = append(evs, e) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("observer saw no issues")
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if b.Cycle < a.Cycle || (b.Cycle == a.Cycle && b.Core < a.Core) {
			t.Fatalf("event %d (cycle %d core %d) after (cycle %d core %d): global issue order violated",
				i, b.Cycle, b.Core, a.Cycle, a.Core)
		}
	}
	CheckEngineDigest(t, "", digestOf(evs))
}

// TestEventMaxCyclesDeadline pins the deadline path: the error, the device
// cycle it stops at and the settled stall statistics are held to their
// frozen digest, whether the limit lands on an issuing cycle or inside a
// fast-forwarded sleep.
func TestEventMaxCyclesDeadline(t *testing.T) {
	for _, limit := range []uint64{97, 100} {
		cfg := DefaultConfig(2, 2, 4)
		cfg.MaxCycles = limit
		s := newDiffSim(t, cfg, diffMemProg, activateAll(cfg, 2, 0xF))
		err := s.Run()
		if err == nil || !strings.Contains(err.Error(), "exceeded cycle limit") {
			t.Fatalf("limit %d: err %v, want the deadline", limit, err)
		}
		CheckEngineDigest(t, fmt.Sprintf("limit=%d", limit),
			digestOf(err.Error(), s.Cycle(), s.CoreStatsOf(0), s.CoreStatsOf(1)))
	}
}
