package sim

// Bare-simulator half of the engine differential harness: the event-driven
// device engine (event.go, the default) against the legacy tick loop
// retained behind Config.TickEngine. The contract is byte-identity in every
// simulated observable — device cycles, per-core counters including the
// MemStall/ExecStall attribution, cache/DRAM statistics, memory contents,
// observer stream, trap coordinates and the MaxCycles deadline — across the
// engine x sched matrix. internal/sim/event_matrix_test.go pins the same
// property over the kernel registry.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// TestEventMatchesTickEngine diffs the event engine against the tick oracle
// for every scheduling policy over the standard differential programs.
func TestEventMatchesTickEngine(t *testing.T) {
	for _, sched := range SchedPolicies() {
		for _, tc := range schedDiffCases() {
			t.Run(fmt.Sprintf("%s/%s", sched, tc.name), func(t *testing.T) {
				cfg := DefaultConfig(4, 4, 4)
				cfg.Sched = sched
				cfg.TickEngine = true
				oracle := runSnapshot(t, cfg, tc.prog, tc.activate(cfg))
				cfg.TickEngine = false
				ev := runSnapshot(t, cfg, tc.prog, tc.activate(cfg))
				diffSnapshots(t, fmt.Sprintf("%s/%s/tick-vs-event", sched, tc.name), oracle, ev)
			})
		}
	}
}

// TestEventMatchesTickScanOracle pins that the engine axis composes with
// ScanSched: the event engine over the legacy scan issue loop must still
// match the tick loop over the same scan loop.
func TestEventMatchesTickScanOracle(t *testing.T) {
	for _, sched := range []SchedPolicy{SchedRoundRobin, SchedGTO} {
		cfg := DefaultConfig(4, 4, 4)
		cfg.Sched = sched
		cfg.ScanSched = true
		cfg.TickEngine = true
		oracle := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF))
		cfg.TickEngine = false
		ev := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF))
		diffSnapshots(t, fmt.Sprintf("%s/scan", sched), oracle, ev)
	}
}

// TestEventHighWarpDifferential runs the engine differential at the warp
// count where per-cycle bookkeeping dominates the tick loop's cost.
func TestEventHighWarpDifferential(t *testing.T) {
	activate := func(cfg Config) func(*Sim) error { return activateAll(cfg, 32, 0x3) }
	for _, sched := range SchedPolicies() {
		cfg := DefaultConfig(2, 32, 2)
		cfg.Sched = sched
		cfg.TickEngine = true
		oracle := runSnapshot(t, cfg, highWarpProg, activate(cfg))
		cfg.TickEngine = false
		ev := runSnapshot(t, cfg, highWarpProg, activate(cfg))
		diffSnapshots(t, fmt.Sprintf("%s/tick-vs-event", sched), oracle, ev)
	}
}

// partialSkipProg drives the partial-skip regime the tick loop's no-issue
// fast-forward never reaches: core 0 spins a dependent ALU loop that issues
// every cycle, while every other core walks a strided read-modify-write
// loop that sleeps out DRAM misses for long stretches. The device as a
// whole always has an issuing core, so the tick engine can never jump and
// charges the sleepers one visit at a time — the lazy bulk spans of the
// event engine must add up to exactly the same MemStall/ExecStall split.
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

// TestEventPartialSkipAttribution is the targeted stall-attribution
// differential for the partial-skip case, plus shape assertions proving the
// program actually exercised that regime.
func TestEventPartialSkipAttribution(t *testing.T) {
	cfg := DefaultConfig(4, 2, 4)
	activate := activateAll(cfg, 2, 0xF)
	cfg.TickEngine = true
	oracle := runSnapshot(t, cfg, partialSkipProg, activate)
	cfg.TickEngine = false
	ev := runSnapshot(t, cfg, partialSkipProg, activate)
	diffSnapshots(t, "partial-skip", oracle, ev)
	if busy := oracle.cores[0]; busy.Issued < 3000 {
		t.Errorf("core 0 issued %d instructions, want a >=3000-cycle busy loop keeping the device issuing", busy.Issued)
	}
	for c := 1; c < cfg.Cores; c++ {
		if st := oracle.cores[c]; st.MemStall == 0 {
			t.Errorf("core %d MemStall = 0, want long DRAM sleeps under a busy device", c)
		}
	}
}

// TestEventDeadlockBarrier drives the first deadlockTrap variant through
// the event queue's parked list: trap coordinates, trap cycle and the
// settled stall statistics must match the tick engine.
func TestEventDeadlockBarrier(t *testing.T) {
	type outcome struct {
		trap  Trap
		stats []CoreStats
	}
	run := func(tick bool) outcome {
		t.Helper()
		cfg := DefaultConfig(2, 2, 2)
		cfg.TickEngine = tick
		p := asm.MustAssemble(deadlockBarrierProg, 0x1000, nil)
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
		if err := activateAll(cfg, 2, 0x3)(s); err != nil {
			t.Fatal(err)
		}
		trap, ok := s.Run().(*Trap)
		if !ok {
			t.Fatalf("tick=%v: want a deadlock *Trap", tick)
		}
		if !strings.Contains(trap.Reason, "barrier that can never fill") {
			t.Fatalf("tick=%v: trap reason %q", tick, trap.Reason)
		}
		o := outcome{trap: *trap}
		for c := 0; c < cfg.Cores; c++ {
			o.stats = append(o.stats, s.CoreStatsOf(c))
		}
		return o
	}
	oracle, got := run(true), run(false)
	if got.trap != oracle.trap {
		t.Errorf("trap %+v, tick oracle %+v", got.trap, oracle.trap)
	}
	if !slices.Equal(got.stats, oracle.stats) {
		t.Errorf("stats %+v, tick oracle %+v", got.stats, oracle.stats)
	}
}

// TestEventDeadlockNoSchedulableEvent reaches the second deadlockTrap
// variant through the event queue itself: a core whose only active warp has
// vanished from both scheduler structures (the bookkeeping bug the variant
// is defensive against) fails its issue with no timed wake, lands on the
// parked list, and the drained queue classifies the deadlock — charging the
// parked core exactly the one stall cycle the tick loop charges before
// trapping.
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
// stream arrives in (cycle, core) order and is byte-identical between the
// event engine and the tick oracle.
func TestEventObserverStreamMatchesTick(t *testing.T) {
	collect := func(tick bool) []IssueEvent {
		t.Helper()
		cfg := DefaultConfig(4, 2, 4)
		cfg.TickEngine = tick
		p := asm.MustAssemble(diffMemProg, 0x1000, nil)
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
		var evs []IssueEvent
		s.SetObserver(func(e IssueEvent) { evs = append(evs, e) })
		if err := activateAll(cfg, 2, 0xF)(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	oracle := collect(true)
	if len(oracle) == 0 {
		t.Fatal("observer saw no issues")
	}
	for i := 1; i < len(oracle); i++ {
		a, b := oracle[i-1], oracle[i]
		if b.Cycle < a.Cycle || (b.Cycle == a.Cycle && b.Core < a.Core) {
			t.Fatalf("event %d (cycle %d core %d) after (cycle %d core %d): global issue order violated",
				i, b.Cycle, b.Core, a.Cycle, a.Core)
		}
	}
	if got := collect(false); !slices.Equal(got, oracle) {
		t.Errorf("observer stream differs from the tick oracle (%d vs %d events)", len(got), len(oracle))
	}
}

// TestEventMaxCyclesDeadline pins the deadline path: both engines must
// report the same error at the same device cycle with the same settled
// stall statistics, whether the limit lands on an issuing cycle or inside
// a fast-forwarded sleep.
func TestEventMaxCyclesDeadline(t *testing.T) {
	run := func(tick bool, limit uint64) (*Sim, error) {
		t.Helper()
		cfg := DefaultConfig(2, 2, 4)
		cfg.MaxCycles = limit
		cfg.TickEngine = tick
		p := asm.MustAssemble(diffMemProg, 0x1000, nil)
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
		if err := activateAll(cfg, 2, 0xF)(s); err != nil {
			t.Fatal(err)
		}
		return s, s.Run()
	}
	for _, limit := range []uint64{97, 100} {
		oracleSim, oracleErr := run(true, limit)
		if oracleErr == nil {
			t.Fatalf("limit %d did not trip the deadline", limit)
		}
		s, err := run(false, limit)
		if err == nil || err.Error() != oracleErr.Error() {
			t.Errorf("limit=%d: err %v, tick oracle %v", limit, err, oracleErr)
			continue
		}
		if s.Cycle() != oracleSim.Cycle() {
			t.Errorf("limit=%d: stopped at cycle %d, tick oracle %d", limit, s.Cycle(), oracleSim.Cycle())
		}
		for c := 0; c < 2; c++ {
			if got, want := s.CoreStatsOf(c), oracleSim.CoreStatsOf(c); got != want {
				t.Errorf("limit=%d: core %d stats %+v, tick oracle %+v", limit, c, got, want)
			}
		}
	}
}
