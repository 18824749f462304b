package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// runStall runs prog on a 1c1w1t device and returns the sim.
func runStall(t *testing.T, prog string) *Sim {
	t.Helper()
	cfg := DefaultConfig(1, 1, 1)
	p := asm.MustAssemble(prog, 0x1000, nil)
	memory := mem.NewMemory(1 << 16)
	hier, err := mem.NewHierarchy(1, cfg.Mem)
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
	if err := s.ActivateWarp(0, 0, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCycleSkipAccountsMemStalls pins the minWake fast path: when the only
// runnable warp waits on a DRAM fill, Run jumps the cycle counter to the
// completion instead of scanning every idle cycle, and the skipped cycles
// must land in MemStall. The invariant below fails if the jump either skips
// too far or forgets to attribute the gap: on a single-core device every
// elapsed cycle is exactly one issue or one accounted stall.
func TestCycleSkipAccountsMemStalls(t *testing.T) {
	s := runStall(t, `
		li   s0, 0x8000
		lw   t4, 0(s0)
		add  t5, t4, t4
		ecall
	`)
	st := s.CoreStatsOf(0)
	if got := st.Issued + st.MemStall + st.ExecStall; got != s.Cycle() {
		t.Errorf("issues+stalls = %d, want the elapsed %d cycles (skip mis-accounted)", got, s.Cycle())
	}
	// The dependent add waits out a cold miss: L1 + L2 + DRAM latency and
	// the line transfer, minus the one cycle the lw itself issued in.
	m := s.Config().Mem
	wait := uint64(m.L1.HitLatency+m.L2.HitLatency+m.DRAM.Latency) +
		uint64(m.L1.LineBytes/m.DRAM.BytesPerCycle) - 1
	if st.MemStall != wait {
		t.Errorf("MemStall = %d, want the full cold-miss wait %d", st.MemStall, wait)
	}
	if st.ExecStall != 0 {
		t.Errorf("ExecStall = %d, want 0 (no FU dependencies)", st.ExecStall)
	}
}

// TestStallAttributionExec pins the other accountStall branch: a pure
// functional-unit dependency must be charged to ExecStall, never MemStall,
// and the skipped gap equals the divide latency minus the issue cycle.
func TestStallAttributionExec(t *testing.T) {
	s := runStall(t, `
		addi t0, zero, 7
		div  t1, t0, t0
		add  t2, t1, t1
		ecall
	`)
	st := s.CoreStatsOf(0)
	if got := st.Issued + st.MemStall + st.ExecStall; got != s.Cycle() {
		t.Errorf("issues+stalls = %d, want the elapsed %d cycles", got, s.Cycle())
	}
	if st.MemStall != 0 {
		t.Errorf("MemStall = %d, want 0 (no memory instructions)", st.MemStall)
	}
	if want := uint64(s.Config().Lat.Div - 1); st.ExecStall != want {
		t.Errorf("ExecStall = %d, want %d (div consumer waits Div-1 cycles)", st.ExecStall, want)
	}
}

// TestCycleSkipLongLatencyLoop stresses repeated wake jumps: a pointer-chase
// style loop where every iteration stalls on a fresh cold line. The
// issue/stall invariant must survive arbitrarily many skip events.
func TestCycleSkipLongLatencyLoop(t *testing.T) {
	s := runStall(t, `
		li   s0, 0x8000
		li   t3, 20
	loop:
		lw   t4, 0(s0)
		add  t5, t4, t4
		addi s0, s0, 64
		addi t3, t3, -1
		bnez t3, loop
		ecall
	`)
	st := s.CoreStatsOf(0)
	if got := st.Issued + st.MemStall + st.ExecStall; got != s.Cycle() {
		t.Errorf("issues+stalls = %d, want the elapsed %d cycles", got, s.Cycle())
	}
	if st.MemStall == 0 {
		t.Error("expected memory stalls in a cold-miss loop")
	}
	// Every iteration waits on DRAM, so memory stalls dominate the runtime.
	if st.MemStall < s.Cycle()/2 {
		t.Errorf("MemStall = %d of %d cycles; cold-miss loop should be memory-dominated", st.MemStall, s.Cycle())
	}
}

// TestTrapSettlesStallSpans pins the stall accounting of an execution trap:
// core 1 traps on an out-of-bounds load while core 0 sleeps out a DRAM
// miss. Every cycle through the trap cycle is one issue or one stall on
// both cores: core 0, visited before the trapping core, is charged the trap
// cycle as a stall, and core 1's trapping load counts as issued.
func TestTrapSettlesStallSpans(t *testing.T) {
	s := rigNoStart(t, DefaultConfig(2, 1, 1), `
		csrr t0, cid
		bnez t0, trapper
		li   s0, 0x8000
		lw   t4, 0(s0)
		add  t5, t4, t4
		ecall
	trapper:
		li   t1, 8
	spin:
		addi t1, t1, -1
		bnez t1, spin
		li   s0, 0x7ffffff0
		lw   t4, 0(s0)
		ecall
	`, nil)
	for c := 0; c < 2; c++ {
		if err := s.ActivateWarp(c, 0, 0x1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	trap, ok := s.Run().(*Trap)
	if !ok || trap.Core != 1 {
		t.Fatalf("want core 1's out-of-bounds *Trap, got %v", trap)
	}
	for c := 0; c < 2; c++ {
		st := s.CoreStatsOf(c)
		if got := st.Issued + st.MemStall + st.ExecStall; got != trap.Cycle+1 {
			t.Errorf("core %d: issues+stalls = %d (%+v), want %d at a trap on cycle %d", c, got, st, trap.Cycle+1, trap.Cycle)
		}
	}
	if st := s.CoreStatsOf(0); st.MemStall == 0 {
		t.Errorf("core 0 MemStall = 0, want its DRAM sleep charged at the trap")
	}
}
