package sim

// Frozen device cycles of four DRAM-bound workloads: a 32-warp stream, a
// 64-core device where one core spins while the rest sleep on a single
// DRAM channel, and a stream under 4 MSHRs and under the unbounded model.
// Each case runs twice on one device, so the second run starts from the
// caches and DRAM state the first left behind; both runs are held to their
// digests and the warm run's cycle count is asserted exactly.

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// streamProg has each warp walk its own 4 KiB region at line stride; on
// 2 cores x 32 warps the 256 KiB aggregate footprint defeats the 128 KiB
// L2, so warps sleep on staggered DRAM fills. fp adds a dependent FP pair
// to every iteration.
func streamProg(fp bool) string {
	fpOps := ""
	if fp {
		fpOps = `
	fcvt.s.w f0, t4
	fmadd.s f1, f0, f0, f0`
	}
	return `
	csrr s0, cid
	slli s0, s0, 17
	csrr t0, wid
	slli t1, t0, 12
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 9
	add  s0, s0, t1
	li   t2, 0x100000
	add  s0, s0, t2
	li   t3, 8
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3` + fpOps + `
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`
}

// manyCoreIdleProg keeps core 0 issuing every cycle on a single-lane
// dependent ALU loop sized to outlast the memory side, while every other
// core runs one warp whose eight lanes stream loads over disjoint 4 KiB
// regions at line stride. On one DRAM channel the fills serialize, so the
// memory cores sleep out the whole channel queue between bursts of three
// instructions.
const manyCoreIdleProg = `
	csrr s0, cid
	bnez s0, memside
	li   t0, 67000
busy:
	addi t0, t0, -1
	bnez t0, busy
	ecall
memside:
	slli s0, s0, 15
	csrr t0, tid
	slli t1, t0, 12
	add  s0, s0, t1
	li   t2, 0x100000
	add  s0, s0, t2
	li   t5, 4096
	add  s2, s0, t5
mloop:
	lw   t4, 0(s0)
	addi s0, s0, 64
	bne  s0, s2, mloop
	ecall
`

func TestDeviceCyclesFrozen(t *testing.T) {
	highWarp := DefaultConfig(2, 32, 8)
	manyCore := DefaultConfig(64, 8, 8)
	manyCore.Mem.DRAM.Channels = 1
	mshr := func(n int) Config {
		cfg := DefaultConfig(2, 32, 8)
		cfg.Mem.L1.MSHRs = n
		cfg.Mem.L2.MSHRs = n
		return cfg
	}
	oneWarpPerCore := func(s *Sim) error {
		if err := s.ActivateWarp(0, 0, 0x1000, 0x1); err != nil {
			return err
		}
		for c := 1; c < s.Config().Cores; c++ {
			if err := s.ActivateWarp(c, 0, 0x1000, 0xFF); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		memBytes uint32
		prog     string
		activate func(*Sim) error
		// warm is the device-cycle count of the second run. The two MSHR
		// cases run the same stream, so mshrs=4 against mshrs=0 is the
		// simulated-cycle divergence the outstanding-miss bound creates.
		warm uint64
	}{
		{"high_warp_2c32w8t", highWarp, 1 << 21, streamProg(true), activateAll(highWarp, 32, 0xFF), 24608},
		{"many_core_idle_64c8w8t", manyCore, 1 << 23, manyCoreIdleProg, oneWarpPerCore, 134005},
		{"mshrs4_2c32w8t", mshr(4), 1 << 21, streamProg(false), activateAll(mshr(4), 32, 0xFF), 224363},
		{"mshrs0_2c32w8t", mshr(0), 1 << 21, streamProg(false), activateAll(mshr(0), 32, 0xFF), 24608},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := asm.Assemble(tc.prog, 0x1000, nil)
			if err != nil {
				t.Fatal(err)
			}
			hier, err := mem.NewHierarchy(tc.cfg.Cores, tc.cfg.Mem)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(tc.cfg, mem.NewMemory(tc.memBytes), hier)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LoadProgram(p.Base, p.Insts); err != nil {
				t.Fatal(err)
			}
			var cold uint64
			for _, run := range []string{"cold", "warm"} {
				if err := tc.activate(s); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				CheckEngineDigest(t, run, digestOf(takeSnapshot(t, s)))
				if run == "cold" {
					cold = s.Cycle()
				}
			}
			if got := s.Cycle() - cold; got != tc.warm {
				t.Errorf("warm run took %d device cycles, want %d", got, tc.warm)
			}
		})
	}
}
