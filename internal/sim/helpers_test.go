package sim

// Shared fixtures of the bare-simulator differential tests: the snapshot of
// everything a run can be observed to do, the runner that produces one, and
// the standard programs the engine, scheduler, lockstep-batch and memory-axis
// differentials all run.

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// snapshot captures everything the determinism contract covers: the device
// cycle, every core's pipeline counters, every cache level's statistics
// (down to individual L2 banks) and the DRAM counters (down to individual
// channels).
type snapshot struct {
	cycles  uint64
	cores   []CoreStats
	l1      []mem.CacheStats
	l2      mem.CacheStats
	banks   []mem.CacheStats
	dram    mem.DRAMStats
	dramCh  []mem.DRAMStats
	memData []byte
}

// takeSnapshot collects the contract state of a finished run.
func takeSnapshot(s *Sim, hier *mem.Hierarchy, cores int) snapshot {
	snap := snapshot{cycles: s.Cycle(), l2: hier.L2Stats(), dram: hier.DRAM()}
	for c := 0; c < cores; c++ {
		snap.cores = append(snap.cores, s.CoreStatsOf(c))
		snap.l1 = append(snap.l1, hier.L1Stats(c))
	}
	for b := 0; b < hier.L2Banks(); b++ {
		snap.banks = append(snap.banks, hier.L2BankStats(b))
	}
	for ch := 0; ch < hier.DRAMChannels(); ch++ {
		snap.dramCh = append(snap.dramCh, hier.DRAMChannelStats(ch))
	}
	return snap
}

// runSnapshot assembles prog, runs it to completion on a fresh device after
// activate has started its warps, and snapshots the result.
func runSnapshot(t *testing.T, cfg Config, prog string, activate func(*Sim) error) snapshot {
	t.Helper()
	p, err := asm.Assemble(prog, 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	snap := takeSnapshot(s, hier, cfg.Cores)
	snap.memData, err = memory.ReadBytes(0x8000, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// diffSnapshots reports every field in which got departs from want.
func diffSnapshots(t *testing.T, name string, want, got snapshot) {
	t.Helper()
	if want.cycles != got.cycles {
		t.Errorf("%s: cycles differ: want %d, got %d", name, want.cycles, got.cycles)
	}
	for c := range want.cores {
		if want.cores[c] != got.cores[c] {
			t.Errorf("%s: core %d stats differ:\nwant %+v\ngot  %+v", name, c, want.cores[c], got.cores[c])
		}
		if want.l1[c] != got.l1[c] {
			t.Errorf("%s: core %d L1 stats differ:\nwant %+v\ngot  %+v", name, c, want.l1[c], got.l1[c])
		}
	}
	if want.l2 != got.l2 {
		t.Errorf("%s: L2 stats differ:\nwant %+v\ngot  %+v", name, want.l2, got.l2)
	}
	for b := range want.banks {
		if want.banks[b] != got.banks[b] {
			t.Errorf("%s: L2 bank %d stats differ:\nwant %+v\ngot  %+v", name, b, want.banks[b], got.banks[b])
		}
	}
	if want.dram != got.dram {
		t.Errorf("%s: DRAM stats differ:\nwant %+v\ngot  %+v", name, want.dram, got.dram)
	}
	for ch := range want.dramCh {
		if want.dramCh[ch] != got.dramCh[ch] {
			t.Errorf("%s: DRAM channel %d stats differ:\nwant %+v\ngot  %+v", name, ch, want.dramCh[ch], got.dramCh[ch])
		}
	}
	for i := range want.memData {
		if want.memData[i] != got.memData[i] {
			t.Errorf("%s: memory differs at %#x: want %#x, got %#x", name, 0x8000+i, want.memData[i], got.memData[i])
			break
		}
	}
}

// strided load/store loop: every warp walks a distinct region, so the cores
// contend on the L2 and DRAM channels but never race on data.
const diffMemProg = `
	csrr s0, cid
	slli s0, s0, 14
	csrr t0, wid
	slli t1, t0, 10
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 6
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 40
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// FP pipeline mix with divergence: exercises the float scoreboard and the
// ballot/split/join path.
const diffFPProg = `
	csrr t0, cid
	csrr t1, wid
	slli t1, t1, 3
	add  t0, t0, t1
	csrr t2, tid
	add  t0, t0, t2
	fcvt.s.w f0, t0
	fmul.s f1, f0, f0
	fdiv.s f2, f1, f0
	andi t3, t0, 1
	vx_split t3
	beqz t3, skip
	fsqrt.s f2, f1
skip:
	vx_join
	fmadd.s f3, f2, f1, f0
	csrr s0, cid
	slli s0, s0, 12
	csrr t1, wid
	slli t2, t1, 7
	add  s0, s0, t2
	csrr t2, tid
	slli t3, t2, 2
	add  s0, s0, t3
	li   t4, 0x9000
	add  s0, s0, t4
	fsw  f3, 0(s0)
	ecall
`

// warp spawn + barrier: warp 0 of each core spawns the rest, all meet at a
// barrier, then do a strided store.
const diffSpawnProg = `
	csrr t0, wid
	bnez t0, work
	li   t1, 4
	la   t2, work
	vx_wspawn t1, t2
work:
	li   t1, 4
	li   t0, 0
	vx_bar t0, t1
	csrr s0, cid
	slli s0, s0, 12
	csrr t1, wid
	slli t2, t1, 6
	add  s0, s0, t2
	li   t3, 0xA000
	add  s0, s0, t3
	csrr t4, wid
	sw   t4, 0(s0)
	ecall
`

func activateAll(cfg Config, warps int, tmask uint64) func(*Sim) error {
	return func(s *Sim) error {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, tmask); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
