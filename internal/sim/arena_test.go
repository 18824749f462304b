package sim

// The register arena: what an activation costs once the arena is warm,
// within one launch and across launches, and what a warp of an earlier
// launch reads once the arena is recycled.

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
)

// arenaProg writes an integer and a float register on every active lane.
const arenaProg = `
	csrr t0, tid
	csrr t1, wid
	add  t2, t0, t1
	addi t2, t2, 100
	fcvt.s.w f1, t2
	ecall
`

// TestArenaBoundedAllocation runs 32 launches on one 64c32w32t Sim without
// a Reset, each activating a different warp slot on every core. Once the
// first launch has carved its windows, the others recycle them: the
// launches after it allocate less than one launch's windows plus one chunk
// of each kind, however many distinct slots they touch.
func TestArenaBoundedAllocation(t *testing.T) {
	cfg := DefaultConfig(64, 32, 32)
	s := rigNoStart(t, cfg, arenaProg, nil)
	launch := func(slot int) {
		for c := 0; c < cfg.Cores; c++ {
			if err := s.ActivateWarp(c, slot, 0x1000, s.fullMask); err != nil {
				t.Fatal(err)
			}
		}
		mustRun(t, s)
	}
	launch(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for slot := 1; slot < cfg.Warps; slot++ {
		launch(slot)
	}
	runtime.ReadMemStats(&after)
	window := s.nrows*cfg.Threads*4 + s.nrows*8
	bound := uint64(cfg.Cores*window + regChunkWords*4 + pendChunkRows*8)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("%d launches on distinct warp slots allocated %d bytes, want at most %d (one launch's windows and one chunk)",
			cfg.Warps-1, got, bound)
	}
	for c := 0; c < cfg.Cores; c++ {
		if v, err := s.Reg(c, cfg.Warps-1, 31, 7); err != nil || v != 131+uint32(cfg.Warps-1) {
			t.Fatalf("core %d: last launch's t2 on lane 31 = %d (%v), want %d", c, v, err, 131+cfg.Warps-1)
		}
	}
}

// spawnLoopProg, entered at 0x1004, has warp 0 spawn warp 1 spawnLoops
// times. Each time both meet at barrier 0 — warp 1 arrives last, so it
// never waits, and retires before warp 0 gets back to vx_wspawn — and
// warp 1 adds 1 to a1, which holds 1 at the end only if every incarnation
// started from zeroed rows. Entered at 0x1000, it retires at once.
const spawnLoopProg = `
	ecall
	li   s1, spawnLoops
	li   t1, 2
	li   t3, 0
	la   t2, child
loop:
	vx_wspawn t1, t2
	vx_bar t3, t1
	addi s1, s1, -1
	bnez s1, loop
	ecall
child:
	addi a1, a1, 1
	csrr a0, wid
	li   t1, 2
	li   t3, 0
	vx_bar t3, t1
	ecall
`

// TestArenaSpawnReusesWindow runs two launches of spawnLoopProg on one
// 1c2w32t Sim: a warm-up that retires at once, which carves the arena's
// first chunks, then one that respawns warp 1 spawnLoops times inside one
// Run. A spawn of a retired warp reuses its window, so the second launch
// carves one window per warp from those chunks and allocates less than
// one chunk, however many spawns it makes.
func TestArenaSpawnReusesWindow(t *testing.T) {
	const spawnLoops = 2000
	cfg := DefaultConfig(1, 2, 32)
	s := rigNoStart(t, cfg, spawnLoopProg, map[string]int64{"spawnLoops": spawnLoops})
	launch := func(pc uint32) {
		t.Helper()
		if err := s.ActivateWarp(0, 0, pc, 1); err != nil {
			t.Fatal(err)
		}
		mustRun(t, s)
	}
	launch(0x1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	launch(0x1004)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(pendChunkRows*8); got > bound {
		t.Errorf("a launch spawning %d warps allocated %d bytes, want at most %d (one completion chunk)", spawnLoops, got, bound)
	}
	if a := &s.arena; len(a.regs.list) != 1 || a.regs.off != 2*s.nrows*cfg.Threads || len(a.pend.list) != 1 || a.pend.off != 2*s.nrows {
		t.Errorf("arena after the launch: %d register chunks, offset %d; %d completion chunks, offset %d; want one of each, holding two windows",
			len(a.regs.list), a.regs.off, len(a.pend.list), a.pend.off)
	}
	for r, want := range map[uint8]uint32{10: 1, 11: 1} { // a0 = wid, a1 = one increment
		if v, err := s.Reg(0, 1, 0, r); err != nil || v != want {
			t.Errorf("spawned warp's x%d = %d (%v), want %d", r, v, err, want)
		}
	}
}

// spinA and spinB share their first seven instructions: warp 0 spins
// there for far longer than the test runs, warp 1 takes the short path and
// retires. spinB's loop exit names f5, which spinA never does.
const spinA = `
	csrr t0, wid
	bnez t0, short
	li   t1, 0
	li   t2, 100000
loop:
	addi t1, t1, 1
	blt  t1, t2, loop
	ecall
short:
	li   a0, 7
	ecall
`

const spinB = `
	csrr t0, wid
	bnez t0, short
	li   t1, 0
	li   t2, 100000
loop:
	addi t1, t1, 1
	blt  t1, t2, loop
	fcvt.s.w f5, t1
	ecall
short:
	li   a0, 7
	ecall
`

// TestArenaReactivateAfterDeadline activates warp 1 again after each of a
// run of MaxCycles deadlines, the way a host may between Runs that return
// a deadline error; warp 0 spins throughout, so the arena is never spent.
// While the layout is unchanged, warp 1 reuses its own window: a hundred
// reactivations carve nothing. Once spinB has grown the layout, warp 1's
// window is short of the new row, and its next activation carves a full
// one. Every activation leaves warp 1 reading 0 until it runs.
func TestArenaReactivateAfterDeadline(t *testing.T) {
	cfg := DefaultConfig(1, 2, 4)
	cfg.MaxCycles = 50
	s := newDiffSim(t, cfg, spinA, activateAll(cfg, 2, 0xF))
	w1 := &s.cores[0].warps[1]
	deadline := func() {
		t.Helper()
		if err := s.Run(); err == nil || !strings.Contains(err.Error(), "exceeded cycle limit") {
			t.Fatalf("run: err %v, want the deadline", err)
		}
		if a1, _ := s.WarpActive(0, 1); a1 {
			t.Fatal("warp 1 still active at the deadline")
		}
		if a0, _ := s.Reg(0, 1, 3, 10); a0 != 7 {
			t.Fatalf("warp 1 lane 3 a0 = %d after its run, want 7", a0)
		}
	}
	reactivate := func() {
		t.Helper()
		if err := s.ActivateWarp(0, 1, 0x1000, 0xF); err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < cfg.Threads; lane++ {
			for r := uint8(0); r < 32; r++ {
				x, _ := s.Reg(0, 1, lane, r)
				f, _ := s.FReg(0, 1, lane, r)
				if x != 0 || f != 0 {
					t.Fatalf("reactivated warp 1 lane %d reads x%d = %d, f%d = %#x, want 0", lane, r, x, r, f)
				}
			}
		}
	}
	deadline()
	window, off := &w1.regs[0], s.arena.regs.off
	for i := 0; i < 100; i++ {
		reactivate()
		if &w1.regs[0] != window || s.arena.regs.off != off {
			t.Fatalf("reactivation %d carved a new window", i)
		}
		deadline()
	}

	p, err := asm.Assemble(spinB, 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		t.Fatal(err)
	}
	reactivate()
	if len(w1.pend) != s.nrows || len(w1.regs) != s.nrows*cfg.Threads {
		t.Fatalf("warp 1 activated under the grown layout has %d rows (%d words), want %d (%d)",
			len(w1.pend), len(w1.regs), s.nrows, s.nrows*cfg.Threads)
	}
	deadline()
	if n := len(s.arena.regs.list) + len(s.arena.pend.list); n != 2 {
		t.Errorf("the arena holds %d chunks, want one of each kind", n)
	}
}

// TestArenaRecycle runs two launches on one Sim without a Reset: warps 0
// and 1 in the first, warp 0 alone in the second. Warp 1's registers stay
// readable after the first Run and read 0 once the second launch has
// recycled the arena, as the Reg doc states; warp 0 reads the second
// launch's values.
func TestArenaRecycle(t *testing.T) {
	cfg := DefaultConfig(1, 2, 4)
	s := rigNoStart(t, cfg, arenaProg, nil)
	read := func(w, lane int) (t2, f1 uint32) {
		t.Helper()
		t2, err := s.Reg(0, w, lane, 7)
		if err != nil {
			t.Fatal(err)
		}
		if f1, err = s.FReg(0, w, lane, 1); err != nil {
			t.Fatal(err)
		}
		return t2, f1
	}
	for w := 0; w < 2; w++ {
		if err := s.ActivateWarp(0, w, 0x1000, 0xF); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	if t2, f1 := read(1, 2); t2 != 103 || f1 == 0 {
		t.Fatalf("after the first run warp 1 lane 2 reads t2, f1 = %d, %#x, want 103 and its float", t2, f1)
	}
	if err := s.ActivateWarp(0, 0, 0x1000, 0b11); err != nil {
		t.Fatal(err)
	}
	if t2, f1 := read(1, 2); t2 != 0 || f1 != 0 {
		t.Errorf("once the next launch activates, warp 1 lane 2 reads t2, f1 = %d, %#x, want 0, 0", t2, f1)
	}
	mustRun(t, s)
	for lane := 0; lane < cfg.Threads; lane++ {
		want := uint32(100 + lane)
		if lane >= 2 {
			want = 0 // outside the second launch's mask
		}
		if t2, _ := read(0, lane); t2 != want {
			t.Errorf("warp 0 lane %d t2 = %d, want %d", lane, t2, want)
		}
		if t2, f1 := read(1, lane); t2 != 0 || f1 != 0 {
			t.Errorf("warp 1 lane %d reads t2, f1 = %d, %#x after the second run, want 0, 0", lane, t2, f1)
		}
	}
}
