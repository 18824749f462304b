package sim

// Engine edge cases held to the frozen answers of testdata/
// engine_digests.json: core wakes further out than any short-latency
// schedule reaches (and exactly around 512 cycles), devices wider than one
// 64-bit core mask, a 64-warp stall fold whose priority origin wraps, and
// cores parked on a dead barrier beside cores sleeping out long misses.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// runObserved runs prog to completion on a fresh device after activate has
// started its warps, and returns the snapshot with the observer stream.
func runObserved(t *testing.T, cfg Config, prog string, activate func(*Sim) error) (snapshot, []IssueEvent) {
	t.Helper()
	s := newDiffSim(t, cfg, prog, activate)
	var evs []IssueEvent
	s.SetObserver(func(e IssueEvent) { evs = append(evs, e) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return takeSnapshot(t, s), evs
}

// farConfig is a device whose DRAM misses and float divides complete far
// beyond any default latency: a core sleeping on either wakes more than
// 512 cycles after it went to sleep.
func farConfig(sched SchedPolicy) Config {
	cfg := DefaultConfig(4, 4, 4)
	cfg.Mem.DRAM.Latency = 2000
	cfg.Lat.FDiv = 700
	cfg.Sched = sched
	return cfg
}

// TestEventFarWakes runs the loads of the memory program, the divides of
// the float program and the partial-skip program (one core issuing every
// cycle while the others sleep) with wakes far in the future, under every
// policy.
func TestEventFarWakes(t *testing.T) {
	cases := []struct {
		name   string
		prog   string
		warps  int
		cycles uint64 // lower bound: the run waited out a far wake
	}{
		{"mem", diffMemProg, 4, 2000},
		{"fp-divergence", diffFPProg, 4, 700},
		{"partial-skip", partialSkipProg, 2, 2000},
	}
	for _, sched := range SchedPolicies() {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", sched, tc.name), func(t *testing.T) {
				cfg := farConfig(sched)
				snap, evs := runObserved(t, cfg, tc.prog, activateAll(cfg, tc.warps, 0xF))
				if snap.cycles < tc.cycles {
					t.Errorf("ran %d cycles, want at least one %d-cycle wait", snap.cycles, tc.cycles)
				}
				CheckEngineDigest(t, "", digestOf(snap, evs))
			})
		}
	}
}

// TestEventWakeDistanceSweep steps the memory and float-divide latencies
// one cycle at a time across the 512-cycle mark, so core wakes land just
// inside, exactly at and just past that distance from the failed attempt.
func TestEventWakeDistanceSweep(t *testing.T) {
	for lat := 476; lat <= 488; lat++ {
		cfg := DefaultConfig(4, 4, 4)
		cfg.Mem.DRAM.Latency = lat
		snap, evs := runObserved(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF))
		CheckEngineDigest(t, fmt.Sprintf("dram=%d", lat), digestOf(snap, evs))
	}
	for lat := 506; lat <= 518; lat++ {
		cfg := DefaultConfig(4, 4, 4)
		cfg.Lat.FDiv = lat
		snap, evs := runObserved(t, cfg, diffFPProg, activateAll(cfg, 4, 0xF))
		CheckEngineDigest(t, fmt.Sprintf("fdiv=%d", lat), digestOf(snap, evs))
	}
}

// wideProg keeps every core of a device of up to 255 cores busy in its own
// 256-byte region at 0x8000 (up to 8 warps of up to 8 lanes): a cid-dependent
// float divide and trip count put the cores out of phase, so each cycle's
// due set is a scattered subset of core ids.
const wideProg = `
	csrr s0, cid
	slli s0, s0, 8
	csrr t0, wid
	slli t1, t0, 5
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 2
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	csrr t3, cid
	andi t5, t3, 1
	beqz t5, even
	fcvt.s.w f0, t3
	fdiv.s f1, f0, f0
	fcvt.w.s t6, f1
	add  t3, t3, t6
even:
	andi t3, t3, 3
	addi t3, t3, 2
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// TestEventWideDevice runs devices wider than one 64-bit core mask, with
// near and far memory, under every policy.
func TestEventWideDevice(t *testing.T) {
	for _, cores := range []int{65, 130} {
		for _, dram := range []int{180, 2000} {
			for _, sched := range SchedPolicies() {
				t.Run(fmt.Sprintf("%dc/dram=%d/%s", cores, dram, sched), func(t *testing.T) {
					cfg := DefaultConfig(cores, 2, 4)
					cfg.Mem.DRAM.Latency = dram
					cfg.Sched = sched
					snap, evs := runObserved(t, cfg, wideProg, activateAll(cfg, 2, 0xF))
					if !crossWordCycle(evs) {
						t.Error("no cycle issued on cores both below and above 64")
					}
					CheckEngineDigest(t, "", digestOf(snap, evs))
				})
			}
		}
	}
}

// crossWordCycle reports whether some cycle of the issue stream has issues
// on cores in both the first 64 and a later 64-core word.
func crossWordCycle(evs []IssueEvent) bool {
	for i := 0; i < len(evs); {
		j, lo, hi := i, false, false
		for ; j < len(evs) && evs[j].Cycle == evs[i].Cycle; j++ {
			lo = lo || evs[j].Core < 64
			hi = hi || evs[j].Core >= 64
		}
		if lo && hi {
			return true
		}
		i = j
	}
	return false
}

// foldProg: a load stalls on its base register (a memory-bound register
// stall) or, with the base ready, on a busy LSU; an add stalls on its
// source (an FU-bound register stall).
const foldProg = `
	lw   t0, 0x100(t2)
	ecall
	add  t1, t2, t3
	ecall
`

// stallKind is one warp's state in the rigged 64-warp fold.
type stallKind uint8

const (
	kindLSU      stallKind = iota // at the load, base ready, LSU busy
	kindRegMem                    // at the load, base pending
	kindRegExec                   // at the add, source pending
	kindBarrier                   // waiting at a barrier
	kindInactive                  // never activated
)

// rigFold activates the warps of a 1c64w1t device at cycle 1000 in the
// given kinds: register-stalled warp wid waits until 1000+wait(wid), the
// LSU is busy until 1000+lsu, and rig positions the policy's rotation
// pointers. Barrier waiters are out of the ready set exactly as a barrier
// arrival leaves them.
func rigFold(t *testing.T, sched SchedPolicy, kind func(wid int) stallKind, wait func(wid int) uint64, lsu uint64) *Sim {
	t.Helper()
	cfg := DefaultConfig(1, 64, 1)
	cfg.Sched = sched
	s := rigNoStart(t, cfg, foldProg, nil)
	s.cycle = 1000
	c := &s.cores[0]
	for wid := 0; wid < 64; wid++ {
		k := kind(wid)
		if k == kindInactive {
			continue
		}
		pc := uint32(0x1000)
		if k == kindRegExec {
			pc = 0x1008
		}
		if err := s.ActivateWarp(0, wid, pc, 1); err != nil {
			t.Fatal(err)
		}
		w := &c.warps[wid]
		switch k {
		case kindRegMem, kindRegExec:
			w.pend[s.rowOf[7]] = s.cycle + wait(wid) // t2's row
		case kindBarrier:
			w.barWait = true
			c.ready &^= 1 << uint(wid)
		}
	}
	c.lsuFree = s.cycle + lsu
	return s
}

// TestSchedFoldSixtyFourWarps rigs issue attempts on a full 64-warp core
// that mix barrier waiters, inactive warps, LSU stalls and register stalls,
// with each policy's priority origin at the top warp (rr pointer 63, gto
// owner 63, 2lev group 7) and at warp 0. The first attempt fails; two more
// follow 2 and 4 cycles later with the LSU deadline pushed out, so woken
// warps re-sleep on it (or issue). Every attempt's outcome and the run
// that follows, up to its deadlock on the barrier waiters, are held to
// their frozen digests.
func TestSchedFoldSixtyFourWarps(t *testing.T) {
	layouts := []struct {
		name string
		kind func(int) stallKind
		wait func(int) uint64
		lsu  uint64
	}{
		// An FU-bound warp at 63 ties at the earliest wake with the LSU
		// warp at 0 and memory-bound register warps: whichever the fold
		// visits first decides blockMem.
		{"tied", func(wid int) stallKind {
			if wid == 63 {
				return kindRegExec
			}
			return stallKind(wid % 5)
		}, func(wid int) uint64 {
			if wid%3 == 1 {
				return 9
			}
			return 5
		}, 5},
		// Everything past warp 31 waits longer than any FU; the earliest
		// wakes sit in the low warps, reached only after the fold wraps
		// from 63.
		{"wrap", func(wid int) stallKind {
			switch {
			case wid == 63 || wid == 62:
				return kindRegMem
			case wid%4 == 3:
				return kindBarrier
			case wid%9 == 4:
				return kindInactive
			case wid%2 == 0:
				return kindRegExec
			}
			return kindLSU
		}, func(wid int) uint64 {
			if wid >= 32 {
				return uint64(40 + wid)
			}
			return uint64(3 + wid%4)
		}, 9},
		// Register stalls only, some shorter and some longer than the
		// longest FU latency.
		{"fu-vs-long", func(wid int) stallKind {
			if wid%8 == 7 {
				return kindBarrier
			}
			return kindRegExec
		}, func(wid int) uint64 { return uint64(2 + (wid*7)%30) }, 1},
	}
	for _, sched := range SchedPolicies() {
		for _, origin := range []int{63, 0} {
			for _, l := range layouts {
				t.Run(fmt.Sprintf("%s/origin=%d/%s", sched, origin, l.name), func(t *testing.T) {
					s := rigFold(t, sched, l.kind, l.wait, l.lsu)
					c := &s.cores[0]
					c.rr, c.cur, c.grp = origin, origin, origin/fetchGroup
					var out []any
					for step, dt := range []uint64{0, 2, 2} {
						s.cycle += dt
						c.lsuFree += 2 * dt
						issued, wake, err := s.issueHeap(c)
						if err != nil || (step == 0 && issued) {
							t.Fatalf("attempt %d: issued=%v err=%v, want a failed attempt", step, issued, err)
						}
						out = append(out, issued, wake, c.blockMem)
						c.nextWake = wake
						if issued {
							c.nextWake = s.cycle + 1
						}
					}
					for wid := range c.warps {
						w := &c.warps[wid]
						out = append(out, w.active, w.barWait, w.wake, w.wakeMem)
					}
					s.cycle++
					var evs []IssueEvent
					s.SetObserver(func(e IssueEvent) { evs = append(evs, e) })
					trap, ok := s.Run().(*Trap)
					if !ok || !strings.Contains(trap.Reason, "barrier that can never fill") {
						t.Fatalf("run ended with %v, want the barrier deadlock", trap)
					}
					CheckEngineDigest(t, "", digestOf(out, *trap, s.CoreStatsOf(0), evs))
				})
			}
		}
	}
}

// parkProg: on every core with cid%3 == 1, warp 1 retires at once and warp
// 0 waits on a two-warp barrier that can never fill, parking the core;
// both warps of every other core walk a three-line read-modify-write loop
// in their own 256-byte region.
const parkProg = `
	csrr t0, cid
	li   t1, 3
	remu t2, t0, t1
	li   t1, 1
	bne  t2, t1, work
	csrr t1, wid
	bnez t1, done
	li   t0, 0
	li   t1, 2
	vx_bar t0, t1
done:
	ecall
work:
	slli s0, t0, 9
	csrr t1, wid
	slli t1, t1, 8
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 3
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// TestEventParkedBesideSleeping parks a third of the cores on a dead
// barrier early while the rest sleep out near or far DRAM misses and
// retire; the run ends in the barrier deadlock once only parked cores
// remain. The trap, every core's settled stall split and the observer
// stream are held to their frozen digests.
func TestEventParkedBesideSleeping(t *testing.T) {
	for _, cores := range []int{6, 67} {
		for _, dram := range []int{180, 2000} {
			t.Run(fmt.Sprintf("%dc/dram=%d", cores, dram), func(t *testing.T) {
				cfg := DefaultConfig(cores, 2, 4)
				cfg.Mem.DRAM.Latency = dram
				s := newDiffSim(t, cfg, parkProg, activateAll(cfg, 2, 0xF))
				var evs []IssueEvent
				s.SetObserver(func(e IssueEvent) { evs = append(evs, e) })
				trap, ok := s.Run().(*Trap)
				if !ok || !strings.Contains(trap.Reason, "barrier that can never fill") {
					t.Fatalf("run ended with %v, want the barrier deadlock", trap)
				}
				if trap.Cycle < uint64(dram) {
					t.Errorf("trap at cycle %d, want it after the sleeping cores' %d-cycle misses", trap.Cycle, dram)
				}
				stats := make([]CoreStats, cores)
				for i := range stats {
					stats[i] = s.CoreStatsOf(i)
				}
				CheckEngineDigest(t, "", digestOf(*trap, stats, evs))
			})
		}
	}
}

// TestEventRunAfterAbnormalExit reshapes one device after runs that ended
// with cores still queued — at the MaxCycles deadline while cores sleep out
// near or far misses, and at a barrier deadlock — and holds its next run,
// on half the cores, to a fresh device's.
func TestEventRunAfterAbnormalExit(t *testing.T) {
	halfActive := func(cfg Config) func(*Sim) error {
		return func(s *Sim) error {
			for c := 0; c < cfg.Cores; c += 2 {
				for w := 0; w < 4; w++ {
					if err := s.ActivateWarp(c, w, 0x1000, 0xF); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	next := DefaultConfig(4, 4, 4)
	want, wantEvs := runObserved(t, next, diffMemProg, halfActive(next))
	for _, tc := range []struct {
		name string
		prog string
		dram int
		max  uint64
	}{
		{"deadline-near", diffMemProg, 180, 300},
		{"deadline-far", diffMemProg, 2000, 300},
		{"deadlock", parkProg, 180, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 4, 4)
			cfg.Mem.DRAM.Latency = tc.dram
			cfg.MaxCycles = tc.max
			s := newDiffSim(t, cfg, tc.prog, activateAll(cfg, 4, 0xF))
			if err := s.Run(); err == nil {
				t.Fatal("first run ended cleanly, want a deadline or deadlock")
			}
			hier, err := mem.NewHierarchy(next.Cores, next.Mem)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Reshape(next, mem.NewMemory(1<<20), hier); err != nil {
				t.Fatal(err)
			}
			p := asm.MustAssemble(diffMemProg, 0x1000, nil)
			if err := s.LoadProgram(p.Base, p.Insts); err != nil {
				t.Fatal(err)
			}
			if err := halfActive(next)(s); err != nil {
				t.Fatal(err)
			}
			var evs []IssueEvent
			s.SetObserver(func(e IssueEvent) { evs = append(evs, e) })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := takeSnapshot(t, s); digestOf(got, evs) != digestOf(want, wantEvs) {
				t.Errorf("reshaped run: %d cycles, %d issues; fresh run: %d cycles, %d issues",
					got.cycles, len(evs), want.cycles, len(wantEvs))
			}
		})
	}
}
