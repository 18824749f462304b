package sim

// Warp scheduling. Each core tracks its issuable warps in two structures:
//
//   - a ready set (simCore.ready, a warp bitmask): warps whose next
//     instruction may issue this cycle as far as the core knows — freshly
//     activated, just issued, just woken, or just released from a barrier;
//   - a wake-ordered min-heap (simCore.wakeHeap): warps known to be stalled,
//     keyed by the earliest cycle their stall can clear (the per-warp stall
//     cache's `wake`, or the LSU's busy-until cycle for structural stalls).
//
// Issue cycles first drain every heap entry whose wake time has arrived into
// the ready set, then let the configured Scheduler policy pick candidates
// from the ready set until one issues. A candidate that turns out stalled
// migrates ready -> heap in O(log Warps); warps the heap holds are never
// touched, so an issue cycle costs O(ready warps), not O(Warps) — the win
// over the legacy scan loop at high warp counts. The invariant maintained by
// this file and the transition hooks in exec.go/sim.go:
//
//     a warp is active && !barWait  <=>  it is in exactly one of
//     {ready set, wake heap}
//
// (barrier waiters and inactive warps are in neither; release/activation
// re-enters the ready set). Heap wake keys are lower bounds: a popped warp
// re-checks its stall and re-sleeps if the LSU deadline moved. Because a
// stalled warp's scoreboard wake time cannot change while it is stalled
// (pending completions are only written when the warp itself issues), the
// scoreboard keys are exact and a warp never wakes late.
//
// The legacy O(Warps) scan loop (sim.go issueScan) is retained behind
// Config.ScanSched as the differential-test oracle: for the rr and gto
// policies the two engines are byte-identical in every simulated observable
// (cycles, statistics, stall attribution, architectural state).

import (
	"math/bits"

	"repro/internal/isa"
)

// Scheduler is a warp-scheduling policy: it orders a core's ready warps for
// issue selection and absorbs issue feedback. Implementations are stateless
// singletons — per-core rotation state (rr, cur, grp) lives in simCore — so
// one Scheduler serves every core of a device.
type Scheduler interface {
	// Name returns the policy's canonical name (SchedPolicy.String).
	Name() string
	// Pick returns the warp the core should try to issue next, chosen from
	// the non-empty candidate mask in the policy's priority order. The
	// engine re-Picks with the candidate removed when the warp turns out
	// stalled, so Pick sees exactly the policy's scan order.
	Pick(c *simCore, avail uint64) int
	// Issued informs the policy that wid issued this cycle, so it can
	// advance its per-core rotation state.
	Issued(c *simCore, wid int)
	// ScanStart anchors the circular stall-attribution fold run when no
	// warp can issue (see stallOutcome): the fold visits warps in ascending
	// wid order starting here, which for rr/gto reproduces the legacy
	// scan's visit order exactly.
	ScanStart(c *simCore) int
}

// newScheduler returns the singleton implementing p. Config.Validate has
// already rejected unknown policies.
func newScheduler(p SchedPolicy) Scheduler {
	switch p {
	case SchedGTO:
		return gtoSched{}
	case SchedOldestFirst:
		return oldestSched{}
	case SchedTwoLevel:
		return twoLevelSched{}
	}
	return rrSched{}
}

// circNext returns the lowest set bit of mask at or after start, wrapping
// to the lowest set bit overall when none — the circular scan order both
// legacy policies use. mask must be non-zero; start may equal the warp
// count (a fresh rr pointer past the last warp wraps naturally).
func circNext(mask uint64, start int) int {
	if hi := mask >> uint(start); hi != 0 {
		return start + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(mask)
}

// rrSched rotates issue priority over warps each cycle: the scan starts
// one past the last issuer.
type rrSched struct{}

func (rrSched) Name() string                      { return SchedRoundRobin.String() }
func (rrSched) Pick(c *simCore, avail uint64) int { return circNext(avail, c.rr) }
func (rrSched) Issued(c *simCore, wid int) {
	c.rr = wid + 1
	if c.rr >= len(c.warps) {
		c.rr = 0
	}
}
func (rrSched) ScanStart(c *simCore) int { return c.rr }

// gtoSched is greedy-then-oldest: keep issuing the same warp until it
// stalls, then take the next ready warp in circular scan order from it.
type gtoSched struct{}

func (gtoSched) Name() string                      { return SchedGTO.String() }
func (gtoSched) Pick(c *simCore, avail uint64) int { return circNext(avail, c.cur) }
func (gtoSched) Issued(c *simCore, wid int)        { c.cur = wid }
func (gtoSched) ScanStart(c *simCore) int          { return c.cur }

// oldestSched issues the ready warp that has gone longest without issuing
// (smallest last-issue cycle; lowest wid breaks ties). Freshly activated
// warps carry last = 0 and therefore have top priority.
type oldestSched struct{}

func (oldestSched) Name() string { return SchedOldestFirst.String() }
func (oldestSched) Pick(c *simCore, avail uint64) int {
	best, bestLast := -1, uint64(0)
	for m := avail; m != 0; m &= m - 1 {
		wid := bits.TrailingZeros64(m)
		if last := c.warps[wid].last; best < 0 || last < bestLast {
			best, bestLast = wid, last
		}
	}
	return best
}
func (oldestSched) Issued(c *simCore, wid int) {}
func (oldestSched) ScanStart(c *simCore) int   { return 0 }

// fetchGroup is the two-level scheduler's group width (Narasiman et al.:
// small groups stagger the groups' long-latency misses in time).
const fetchGroup = 8

// fetchGroupMask covers one fetch group's warps before shifting to the
// group's base wid.
const fetchGroupMask = uint64(1)<<fetchGroup - 1

// twoLevelSched round-robins within the active fetch group and moves to
// the next group (in circular group order) only when no warp of the active
// group is a candidate.
type twoLevelSched struct{}

func (twoLevelSched) Name() string { return SchedTwoLevel.String() }
func (twoLevelSched) Pick(c *simCore, avail uint64) int {
	n := len(c.warps)
	ng := (n + fetchGroup - 1) / fetchGroup
	g := c.grp
	if g >= ng {
		g = 0
	}
	for k := 0; k < ng; k++ {
		gi := g + k
		if gi >= ng {
			gi -= ng
		}
		lo := gi * fetchGroup
		gm := avail & (fetchGroupMask << uint(lo))
		if gm == 0 {
			continue
		}
		if k == 0 && c.rr >= lo && c.rr < lo+fetchGroup {
			// Active group: round-robin within it.
			return circNext(gm, c.rr)
		}
		return bits.TrailingZeros64(gm)
	}
	return bits.TrailingZeros64(avail) // unreachable: avail is non-empty
}
func (twoLevelSched) Issued(c *simCore, wid int) {
	c.grp = wid / fetchGroup
	c.rr = wid + 1
	if c.rr >= len(c.warps) {
		c.rr = 0
	}
}
func (twoLevelSched) ScanStart(c *simCore) int {
	if lo := c.grp * fetchGroup; lo < len(c.warps) {
		return lo
	}
	return 0
}

// wakeEntry is one stalled warp in a core's wake heap.
type wakeEntry struct {
	at  uint64 // earliest cycle the stall can clear
	wid int32
}

func wakeBefore(a, b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.wid < b.wid)
}

// sleepWarp moves wid from the ready set into the wake heap, keyed at the
// earliest cycle its stall can clear.
func (c *simCore) sleepWarp(wid int, at uint64) {
	c.ready &^= 1 << uint(wid)
	h := append(c.wakeHeap, wakeEntry{at: at, wid: int32(wid)})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !wakeBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.wakeHeap = h
}

// wakeWarps pops every heap entry whose wake time has arrived into the
// ready set. Pop order within a cycle is irrelevant — the ready set is a
// mask — but the (at, wid) heap order keeps the structure deterministic.
func (c *simCore) wakeWarps(cycle uint64) {
	for len(c.wakeHeap) > 0 && c.wakeHeap[0].at <= cycle {
		c.ready |= 1 << uint(c.wakeHeap[0].wid)
		h := c.wakeHeap
		last := len(h) - 1
		h[0] = h[last]
		c.wakeHeap = h[:last]
		c.siftDown(0)
	}
}

func (c *simCore) siftDown(i int) {
	h := c.wakeHeap
	for {
		small := i
		if l := 2*i + 1; l < len(h) && wakeBefore(h[l], h[small]) {
			small = l
		}
		if r := 2*i + 2; r < len(h) && wakeBefore(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// resetSched rewinds a core's scheduler state (ready set, wake heap,
// rotation pointers) to the freshly constructed state.
func (c *simCore) resetSched() {
	c.ready = 0
	c.wakeHeap = c.wakeHeap[:0]
	c.rr = 0
	c.cur = 0
	c.grp = 0
}

// issueHeap attempts to issue one instruction on core c at the current
// cycle using the ready-set/wake-heap engine. It returns whether an
// instruction issued and, if not, the earliest cycle the core might become
// ready — byte-identical in every simulated observable to the legacy scan
// loop (issueScan) for the policies both implement. Every issue goes
// through execute, one warp at a time.
func (s *Sim) issueHeap(c *simCore) (bool, uint64, error) {
	c.wakeWarps(s.cycle)
	pol := s.sched
	avail := c.ready
	for avail != 0 {
		wid := pol.Pick(c, avail)
		w := &c.warps[wid]
		bit := uint64(1) << uint(wid)
		var in isa.Inst
		if w.wakeValid && w.wakePC == w.pc {
			// Stall cache hit: reuse the cached scoreboard outcome — same
			// fast path as the scan engine, minus the rescan that computed
			// it there.
			if w.wake > s.cycle {
				// Defensive: a ready-set warp with a future wake re-sleeps
				// (cannot occur while the invariant holds).
				avail &^= bit
				c.sleepWarp(wid, w.wake)
				continue
			}
			if w.wakeMem {
				if at := s.lsuReadyAt(c); at > s.cycle {
					// Structural LSU/MSHR stall. The heap key is the current
					// ready-at lower bound; it only moves forward, so a woken
					// warp re-checks and re-sleeps if it moved.
					avail &^= bit
					c.sleepWarp(wid, at)
					continue
				}
			}
			in = s.prog[(w.pc-s.progBase)/4]
		} else {
			if w.pc < s.progBase || w.pc-s.progBase >= uint32(len(s.prog))*4 || w.pc%4 != 0 {
				return false, 0, &Trap{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Reason: "instruction fetch outside program"}
			}
			idx := (w.pc - s.progBase) / 4
			in = s.prog[idx]
			if in.Op == isa.OpInvalid {
				return false, 0, &Trap{Cycle: s.cycle, Core: c.id, Warp: wid, PC: w.pc, Reason: "executed data word / invalid instruction"}
			}
			m := s.meta[idx]
			if ready := regsReadyAt(w, in, m); ready > s.cycle {
				w.wakeValid, w.wakePC, w.wake, w.wakeMem = true, w.pc, ready, m&mIsMem != 0
				avail &^= bit
				c.sleepWarp(wid, ready)
				continue
			}
			if m&mIsMem != 0 {
				if at := s.lsuReadyAt(c); at > s.cycle {
					w.wakeValid, w.wakePC, w.wake, w.wakeMem = true, w.pc, 0, true
					avail &^= bit
					c.sleepWarp(wid, at)
					continue
				}
			}
		}
		if err := s.execute(c, wid, w, in); err != nil {
			return false, 0, err
		}
		w.wakeValid = false
		w.last = s.cycle
		pol.Issued(c, wid)
		return true, 0, nil
	}
	return false, s.stallOutcome(c), nil
}

// stallOutcome computes a failed issue attempt's result — the earliest wake
// cycle and the core's dominant stall attribution (c.blockMem) — from the
// per-warp stall caches. Every active non-barrier warp is heap-resident
// with a valid cache at this point, and the fold visits them in a circular
// scan from the policy's priority origin, reproducing the legacy scan's
// accumulation (and therefore its MemStall/ExecStall split) byte-exactly
// for rr and gto. noWake comes back when only barrier waiters remain (no
// timed event exists).
func (s *Sim) stallOutcome(c *simCore) uint64 {
	n := len(c.warps)
	start := s.sched.ScanStart(c)
	wake := noWake
	blockMem := false
	maxFU := s.maxFU
	for k := 0; k < n; k++ {
		wid := start + k
		if wid >= n {
			wid -= n
		}
		w := &c.warps[wid]
		if !w.active || w.barWait {
			continue
		}
		if ready := w.wake; ready > s.cycle {
			if ready < wake {
				wake = ready
				blockMem = w.wakeMem || ready > s.cycle+maxFU
			} else if ready > s.cycle+maxFU {
				blockMem = true
			}
			continue
		}
		if w.wakeMem {
			if at := s.lsuReadyAt(c); at > s.cycle && at < wake {
				wake = at
				blockMem = true
			}
		}
	}
	if wake == noWake {
		c.blockMem = false
		return noWake
	}
	c.blockMem = blockMem
	if wake <= s.cycle {
		wake = s.cycle + 1
	}
	return wake
}
