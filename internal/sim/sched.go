package sim

// Warp scheduling. Each core tracks its issuable warps in two structures:
//
//   - a ready set (simCore.ready, a warp bitmask): warps whose next
//     instruction may issue this cycle as far as the core knows — freshly
//     activated, just issued, just woken, or just released from a barrier;
//   - a wake-ordered min-heap (simCore.wakeHeap): warps known to be stalled,
//     keyed by the earliest cycle their stall can clear (the warp's
//     scoreboard ready time, or the LSU's busy-until cycle for structural
//     stalls).
//
// Issue cycles first drain every heap entry whose wake time has arrived into
// the ready set, then let the configured policy (pick) choose candidates
// from the ready set until one issues. A candidate that turns out stalled
// migrates ready -> heap in O(log Warps); warps the heap holds are never
// touched, so an issue cycle costs O(ready warps), not O(Warps). The
// invariant maintained by
// this file and the transition hooks in exec.go/sim.go:
//
//     a warp is active && !barWait  <=>  it is in exactly one of
//     {ready set, wake heap}
//
// (barrier waiters and inactive warps are in neither; release/activation
// re-enters the ready set). A bitmask of the heap's warps (simCore.sleeping:
// set in sleepWarp, cleared in wakeWarps and resetSched) lets the stall
// fold visit only them instead of every warp slot. Heap wake keys are
// lower bounds: a popped warp re-checks its stall and re-sleeps if the LSU
// deadline moved. Because a
// stalled warp's scoreboard wake time cannot change while it is stalled
// (pending completions are only written when the warp itself issues), the
// scoreboard keys are exact and a warp never wakes late.

import "math/bits"

// pick returns the warp core c should try to issue next, chosen from the
// non-empty candidate mask avail in the policy's priority order. The engine
// re-picks with the candidate removed when the warp turns out stalled, so
// pick sees exactly the policy's scan order. Policies are stateless; their
// per-core rotation state (rr, cur, grp) lives in simCore.
func (s *Sim) pick(c *simCore, avail uint64) int {
	switch s.cfg.Sched {
	case SchedGTO:
		// Greedy-then-oldest: keep issuing the same warp until it stalls,
		// then take the next ready warp in circular scan order from it.
		return circNext(avail, c.cur)
	case SchedOldestFirst:
		return pickOldest(c, avail)
	case SchedTwoLevel:
		return pickTwoLevel(c, avail)
	}
	// Round-robin: the scan starts one past the last issuer.
	return circNext(avail, c.rr)
}

// issued advances the policy's per-core rotation state after wid issued.
func (s *Sim) issued(c *simCore, wid int) {
	switch s.cfg.Sched {
	case SchedGTO:
		c.cur = wid
		return
	case SchedOldestFirst:
		return
	case SchedTwoLevel:
		c.grp = wid / fetchGroup
	}
	c.rr = wid + 1
	if c.rr >= len(c.warps) {
		c.rr = 0
	}
}

// scanStart anchors the circular stall-attribution fold run when no warp
// can issue (see stallOutcome): the fold visits warps in ascending wid
// order starting here, the policy's priority origin.
func (s *Sim) scanStart(c *simCore) int {
	switch s.cfg.Sched {
	case SchedGTO:
		return c.cur
	case SchedOldestFirst:
		return 0
	case SchedTwoLevel:
		if lo := c.grp * fetchGroup; lo < len(c.warps) {
			return lo
		}
		return 0
	}
	return c.rr
}

// circNext returns the lowest set bit of mask at or after start, wrapping
// to the lowest set bit overall when none — the circular scan order of rr
// and gto. mask must be non-zero; start may equal the warp
// count (a fresh rr pointer past the last warp wraps naturally).
func circNext(mask uint64, start int) int {
	if hi := mask >> uint(start); hi != 0 {
		return start + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(mask)
}

// pickOldest issues the ready warp that has gone longest without issuing
// (smallest last-issue cycle; lowest wid breaks ties). Freshly activated
// warps carry last = 0 and therefore have top priority.
func pickOldest(c *simCore, avail uint64) int {
	best, bestLast := -1, uint64(0)
	for m := avail; m != 0; m &= m - 1 {
		wid := bits.TrailingZeros64(m)
		if last := c.warps[wid].last; best < 0 || last < bestLast {
			best, bestLast = wid, last
		}
	}
	return best
}

// fetchGroup is the two-level scheduler's group width (Narasiman et al.:
// small groups stagger the groups' long-latency misses in time).
const fetchGroup = 8

// fetchGroupMask covers one fetch group's warps before shifting to the
// group's base wid.
const fetchGroupMask = uint64(1)<<fetchGroup - 1

// pickTwoLevel round-robins within the active fetch group and moves to the
// next group (in circular group order) only when no warp of the active
// group is a candidate.
func pickTwoLevel(c *simCore, avail uint64) int {
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
	c.sleeping |= 1 << uint(wid)
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
		bit := uint64(1) << uint(c.wakeHeap[0].wid)
		c.ready |= bit
		c.sleeping &^= bit
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
	c.sleeping = 0
	c.wakeHeap = c.wakeHeap[:0]
	c.rr = 0
	c.cur = 0
	c.grp = 0
}

// issueHeap attempts to issue one instruction on core c at the current
// cycle using the ready-set/wake-heap engine. It returns whether an
// instruction issued and, if not, the earliest cycle the core might become
// ready. Every issue goes through execute, one warp at a time.
func (s *Sim) issueHeap(c *simCore) (bool, uint64, error) {
	if h := c.wakeHeap; len(h) > 0 && h[0].at <= s.cycle {
		c.wakeWarps(s.cycle)
	}
	avail := c.ready
	for avail != 0 {
		wid := s.pick(c, avail)
		w := &c.warps[wid]
		idx := s.fetchIndex(w.pc)
		if idx >= uint32(len(s.dec)) || s.dec[idx].invalid {
			return false, 0, s.fetchTrap(c, wid, w)
		}
		d := &s.dec[idx]
		if ready := regsReadyAt(w, d); ready > s.cycle {
			w.wake, w.wakeMem = ready, d.isMem
			avail &^= 1 << uint(wid)
			c.sleepWarp(wid, ready)
			continue
		}
		if d.isMem {
			if at := s.lsuReadyAt(c); at > s.cycle {
				// Structural LSU/MSHR stall. The heap key is the current
				// ready-at lower bound; it only moves forward, so a woken
				// warp re-checks and re-sleeps if it moved.
				w.wake, w.wakeMem = 0, true
				avail &^= 1 << uint(wid)
				c.sleepWarp(wid, at)
				continue
			}
		}
		if err := s.execute(c, wid, w, d); err != nil {
			return false, 0, err
		}
		w.last = s.cycle
		s.issued(c, wid)
		return true, 0, nil
	}
	return false, s.stallOutcome(c), nil
}

// stallOutcome computes a failed issue attempt's result — the earliest wake
// cycle and the core's dominant stall attribution (c.blockMem) — from the
// per-warp stall records. It runs with the ready set empty, so every active
// non-barrier warp is heap-resident (c.sleeping) with its record written at
// this point, and the heap-resident warps are exactly those. The fold
// visits them in a circular scan from the policy's priority origin
// (scanStart): the set bits at or above it in ascending wid, then the bits
// below. The wake is the earliest record, and the stall counts as
// memory-bound when the first warp to reach that earliest wake waits on a
// memory op or longer than the longest FU latency, or when any warp visited
// after it waits longer than that. noWake comes back when only barrier
// waiters remain (no timed event exists).
func (s *Sim) stallOutcome(c *simCore) uint64 {
	start := uint(s.scanStart(c))
	wake := noWake
	blockMem := false
	maxFU := s.maxFU
	hi := c.sleeping >> start << start
	for _, m := range [2]uint64{hi, c.sleeping &^ hi} {
		for ; m != 0; m &= m - 1 {
			w := &c.warps[bits.TrailingZeros64(m)]
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
