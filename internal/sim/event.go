package sim

import (
	"fmt"
	"math/bits"
)

// This file implements the device engine. On every failed issue attempt
// the scheduler (sched.go) computes the earliest cycle the core can possibly
// issue again (simCore.nextWake, from the per-warp stall records). The
// engine lifts that knowledge into a device-level core wake queue
// (eventQueue), a calendar queue (Brown, CACM 31(10), 1988) of core
// bitsets, so a cycle touches only the cores that are due:
//
//   - ring: a power-of-two ring of horizon per-cycle core bitsets; a core
//     sleeping until cycle at < cycle+horizon has its bit in slot
//     at & (horizon-1). A summary bitset marks the non-empty slots, so a
//     cycle on which nothing issued jumps straight to the next wake;
//   - far: cores whose wake lies horizon or more cycles out, in an
//     unordered overflow list with a cached minimum. Whenever the cycle
//     moves, the wakes the horizon has reached move into the ring, so a
//     far wake is exact and in its slot before it is due;
//   - running: a bitset of the cores that issued last cycle and are
//     therefore due again this cycle (a busy core would otherwise be filed
//     into the next slot every cycle);
//   - parked cores, whose failed issue returned noWake — every active warp
//     waits on a barrier — are filed nowhere. Barriers are core-local and
//     a parked core cannot execute the arrival that would fill one, so a
//     parked core can never wake; it leaves the queue only at a deadlock
//     trap.
//
// Every core with active warps is in exactly one of ring, far, running or
// parked, and a queued core's state cannot change from outside: warp
// activation (vx_wspawn) and barrier release only ever touch the executing
// core, so sleeping cores stay asleep until their key expires. A cycle's
// due set is running | ring[cycle], visited in ascending core id; when no
// core issued, the cycle jumps to the first non-empty slot after it, or to
// the overflow minimum when the ring is empty.
//
// Stall attribution contract: every cycle on which a core with active warps
// does not issue is one stall cycle of that core, charged to MemStall or
// ExecStall by the core's blockMem — which the failed attempt fixes and
// which cannot change while the core sleeps (the per-warp stall records are
// only rewritten when the core itself issues). So on a core that runs to
// completion, Issued + MemStall + ExecStall equals the cycles it had active
// warps. The engine records only the span start (simCore.stallFrom) when a
// core goes to sleep and settles the whole span through accountStall when
// the core is next due (flushStall). A run that ends abnormally settles
// every pending span at the trap or deadline (flushTrapStalls,
// flushAllStalls) with the boundaries documented there.

// Calendar geometry: a core sleeping until at sits in ring slot
// at & (horizon-1) while at lies less than horizon cycles ahead of the
// current cycle. The horizon is a power of two above every default wake
// distance (the 180-cycle DRAM latency plus the L1/L2 hits and the line
// transfer); longer wakes wait in the overflow list.
const (
	horizon     = 512
	slotMask    = horizon - 1
	wordBits    = 6 // a bitset word holds 64 cores (or 64 slots)
	wordBitMask = 1<<wordBits - 1
	summaryLen  = horizon >> wordBits
)

// coreEvent is one core in the overflow list, keyed by the earliest cycle
// its scheduler can issue again.
type coreEvent struct {
	at   uint64
	core int32
}

// eventQueue tracks the device's cores by their next due cycle, as a
// calendar of core bitsets (one bit per core, words 64-core words per
// set). See the file comment for the invariants; in addition, ring slots
// hold exactly the wakes in [cycle, cycle+horizon) and far the later ones,
// and every ring slot whose summary bit is clear is all zero.
type eventQueue struct {
	words   int                // 64-bit words per core bitset
	ring    []uint64           // horizon slots of words words each
	summary [summaryLen]uint64 // bit k: ring slot k is non-empty
	running []uint64           // cores that issued last cycle
	due     []uint64           // scratch for collectDue, reused across cycles
	far     []coreEvent        // wakes at least horizon cycles out, unordered
	farMin  uint64             // earliest at in far; noWake when far is empty
	live    int                // cores with active warps still tracked by this queue
}

// init loads every core into the queue at the run's start cycle. Cores
// woken by a previous launch's ActivateWarp are due immediately; a core
// still sleeping out a previous launch's stall keeps its wake key, with the
// pending span starting at the current cycle. A run that ended at a trap or
// deadline may leave cores filed; only the slots the summary marks are
// cleared (at that run's width), so init costs O(live cores), not
// O(horizon).
func (q *eventQueue) init(s *Sim, cycle uint64) {
	for i, m := range q.summary {
		for ; m != 0; m &= m - 1 {
			k := i<<wordBits + bits.TrailingZeros64(m)
			clear(q.ring[k*q.words : (k+1)*q.words])
		}
		q.summary[i] = 0
	}
	q.words = (len(s.cores) + wordBitMask) >> wordBits
	q.ring = resized(q.ring, horizon*q.words)
	q.running = resized(q.running, q.words)
	q.due = resized(q.due, q.words)
	clear(q.running)
	q.far = q.far[:0]
	q.farMin = noWake
	q.live = 0
	for i := range s.cores {
		c := &s.cores[i]
		if c.active == 0 {
			continue
		}
		q.live++
		switch {
		case c.nextWake <= cycle:
			c.stallFrom = noWake
			q.running[i>>wordBits] |= 1 << uint(i&wordBitMask)
		case c.nextWake == noWake:
			// Parked: filed nowhere (see the file comment).
			c.stallFrom = cycle
		default:
			c.stallFrom = cycle
			q.sleep(cycle, c.nextWake, int32(i))
		}
	}
}

// sleep files core until its wake cycle at > cycle: in the ring when at lies
// within the horizon, else in the overflow list.
func (q *eventQueue) sleep(cycle, at uint64, core int32) {
	if at-cycle >= horizon {
		q.far = append(q.far, coreEvent{at: at, core: core})
		q.farMin = min(q.farMin, at)
		return
	}
	k := int(at & slotMask)
	q.ring[k*q.words+int(core>>wordBits)] |= 1 << uint(core&wordBitMask)
	q.summary[k>>wordBits] |= 1 << uint(k&wordBitMask)
}

// advance moves every overflow wake the horizon has reached at the new
// current cycle into the ring. The engine calls it whenever the cycle
// moves, so no overflow wake is ever due before it is in the ring.
func (q *eventQueue) advance(cycle uint64) {
	if q.farMin-cycle >= horizon {
		return
	}
	far := q.far[:0]
	q.farMin = noWake
	for _, e := range q.far {
		if e.at-cycle < horizon {
			q.sleep(cycle, e.at, e.core)
			continue
		}
		far = append(far, e)
		q.farMin = min(q.farMin, e.at)
	}
	q.far = far
}

// collectDue returns the cores due at cycle — last cycle's issuers plus
// the cores whose wake is this cycle — as a bitset, emptying both sources.
// The engine visits its bits in ascending core id. That order is
// load-bearing: it fixes both the interleaving of same-cycle
// shared-memory accesses and the observer stream. When no sleeping core
// is due the running set is the whole answer, and the two buffers are
// swapped instead of merged; either way the caller may then refill
// q.running, which no longer aliases the returned set.
func (q *eventQueue) collectDue(cycle uint64) []uint64 {
	k := int(cycle & slotMask)
	q.due, q.running = q.running, q.due
	clear(q.running)
	if bit := uint64(1) << uint(k&wordBitMask); q.summary[k>>wordBits]&bit != 0 {
		q.summary[k>>wordBits] &^= bit
		slot := q.ring[k*q.words : (k+1)*q.words]
		for i, m := range slot {
			q.due[i] |= m
		}
		clear(slot)
	}
	return q.due
}

// next returns the earliest wake still queued after cycle, whose ring slot
// has just been drained: the first non-empty slot in circular order from
// cycle+1, else the overflow minimum (noWake when the queue is empty). Ring
// wakes all precede overflow ones.
func (q *eventQueue) next(cycle uint64) uint64 {
	p := int((cycle + 1) & slotMask)
	w, off := p>>wordBits, uint(p&wordBitMask)
	if m := q.summary[w] >> off; m != 0 {
		return cycle + 1 + uint64(bits.TrailingZeros64(m))
	}
	for j := 1; j <= summaryLen; j++ {
		wj := (w + j) % summaryLen
		m := q.summary[wj]
		if j == summaryLen {
			m &= 1<<off - 1 // the start word's slots before p, reached last
		}
		if m != 0 {
			k := wj<<wordBits + bits.TrailingZeros64(m)
			return cycle + 1 + uint64((k-p)&slotMask)
		}
	}
	return q.farMin
}

// flushStall settles a core's pending stall span through the cycle before
// the current one, the cycle it is re-attempted on. Called when a due core
// is visited; the abnormal-exit paths use flushTrapStalls/flushAllStalls
// instead.
func (s *Sim) flushStall(c *simCore) {
	if c.stallFrom < s.cycle {
		s.accountStall(c, s.cycle-c.stallFrom)
		c.stallFrom = s.cycle
	}
}

// flushStallUpto settles a core's pending stall span through upto-1.
func (s *Sim) flushStallUpto(c *simCore, upto uint64) {
	if c.stallFrom < upto {
		s.accountStall(c, upto-c.stallFrom)
		c.stallFrom = upto
	}
}

// flushTrapStalls settles every pending stall span at an execution trap
// raised by trapCore at the current cycle. Due cores are visited in
// ascending order and the visit stops at the trapping core, so cores below
// it are charged through the trap cycle inclusive and cores at or above it
// only through the previous cycle.
func (s *Sim) flushTrapStalls(trapCore int) {
	for i := range s.cores {
		c := &s.cores[i]
		if c.active == 0 {
			continue
		}
		upto := s.cycle
		if i < trapCore {
			upto++
		}
		s.flushStallUpto(c, upto)
	}
}

// flushAllStalls settles every pending stall span through upto-1: the
// current cycle inclusive at a deadlock trap (upto = cycle+1: the parked
// cores stalled on the trap cycle too), and the pre-advance cycle at the
// MaxCycles deadline (upto = cycle).
func (s *Sim) flushAllStalls(upto uint64) {
	for i := range s.cores {
		c := &s.cores[i]
		if c.active > 0 {
			s.flushStallUpto(c, upto)
		}
	}
}

// runEvent is the device engine: per cycle it touches only the cores due
// now, advances to the queue's next wake when nothing issued, and settles
// stall spans lazily.
func (s *Sim) runEvent() error {
	limit := s.cfg.MaxCycles
	if limit == 0 {
		limit = 1 << 40
	}
	deadline := s.cycle + limit

	q := &s.evq
	q.init(s, s.cycle)

	for q.live > 0 {
		due := q.collectDue(s.cycle)
		issuedAny := false
		for w, m := range due {
			for ; m != 0; m &= m - 1 {
				ci := int32(w<<wordBits + bits.TrailingZeros64(m))
				c := &s.cores[ci]
				if c.active == 0 {
					// Retired since it last issued; it leaves the queue and
					// is never visited (or charged) again.
					q.live--
					continue
				}
				s.flushStall(c)
				issued, wake, err := s.issueHeap(c)
				if err != nil {
					s.flushTrapStalls(int(ci))
					return err
				}
				switch {
				case issued:
					issuedAny = true
					c.nextWake = s.cycle + 1
					c.stallFrom = noWake
					q.running[w] |= 1 << uint(ci&wordBitMask)
				case wake == noWake:
					c.nextWake = noWake
					c.stallFrom = s.cycle
				default:
					c.nextWake = wake
					c.stallFrom = s.cycle
					q.sleep(s.cycle, wake, ci)
				}
			}
		}
		if issuedAny {
			s.cycle++
		} else if at := q.next(s.cycle); at != noWake {
			s.cycle = at
		} else if q.live > 0 {
			// No timed event left: every remaining live core is parked on a
			// barrier that can never fill.
			s.flushAllStalls(s.cycle + 1)
			return s.deadlockTrap()
		} else {
			return nil
		}
		if s.cycle > deadline {
			s.flushAllStalls(s.cycle)
			return fmt.Errorf("sim: exceeded cycle limit %d on %s", limit, s.cfg.Name())
		}
		q.advance(s.cycle)
	}
	return nil
}
