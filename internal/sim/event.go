package sim

import "fmt"

// This file implements the device engine. On every failed issue attempt
// the scheduler (sched.go) computes the earliest cycle the core can possibly
// issue again (simCore.nextWake, from the per-warp stall records). The
// engine lifts that knowledge into a device-level core wake queue
// (eventQueue), so a cycle touches only the cores that are due:
//
//   - heap: a (wake cycle, core id) min-heap of sleeping cores, exactly the
//     per-core analogue of the per-warp wake heap;
//   - running: the cores that issued last cycle and are therefore due again
//     this cycle, kept as a plain list (a busy core would otherwise churn
//     through the heap every cycle with the same key);
//   - parked: cores whose failed issue returned noWake — every active warp
//     waits on a barrier. Barriers are core-local and a parked core cannot
//     execute the arrival that would fill one, so a parked core can never
//     wake; it leaves the queue only at a deadlock trap.
//
// Every core with active warps is in exactly one of the three containers,
// and a queued core's state cannot change from outside: warp activation
// (vx_wspawn) and barrier release only ever touch the executing core, so
// sleeping cores stay asleep until their key expires. Due cores are visited
// in ascending core id; when no core issued, the cycle jumps to the heap
// minimum.
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

// coreEvent is one sleeping core in a device event queue, keyed by the
// earliest cycle its scheduler can issue again.
type coreEvent struct {
	at   uint64
	core int32
}

func coreEventBefore(a, b coreEvent) bool {
	return a.at < b.at || (a.at == b.at && a.core < b.core)
}

// eventQueue tracks the device's cores by their next due cycle. See the
// file comment for the invariants.
type eventQueue struct {
	heap    []coreEvent
	running []int32
	parked  []int32
	due     []int32 // scratch for collectDue, reused across cycles
	live    int     // cores with active warps still tracked by this queue
}

// init loads every core into the queue at the run's start cycle. Cores
// woken by a previous launch's ActivateWarp are due immediately; a core
// still sleeping out a previous launch's stall keeps its wake key, with the
// pending span starting at the current cycle.
func (q *eventQueue) init(s *Sim, cycle uint64) {
	q.heap = q.heap[:0]
	q.running = q.running[:0]
	q.parked = q.parked[:0]
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
			q.running = append(q.running, int32(i))
		case c.nextWake == noWake:
			c.stallFrom = cycle
			q.parked = append(q.parked, int32(i))
		default:
			c.stallFrom = cycle
			q.push(c.nextWake, int32(i))
		}
	}
}

func (q *eventQueue) push(at uint64, core int32) {
	h := append(q.heap, coreEvent{at: at, core: core})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !coreEventBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

func (q *eventQueue) pop() coreEvent {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < len(h) && coreEventBefore(h[l], h[small]) {
			small = l
		}
		if r := 2*i + 2; r < len(h) && coreEventBefore(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	q.heap = h
	return top
}

// collectDue gathers the cores due at cycle — last cycle's issuers plus
// every heap entry whose wake time has arrived — merged in ascending core
// order. That order is load-bearing: it fixes both the interleaving of
// same-cycle shared-memory accesses and the observer stream. Both inputs are already ascending: the
// running list is appended in due-processing order, and the heap never
// holds an entry with at < cycle (every cycle's due entries are drained
// before the cycle advances), so a cycle's pops all share one key and come
// off in core order. When no sleeping core is due the running list is the
// whole answer, and the two buffers are swapped instead of copied; either
// way the caller may then reuse q.running, which no longer aliases the
// returned slice.
func (q *eventQueue) collectDue(cycle uint64) []int32 {
	if len(q.heap) == 0 || q.heap[0].at > cycle {
		q.due, q.running = q.running, q.due
		return q.due
	}
	due := q.due[:0]
	run := q.running
	ri := 0
	for len(q.heap) > 0 && q.heap[0].at <= cycle {
		c := q.pop().core
		for ri < len(run) && run[ri] < c {
			due = append(due, run[ri])
			ri++
		}
		due = append(due, c)
	}
	due = append(due, run[ri:]...)
	q.due = due
	return due
}

// flushStall settles a core's pending stall span through the cycle before
// the current one, the cycle it is re-attempted on. Called when a core is
// popped due; the abnormal-exit paths use flushTrapStalls/flushAllStalls
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
		q.running = q.running[:0]
		issuedAny := false
		for _, ci := range due {
			c := &s.cores[ci]
			if c.active == 0 {
				// Retired since it last issued; it leaves the queue and is
				// never visited (or charged) again.
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
				q.running = append(q.running, ci)
			case wake == noWake:
				c.nextWake = noWake
				c.stallFrom = s.cycle
				q.parked = append(q.parked, ci)
			default:
				c.nextWake = wake
				c.stallFrom = s.cycle
				q.push(wake, ci)
			}
		}
		switch {
		case issuedAny:
			s.cycle++
		case len(q.heap) > 0:
			s.cycle = q.heap[0].at
		case q.live > 0:
			// No timed event left: every remaining live core is parked on a
			// barrier that can never fill.
			s.flushAllStalls(s.cycle + 1)
			return s.deadlockTrap()
		default:
			return nil
		}
		if s.cycle > deadline {
			s.flushAllStalls(s.cycle)
			return fmt.Errorf("sim: exceeded cycle limit %d on %s", limit, s.cfg.Name())
		}
	}
	return nil
}
