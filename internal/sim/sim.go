package sim

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
)

// IssueEvent describes one instruction issue, delivered to the observer.
type IssueEvent struct {
	Cycle uint64
	Core  int
	Warp  int
	PC    uint32
	Mask  uint64
	Inst  isa.Inst
}

// Trap is a fatal execution error (bad memory access, divergent branch,
// malformed instruction, deadlock) annotated with its location.
type Trap struct {
	Cycle  uint64
	Core   int
	Warp   int
	PC     uint32
	Reason string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("sim: trap at cycle %d core %d warp %d pc %#x: %s", t.Cycle, t.Core, t.Warp, t.PC, t.Reason)
}

// ipdomEntry is one IPDOM divergence-stack slot. A divergence entry holds
// the else-path lanes and their resume pc; a reconvergence entry restores
// the pre-split mask at the join point.
type ipdomEntry struct {
	mask   uint64
	pc     uint32
	reconv bool
}

const maxIPDOMDepth = 64
const maxBarriers = 16

type warp struct {
	active  bool
	barWait bool
	pc      uint32
	tmask   uint64
	// regs and pend hold one row per register the layout names (layout.go):
	// regs[r*Threads+lane] is row r's value in lane (float registers as
	// IEEE-754 bits) and pend[r] its pending-result completion cycle.
	regs  []uint32
	pend  []uint64
	ipdom []ipdomEntry
	last  uint64 // last issue cycle (GTO tiebreak)

	// Stall record, written by the heap engine when the warp fails to issue
	// and read while it sleeps in the wake heap (its key, and stallOutcome's
	// fold). A stalled warp's pending completions cannot change — they are
	// only written when the warp itself issues — so the record stays exact
	// until the warp is next attempted.
	wakeMem bool   // the stalled instruction is a memory op (LSU hazard applies)
	wake    uint64 // earliest cycle the registers are ready (0: LSU stall)
}

type barrier struct {
	arrived int
	waiters uint64
}

// CoreStats counts per-core pipeline events.
type CoreStats struct {
	Issued       uint64 // instructions issued
	LaneOps      uint64 // instruction issues x active lanes
	Loads        uint64
	Stores       uint64
	LineRequests uint64 // coalesced memory line requests
	MemStall     uint64 // cycles with active warps blocked only by memory
	ExecStall    uint64 // cycles with active warps blocked by FU latency
	IdleAfterEnd uint64 // cycles after the core's last warp retired
}

type simCore struct {
	id    int
	warps []warp

	// Scheduler state (see sched.go): the ready set and wake heap hold
	// every active non-barrier warp between them, and sleeping marks the
	// heap's warps; rr/cur/grp are the policies' per-core rotation
	// pointers.
	ready    uint64
	sleeping uint64
	wakeHeap []wakeEntry
	rr       int
	cur      int // GTO: warp currently owning issue priority
	grp      int // two-level: active fetch group

	lsuFree uint64
	// mshr holds the completion cycles of the core's outstanding L1 misses
	// when Config.Mem.L1.MSHRs bounds them (unused when unbounded). An
	// entry is live while its cycle lies in the future; retired entries are
	// purged lazily by mshrFreeAt during issue.
	mshr     []uint64
	nextWake uint64
	active   int // number of active (incl. barrier-waiting) warps
	barriers [maxBarriers]barrier
	blockMem bool // dominant stall reason of the last failed issue attempt
	// stallFrom is the first cycle of the core's pending stall span under
	// the event engine: stall cycles accrue lazily while the core sleeps in
	// a device event queue and are settled in bulk by flushStall (event.go).
	// noWake means no span is pending (the core issued last cycle).
	stallFrom uint64
	stats     CoreStats

	// Per-core scratch for the coalescing path, preallocated so the issue
	// path never allocates.
	addrBuf [64]uint32
	lineBuf []uint32
}

// Sim is one device instance. Memory and the cache hierarchy are injected
// so their contents persist across kernel launches. The cycle counter is
// monotonic across launches; callers measure launches as cycle deltas.
type Sim struct {
	cfg      Config
	memory   *mem.Memory
	hier     *mem.Hierarchy
	progBase uint32
	dec      []decoded // the resident program, decoded under cfg.Lat and the layout
	// The register layout of the programs loaded since the last Reset
	// (layout.go): rowOf maps a scoreboard slot to its row (0 for x0 and
	// for slots no program names), nrows counts the rows.
	rowOf    [64]uint8
	nrows    int
	cores    []simCore
	cycle    uint64
	observer func(IssueEvent)

	// NoCoalesce issues one line request per active lane (ablation A2).
	NoCoalesce bool

	fullMask uint64
	maxFU    uint64 // cached Lat.max(): the longest FU latency, for stall attribution
	mshrs    int    // cached cfg.Mem.L1.MSHRs: per-core outstanding-miss bound (0 = unbounded)

	// Event engine's core wake queue (event.go), kept on the Sim so its
	// buffers are reused across Run calls: the issue path stays
	// allocation-free in steady state even when a pooled device runs many
	// launches.
	evq eventQueue
}

// New builds a device simulator over the given memory system.
func New(cfg Config, memory *mem.Memory, hier *mem.Hierarchy) (*Sim, error) {
	s := new(Sim)
	if err := s.Reshape(cfg, memory, hier); err != nil {
		return nil, err
	}
	return s, nil
}

// resized returns s with length n, keeping the backing array — and whatever
// its slots hold, those beyond len included — when the capacity suffices.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Reshape puts the simulator into the freshly constructed state of cfg over
// the given memory system, keeping every backing array that is large
// enough: the core and per-core warp arrays (with the warps' register
// files and divergence stacks), the scheduler, MSHR and coalescing scratch,
// the event queue. It is the one construction path — New is the zero value
// plus Reshape — so a Sim reshaped from any earlier shape, a trapped one
// included, behaves byte-identically to a new one. Like Reset it keeps an
// installed observer. On error the simulator is unchanged.
func (s *Sim) Reshape(cfg Config, memory *mem.Memory, hier *mem.Hierarchy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if memory == nil || hier == nil {
		return fmt.Errorf("sim: nil memory system")
	}
	s.cfg, s.memory, s.hier = cfg, memory, hier
	s.fullMask = fullMask(cfg.Threads)
	s.maxFU = uint64(cfg.Lat.max())
	s.mshrs = cfg.Mem.L1.MSHRs
	// Cores and warps a shrink left beyond len keep their arrays for the
	// next growth; Reset below visits exactly the new shape, so whatever a
	// re-exposed slot last held (active warps of a trapped run included)
	// is rewound before anything reads it. Register files are sized to
	// the layout and cfg.Threads when a warp is activated (resetWarp).
	s.cores = resized(s.cores, cfg.Cores)
	for i := range s.cores {
		c := &s.cores[i]
		c.id = i
		c.warps = resized(c.warps, cfg.Warps)
		// The capacities below are the preconditions that keep the issue
		// path allocation-free: a coalesced access has at most 64 lines;
		// each warp holds at most one wake-heap entry; and one memory
		// instruction can allocate up to 64 MSHR entries past a single
		// free one (the gate requires one free slot, not one per line).
		c.lineBuf = resized(c.lineBuf, 64)[:0]
		c.wakeHeap = resized(c.wakeHeap, cfg.Warps)[:0]
		if s.mshrs > 0 {
			c.mshr = resized(c.mshr, s.mshrs+64)[:0]
		}
	}
	s.Reset()
	return nil
}

func fullMask(threads int) uint64 {
	if threads >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(threads)) - 1
}

// Config returns the device configuration.
func (s *Sim) Config() Config { return s.cfg }

// Cycle returns the monotonic device cycle counter.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Memory returns the flat device memory.
func (s *Sim) Memory() *mem.Memory { return s.memory }

// Hierarchy returns the cache hierarchy.
func (s *Sim) Hierarchy() *mem.Hierarchy { return s.hier }

// SetObserver installs a per-issue callback (nil disables tracing).
func (s *Sim) SetObserver(fn func(IssueEvent)) { s.observer = fn }

// LoadProgram installs the instruction stream at base and decodes every
// instruction once into its issue record (decode.go), naming its registers
// in the layout (layout.go); warps still active from an earlier program
// gain the rows it adds, zeroed. Instruction fetch is modeled as ideal (the
// paper's bottlenecks are issue- and data-side). Every call decodes and
// keeps nothing of insts, which the caller may rewrite. Records depend on
// cfg.Lat, which only Reshape changes, and on rows the layout keeps until
// Reset; Reshape (through Reset) and Reset drop the resident program.
func (s *Sim) LoadProgram(base uint32, insts []isa.Inst) error {
	if base%4 != 0 {
		return fmt.Errorf("sim: program base %#x misaligned", base)
	}
	s.progBase = base
	s.dec = resized(s.dec, len(insts))
	rows := s.nrows
	for i, in := range insts {
		d := &s.dec[i]
		*d = decode(in, s.cfg.Lat)
		s.remap(d)
	}
	if s.nrows > rows {
		s.growActive()
	}
	return nil
}

// Reset rewinds the simulator to its freshly constructed state — cycle
// counter, per-core scheduler and LSU state, statistics, barriers, warp
// flags and registers — while keeping the register-file and scratch
// allocations, so a pooled device can be reused across runs with
// byte-identical behaviour to a new Sim. The loaded program and the
// register layout are dropped (the next launch reloads one), every warp's
// rows are emptied so its registers read 0 until it is next activated, and
// any observer is kept (callers that pool devices clear it via the device).
func (s *Sim) Reset() {
	s.cycle = 0
	s.progBase, s.dec = 0, s.dec[:0]
	s.resetLayout()
	s.NoCoalesce = false
	for i := range s.cores {
		c := &s.cores[i]
		c.resetSched()
		c.lsuFree = 0
		c.mshr = c.mshr[:0]
		c.nextWake = 0
		c.stallFrom = 0
		c.active = 0
		c.barriers = [maxBarriers]barrier{}
		c.blockMem = false
		c.stats = CoreStats{}
		for j := range c.warps {
			w := &c.warps[j]
			w.active = false
			w.barWait = false
			w.last = 0
			w.regs, w.pend = w.regs[:0], w.pend[:0]
		}
	}
}

// ActivateWarp starts warp (core, wid) at pc with the given thread mask,
// zeroing its register file and divergence stack.
func (s *Sim) ActivateWarp(core, wid int, pc uint32, tmask uint64) error {
	if core < 0 || core >= s.cfg.Cores || wid < 0 || wid >= s.cfg.Warps {
		return fmt.Errorf("sim: warp (%d,%d) outside %s", core, wid, s.cfg.Name())
	}
	if tmask == 0 || tmask&^s.fullMask != 0 {
		return fmt.Errorf("sim: bad thread mask %#x for %d threads", tmask, s.cfg.Threads)
	}
	c := &s.cores[core]
	w := &c.warps[wid]
	if w.active {
		return fmt.Errorf("sim: warp (%d,%d) already active", core, wid)
	}
	s.resetWarp(w, pc, tmask)
	// The warp was inactive, so it is in neither scheduler set (heap
	// residency implies active); it enters through the ready set.
	c.ready |= 1 << uint(wid)
	c.active++
	if c.nextWake > s.cycle {
		c.nextWake = s.cycle
	}
	return nil
}

func (s *Sim) resetWarp(w *warp, pc uint32, tmask uint64) {
	// The rows follow the layout and cfg.Threads: arrays large enough are
	// re-sliced, smaller (or new) ones allocate.
	w.regs, w.pend = w.regs[:0], w.pend[:0]
	s.fitRows(w)
	w.ipdom = w.ipdom[:0]
	w.active = true
	w.barWait = false
	// Clear the issue timestamp so oldest-first gives fresh warps top
	// priority instead of inheriting a previous launch's (or a previous
	// incarnation's) history. rr/gto never read it.
	w.last = 0
	w.pc = pc
	w.tmask = tmask
}

// ActiveWarps returns the number of active warps across all cores.
func (s *Sim) ActiveWarps() int {
	n := 0
	for i := range s.cores {
		n += s.cores[i].active
	}
	return n
}

// CoreStatsOf returns a copy of core's counters.
func (s *Sim) CoreStatsOf(core int) CoreStats { return s.cores[core].stats }

// TotalStats sums counters over cores.
func (s *Sim) TotalStats() CoreStats {
	var t CoreStats
	for i := range s.cores {
		cs := &s.cores[i].stats
		t.Issued += cs.Issued
		t.LaneOps += cs.LaneOps
		t.Loads += cs.Loads
		t.Stores += cs.Stores
		t.LineRequests += cs.LineRequests
		t.MemStall += cs.MemStall
		t.ExecStall += cs.ExecStall
		t.IdleAfterEnd += cs.IdleAfterEnd
	}
	return t
}

const noWake = ^uint64(0)

// Run executes until every warp has retired. It returns a *Trap on
// execution errors and a deadline error if MaxCycles is exceeded. Cores are
// simulated by the event-driven device engine (event.go); an installed
// observer (SetObserver) receives per-issue callbacks in the global
// (cycle, core) issue order.
func (s *Sim) Run() error { return s.runEvent() }

// accountStall charges n stall cycles of core c to the reason of its last
// failed issue attempt: MemStall when blockMem, else ExecStall.
func (s *Sim) accountStall(c *simCore, n uint64) {
	if c.blockMem {
		c.stats.MemStall += n
	} else {
		c.stats.ExecStall += n
	}
}

func (s *Sim) deadlockTrap() error {
	for i := range s.cores {
		c := &s.cores[i]
		for wid := range c.warps {
			w := &c.warps[wid]
			if w.active && w.barWait {
				return &Trap{Cycle: s.cycle, Core: i, Warp: wid, PC: w.pc,
					Reason: "deadlock: warp waiting on a barrier that can never fill"}
			}
		}
	}
	return &Trap{Cycle: s.cycle, Reason: "deadlock: active warps but no schedulable event"}
}

// lsuReadyAt returns the earliest cycle core c's LSU can accept a memory
// instruction: the port-busy deadline (lsuFree) joined with the L1 MSHR
// bound when one is configured. With MSHRs unbounded (the default) it is
// exactly lsuFree. Like the LSU deadline, the result is a lower bound the
// scheduler re-checks on wake.
func (s *Sim) lsuReadyAt(c *simCore) uint64 {
	at := c.lsuFree
	if s.mshrs > 0 {
		if free := s.mshrFreeAt(c); free > at {
			at = free
		}
	}
	return at
}

// mshrFreeAt purges retired MSHR entries (completion at or before the
// current cycle) and returns the earliest cycle a new miss could allocate
// one: the current cycle when a slot is free, else the earliest outstanding
// completion. The latter is a lower bound — several entries may retire at
// that cycle or none may free a slot ahead of still-later ones — which is
// sound because a core's occupancy only falls while its warps are blocked
// (entries are added only when the core itself issues a memory op), and
// the scheduler re-checks the gate at the woken cycle, exactly as it does
// for the moving lsuFree deadline.
func (s *Sim) mshrFreeAt(c *simCore) uint64 {
	q := c.mshr[:0]
	min := noWake
	for _, d := range c.mshr {
		if d > s.cycle {
			q = append(q, d)
			if d < min {
				min = d
			}
		}
	}
	c.mshr = q
	if len(q) < s.mshrs {
		return s.cycle
	}
	return min
}
