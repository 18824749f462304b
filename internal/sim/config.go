// Package sim implements a cycle-level simulator of a Vortex-like SIMT
// GPGPU: a grid of cores, each hosting a set of warps with per-thread
// register files, an in-order single-issue pipeline with a register
// scoreboard, IPDOM-stack branch divergence (vx_split/vx_join), core-local
// barriers, warp control (vx_tmc/vx_wspawn), and a shared memory hierarchy
// with per-warp access coalescing.
//
// Timing model: each core issues at most one instruction per cycle from one
// ready warp, chosen by a pluggable scheduling policy (round-robin,
// greedy-then-oldest, oldest-first or two-level; see sched.go). Instructions execute
// functionally at issue; destination registers become visible after the
// functional-unit latency, enforced by the scoreboard. Memory instructions
// coalesce lane addresses into line requests processed one per LSU cycle and
// timed by the mem.Hierarchy.
package sim

import (
	"fmt"

	"repro/internal/mem"
)

// SchedPolicy selects the warp scheduling policy of a core. The policies
// themselves (issue-priority semantics, the ready-set/wake-heap engine that
// drives them, and the legacy scan oracle) live in sched.go.
type SchedPolicy uint8

const (
	// SchedRoundRobin rotates issue priority over warps each cycle.
	SchedRoundRobin SchedPolicy = iota
	// SchedGTO keeps issuing the same warp until it stalls, then switches
	// to the next ready warp in scan order (greedy-then-oldest).
	SchedGTO
	// SchedOldestFirst issues the ready warp that has gone longest without
	// issuing (earliest last-issue cycle, lowest warp id on ties).
	SchedOldestFirst
	// SchedTwoLevel partitions warps into fetch groups of eight and
	// round-robins within the active group, switching groups only when no
	// warp of the active group is ready — keeping the groups' memory
	// accesses staggered (two-level warp scheduling).
	SchedTwoLevel
)

func (s SchedPolicy) String() string {
	switch s {
	case SchedRoundRobin:
		return "rr"
	case SchedGTO:
		return "gto"
	case SchedOldestFirst:
		return "oldest"
	case SchedTwoLevel:
		return "2lev"
	}
	return fmt.Sprintf("sched(%d)", uint8(s))
}

// SchedPolicies lists every scheduling policy, in enum order.
func SchedPolicies() []SchedPolicy {
	return []SchedPolicy{SchedRoundRobin, SchedGTO, SchedOldestFirst, SchedTwoLevel}
}

// ParseSchedPolicy resolves a policy name as printed by
// SchedPolicy.String ("rr", "gto", "oldest", "2lev").
func ParseSchedPolicy(name string) (SchedPolicy, error) {
	for _, p := range SchedPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scheduler policy %q (want rr, gto, oldest or 2lev)", name)
}

// Latencies holds functional-unit latencies in cycles (from issue to the
// cycle the destination register may be consumed).
type Latencies struct {
	ALU   int
	Mul   int
	Div   int
	FAdd  int // also FSub, FMin/FMax, sign injections, compares, moves
	FMul  int
	FMA   int
	FDiv  int
	FSqrt int
}

// DefaultLatencies returns the DESIGN.md defaults.
func DefaultLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 3, Div: 16, FAdd: 4, FMul: 4, FMA: 4, FDiv: 16, FSqrt: 16}
}

// Config describes one device configuration.
type Config struct {
	Cores   int
	Warps   int // warps per core
	Threads int // threads (lanes) per warp

	Mem   mem.HierarchyConfig
	Lat   Latencies
	Sched SchedPolicy

	// ScanSched selects the legacy O(Warps) scan issue loop instead of the
	// ready-set/wake-heap scheduler engine. The scan implements only the
	// rr and gto policies and is retained as the differential-test oracle
	// (the heap engine is byte-identical to it; see internal/sim/README.md).
	ScanSched bool

	// TickEngine selects the legacy per-cycle tick loop instead of the
	// event-driven device engine (event.go): every cycle visits every core
	// with active warps, if only to account a stall and min-reduce its wake
	// time. The tick loop is retained as the differential-test oracle — the
	// event engine is byte-identical to it in every simulated observable
	// (device cycles, statistics, stall attribution, observer stream; see
	// internal/sim/README.md) — and composes with every scheduler policy
	// and ScanSched.
	TickEngine bool

	// LSUPorts is the number of cache-line requests the load-store unit
	// can issue per cycle (the banked L1 of Vortex services lanes hitting
	// distinct banks in parallel). Uncoalesced warp accesses occupy the
	// LSU for ceil(lines/LSUPorts) cycles.
	LSUPorts int

	// MaxCycles aborts runaway simulations; 0 means a generous default.
	MaxCycles uint64
}

// DefaultConfig returns the default device: cores x warps x threads with the
// standard memory hierarchy and latencies.
func DefaultConfig(cores, warps, threads int) Config {
	m := mem.DefaultHierarchyConfig()
	// Memory channels scale with core count (Vortex widens its memory
	// interface with the number of clusters), so large devices are not
	// artificially bandwidth-starved.
	m.DRAM.Channels = cores
	return Config{
		Cores:    cores,
		Warps:    warps,
		Threads:  threads,
		Mem:      m,
		Lat:      DefaultLatencies(),
		Sched:    SchedRoundRobin,
		LSUPorts: 8,
	}
}

// Validate checks structural limits (thread masks are 64-bit).
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Warps <= 0 || c.Threads <= 0 {
		return fmt.Errorf("sim: non-positive geometry %s", c.Name())
	}
	if c.Threads > 64 {
		return fmt.Errorf("sim: threads per warp %d exceeds 64 (mask width)", c.Threads)
	}
	if c.Warps > 64 {
		// Barrier waiter masks and the scheduler's ready set are 64-bit
		// warp masks (the sweep grid tops out at 32 warps).
		return fmt.Errorf("sim: warps per core %d exceeds 64 (warp-mask width)", c.Warps)
	}
	if _, err := ParseSchedPolicy(c.Sched.String()); err != nil {
		return err
	}
	if c.ScanSched && c.Sched != SchedRoundRobin && c.Sched != SchedGTO {
		return fmt.Errorf("sim: the scan-oracle issue loop implements only rr and gto, not %s", c.Sched)
	}
	if c.Lat == (Latencies{}) {
		return fmt.Errorf("sim: zero latencies; use DefaultLatencies")
	}
	if err := c.Lat.validate(); err != nil {
		return err
	}
	if c.Mem.L1.MSHRs < 0 {
		return fmt.Errorf("sim: negative L1 MSHR count %d", c.Mem.L1.MSHRs)
	}
	if c.Mem.L2.MSHRs < 0 {
		return fmt.Errorf("sim: negative L2 MSHR count %d", c.Mem.L2.MSHRs)
	}
	if _, err := mem.ParsePrefetchPolicy(c.Mem.Prefetch.String()); err != nil {
		return err
	}
	if c.LSUPorts < 1 {
		return fmt.Errorf("sim: LSUPorts %d must be at least 1", c.LSUPorts)
	}
	return nil
}

// HP returns the hardware parallelism: total thread slots of the device
// (Eq. 1 of the paper: hp = cores x warps x threads).
func (c Config) HP() int { return c.Cores * c.Warps * c.Threads }

// Name renders the paper's compact configuration notation, e.g. "4c8w16t".
func (c Config) Name() string { return fmt.Sprintf("%dc%dw%dt", c.Cores, c.Warps, c.Threads) }

// max returns the longest functional-unit latency: a stall that clears
// later than that is waiting on memory, not on a functional unit.
func (l Latencies) max() int {
	m := l.ALU
	for _, v := range []int{l.Mul, l.Div, l.FAdd, l.FMul, l.FMA, l.FDiv, l.FSqrt} {
		if v > m {
			m = v
		}
	}
	return m
}

// validate refuses negative latencies: a result would complete before the
// cycle its instruction issues, and the unsigned completion cycle wraps.
func (l Latencies) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"ALU", l.ALU}, {"Mul", l.Mul}, {"Div", l.Div}, {"FAdd", l.FAdd}, {"FMul", l.FMul}, {"FMA", l.FMA}, {"FDiv", l.FDiv}, {"FSqrt", l.FSqrt}} {
		if f.v < 0 {
			return fmt.Errorf("sim: negative %s latency %d", f.name, f.v)
		}
	}
	return nil
}
