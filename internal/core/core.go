// Package core implements the paper's contribution: hardware-aware, runtime
// selection of the OpenCL local_work_size (lws) for Vortex-style GPGPUs.
//
// The Vortex runtime turns an NDRange of gws work items into gws/lws
// workgroup tasks and distributes them over hp = cores x warps x threads
// hardware thread slots. Eq. 1 of the paper picks the lws that fills every
// slot exactly once:
//
//	lws = gws / hp,   hp = cores x warps x threads
//
// evaluated at runtime from the device's micro-architecture parameters, so
// the programmer never specifies it. The package also provides the baseline
// mappers the paper compares against (naive lws=1 and fixed lws=32) and the
// three-regime taxonomy of Section 2.
package core

import (
	"fmt"
	"strconv"
)

// HWInfo is the runtime-visible micro-architecture of a device.
type HWInfo struct {
	Cores   int
	Warps   int // per core
	Threads int // per warp
}

// HP is the hardware parallelism: total thread slots (Eq. 1 denominator).
func (h HWInfo) HP() int { return h.Cores * h.Warps * h.Threads }

// Name renders the paper's compact notation, e.g. "4c8w16t".
func (h HWInfo) Name() string { return string(h.AppendName(make([]byte, 0, 16))) }

// AppendName appends Name's spelling of h to b.
func (h HWInfo) AppendName(b []byte) []byte {
	b = strconv.AppendInt(b, int64(h.Cores), 10)
	b = append(b, 'c')
	b = strconv.AppendInt(b, int64(h.Warps), 10)
	b = append(b, 'w')
	b = strconv.AppendInt(b, int64(h.Threads), 10)
	return append(b, 't')
}

// Valid reports whether the geometry is positive.
func (h HWInfo) Valid() bool { return h.Cores > 0 && h.Warps > 0 && h.Threads > 0 }

// OptimalLWS evaluates Eq. 1 with the paper's clamping: when hp exceeds gws
// the division resolves to lws=1 (every work item gets its own slot), and a
// non-dividing gws/hp rounds up so a single batch still covers all work.
func OptimalLWS(gws int, hw HWInfo) int {
	if gws <= 0 || !hw.Valid() {
		return 1
	}
	hp := hw.HP()
	if hp >= gws {
		return 1
	}
	return ceilDiv(gws, hp)
}

// Tasks returns the number of workgroup tasks an NDRange produces.
func Tasks(gws, lws int) int {
	if lws < 1 {
		lws = 1
	}
	return ceilDiv(gws, lws)
}

// Batches returns how many sequential rounds of hp tasks the launch needs
// (the "multiple kernel calls" of the paper's lws=1 scenario).
func Batches(gws, lws int, hw HWInfo) int {
	if !hw.Valid() {
		return 0
	}
	return ceilDiv(Tasks(gws, lws), hw.HP())
}

// Regime classifies an (lws, gws, hw) combination per Section 2.
type Regime uint8

const (
	// RegimeUnder: lws < gws/hp — more tasks than slots; sequential
	// batches with per-batch software overhead.
	RegimeUnder Regime = iota
	// RegimeExact: lws = gws/hp — one task per slot, single batch.
	RegimeExact
	// RegimeOver: lws > gws/hp — fewer tasks than slots; idle hardware.
	RegimeOver
)

func (r Regime) String() string {
	switch r {
	case RegimeUnder:
		return "under (multiple batches)"
	case RegimeExact:
		return "exact (single full batch)"
	case RegimeOver:
		return "over (under-utilized)"
	}
	return fmt.Sprintf("regime(%d)", uint8(r))
}

// RegimeOf returns the regime of a concrete launch.
func RegimeOf(gws, lws int, hw HWInfo) Regime {
	tasks := Tasks(gws, lws)
	hp := hw.HP()
	switch {
	case tasks > hp:
		return RegimeUnder
	case tasks == hp || lws == OptimalLWS(gws, hw):
		return RegimeExact
	default:
		return RegimeOver
	}
}

// Mapper chooses an lws for a launch. The simulated runtime consults it
// whenever the host passes lws=0 (auto).
type Mapper interface {
	Name() string
	LWS(gws int, hw HWInfo) int
}

// Naive is the paper's lws=1 baseline: never unroll the kernel temporally
// over one thread.
type Naive struct{}

func (Naive) Name() string        { return "lws=1" }
func (Naive) LWS(int, HWInfo) int { return 1 }

// Fixed is the paper's hardware-agnostic fixed baseline (lws=32 in Fig. 2).
type Fixed struct{ N int }

func (f Fixed) Name() string { return fmt.Sprintf("lws=%d", f.N) }
func (f Fixed) LWS(gws int, _ HWInfo) int {
	if f.N < 1 {
		return 1
	}
	return f.N
}

// Auto is the paper's mapper: Eq. 1 evaluated at runtime.
type Auto struct{}

func (Auto) Name() string               { return "ours" }
func (Auto) LWS(gws int, hw HWInfo) int { return OptimalLWS(gws, hw) }

// PaperMappers returns Figure 2's three mappings in report order: the lws=1
// and lws=32 baselines, then Eq. 1.
func PaperMappers() []Mapper { return []Mapper{Naive{}, Fixed{N: 32}, Auto{}} }

// OracleMappers returns the empirical search's candidates, the same for
// every launch: lws = 2^0 … 2^12, then Eq. 1. A campaign over them measures
// how far Eq. 1 lands from the fastest candidate. An lws above gws is a
// legal launch: its one workgroup leaves the other slots idle.
func OracleMappers() []Mapper {
	out := []Mapper{Naive{}}
	for lws := 2; lws <= 1<<12; lws *= 2 {
		out = append(out, Fixed{N: lws})
	}
	return append(out, Auto{})
}

// ParseMapper returns the paper mapper a name selects: its Name, or the
// alias auto (ours), naive (lws=1) or fixed (lws=32).
func ParseMapper(name string) (Mapper, error) {
	switch name {
	case "auto":
		name = "ours"
	case "naive":
		name = "lws=1"
	case "fixed":
		name = "lws=32"
	}
	for _, m := range PaperMappers() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown mapper %q", name)
}

// Advice is a tuning report for one prospective launch.
type Advice struct {
	LWS         int
	Tasks       int
	Batches     int
	Regime      Regime
	SlotsFilled int // hardware slots that receive at least one task
	Explanation string
}

// Advise explains the Eq. 1 decision for a launch, including the expected
// occupancy, for tooling.
func Advise(gws int, hw HWInfo) Advice {
	lws := OptimalLWS(gws, hw)
	tasks := Tasks(gws, lws)
	hp := hw.HP()
	filled := tasks
	if filled > hp {
		filled = hp
	}
	a := Advice{
		LWS:         lws,
		Tasks:       tasks,
		Batches:     Batches(gws, lws, hw),
		Regime:      RegimeOf(gws, lws, hw),
		SlotsFilled: filled,
	}
	switch {
	case hp >= gws:
		a.Explanation = fmt.Sprintf(
			"hardware parallelism hp=%d >= gws=%d: Eq. 1 resolves to lws=1; each work item gets its own thread slot (%d of %d slots used)",
			hp, gws, filled, hp)
	case gws%hp == 0:
		a.Explanation = fmt.Sprintf(
			"lws = gws/hp = %d/%d = %d: all %d slots receive exactly one workgroup in a single batch",
			gws, hp, lws, hp)
	default:
		a.Explanation = fmt.Sprintf(
			"gws=%d does not divide by hp=%d: lws = ceil(gws/hp) = %d keeps a single batch with %d of %d slots filled",
			gws, hp, lws, filled, hp)
	}
	return a
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ParseName parses the compact configuration notation ("4c8w16t") back
// into an HWInfo. It takes only the spelling Name writes: a sign, a leading
// zero, a space or trailing input would otherwise name a config other than
// the one that runs.
func ParseName(s string) (HWInfo, error) {
	var h HWInfo
	if _, err := fmt.Sscanf(s, "%dc%dw%dt", &h.Cores, &h.Warps, &h.Threads); err != nil {
		return HWInfo{}, fmt.Errorf("core: bad config %q (want e.g. 4c8w16t): %v", s, err)
	}
	if !h.Valid() {
		return HWInfo{}, fmt.Errorf("core: non-positive geometry %q", s)
	}
	if h.Name() != s {
		return HWInfo{}, fmt.Errorf("core: bad config %q (want e.g. %s)", s, h.Name())
	}
	return h, nil
}
