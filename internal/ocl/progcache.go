package ocl

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/sim"
)

// CacheCounters reports hit/miss totals of one runtime cache.
type CacheCounters struct {
	Hits   uint64
	Misses uint64
}

// launchSymbols are the wrapper's geometry constants (see wrapperHead), in
// the order of a geometry. They are the only assembler symbols that change
// from launch to launch; ARGBASE and the kernel's defines do not.
var launchSymbols = []string{"NTASKS", "TPC", "TPW", "WT", "GWS", "LWS"}

// geometry holds the values of launchSymbols for one launch.
type geometry [6]int64

// launchGeometry maps gws work items in workgroups of lws onto cfg: the
// ceil(gws/lws) tasks split into contiguous chunks of ceil(tasks/cores).
func launchGeometry(gws, lws int, cfg sim.Config) geometry {
	ntasks := core.Tasks(gws, lws)
	tpc := (ntasks + cfg.Cores - 1) / cfg.Cores
	return geometry{int64(ntasks), int64(tpc), int64(cfg.Threads), int64(cfg.Warps * cfg.Threads), int64(gws), int64(lws)}
}

// program is the launch template of one kernel source (name, body and
// defines) for one shape: the sizes of the statements that read a launch
// symbol, in practice which wrapper `li`s need lui+addi. Every geometry of
// that shape is an asm.Template instance, byte-identical to assembling the
// wrapper with that geometry as defines.
type program struct {
	name, body string
	defs       map[string]int64
	t          *asm.Template
	gen        uint64 // the ResetProgramCache generation that built it
}

func (p *program) builds(src KernelSource) bool {
	return p.name == src.Name && p.body == src.Body && maps.Equal(p.defs, src.Defs)
}

// programs holds the process's launch templates by kernel name, each
// built once: templates are immutable, so devices and concurrent sweep
// workers share them. Their number grows with kernels x shapes, not with
// grid points.
var programs = struct {
	sync.Mutex
	byName            map[string][]*program
	hits, misses, gen atomic.Uint64
}{byName: map[string][]*program{}}

// ProgramCacheStats returns process-wide launch-template counters: Misses
// counts templates built, Hits launches served by one already built.
func ProgramCacheStats() CacheCounters {
	return CacheCounters{Hits: programs.hits.Load(), Misses: programs.misses.Load()}
}

// ResetProgramCache drops every launch template and zeroes the counters
// (cold-path benchmarks and tests); a device's resident program no longer
// counts, so the next launch builds again.
func ResetProgramCache() {
	programs.Lock()
	defer programs.Unlock()
	programs.byName = map[string][]*program{}
	programs.gen.Add(1)
	programs.hits.Store(0)
	programs.misses.Store(0)
}

// launchProgram writes the program of src at geometry g into p from the
// template of g's shape, building that template on first use.
func launchProgram(src KernelSource, g *geometry, p *asm.Program) (*program, error) {
	programs.Lock()
	defer programs.Unlock()
	list := programs.byName[src.Name]
	for _, e := range list {
		if e.builds(src) && e.t.Instance(p, g[:]) {
			programs.hits.Add(1)
			return e, nil
		}
	}
	defs := map[string]int64{"ARGBASE": int64(ArgBase)}
	for name, v := range src.Defs {
		if _, dup := defs[name]; dup || slices.Contains(launchSymbols, name) {
			return nil, fmt.Errorf("ocl: kernel %q redefines reserved symbol %q", src.Name, name)
		}
		defs[name] = v
	}
	t, err := asm.NewTemplate(wrapperHead+src.Body+wrapperTail, CodeBase, defs, launchSymbols, g[:])
	if err != nil {
		return nil, fmt.Errorf("ocl: kernel %q: %w", src.Name, err)
	}
	if !t.Instance(p, g[:]) {
		return nil, fmt.Errorf("ocl: kernel %q: template refuses its own geometry", src.Name)
	}
	e := &program{name: src.Name, body: src.Body, defs: maps.Clone(src.Defs), t: t, gen: programs.gen.Load()}
	programs.byName[src.Name] = append(list, e)
	programs.misses.Add(1)
	return e, nil
}
