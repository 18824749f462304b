package ocl

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

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
// the order of a geometry. Each is read by exactly one `li`, at the label
// of its name prefixed with "__"; ARGBASE and the kernel's defines do not
// change from launch to launch.
var launchSymbols = [6]string{"NTASKS", "TPC", "TPW", "WT", "GWS", "LWS"}

// geometry holds the values of launchSymbols for one launch.
type geometry [6]int64

// launchGeometry maps gws work items in workgroups of lws onto cfg: the
// ceil(gws/lws) tasks split into contiguous chunks of ceil(tasks/cores).
func launchGeometry(gws, lws int, cfg sim.Config) geometry {
	ntasks := core.Tasks(gws, lws)
	tpc := (ntasks + cfg.Cores - 1) / cfg.Cores
	return geometry{int64(ntasks), int64(tpc), int64(cfg.Threads), int64(cfg.Warps * cfg.Threads), int64(gws), int64(lws)}
}

// shape returns which of g's values take lui+addi in their `li`: bit i is
// set when int32(g[i]) lies outside [-2048, 2047].
func (g *geometry) shape() (s uint8) {
	for i, v := range g {
		if int32(v) < -2048 || int32(v) > 2047 {
			s |= 1 << i
		}
	}
	return s
}

// program is the launch program of one kernel source (name, body and
// defines) for one shape, assembled at the first geometry of that shape
// and read-only after: a launch copies it and re-encodes the six launch
// lis at its own geometry (asm.Program.SetLI), which gives the program
// asm.Assemble gives with that geometry as defines.
type program struct {
	name, body string
	defs       map[string]int64
	shape      uint8
	prog       *asm.Program
	gen        uint64 // the ResetProgramCache generation that built it
}

func (p *program) builds(src KernelSource) bool {
	return p.name == src.Name && p.body == src.Body && maps.Equal(p.defs, src.Defs)
}

// programs holds the process's launch programs by kernel name, each built
// once and shared by devices and concurrent sweep workers. Their number
// grows with kernels x shapes, not with grid points.
var programs = struct {
	sync.Mutex
	byName            map[string][]*program
	hits, misses, gen atomic.Uint64
}{byName: map[string][]*program{}}

// ProgramCacheStats returns process-wide launch-program counters: Misses
// counts the (kernel source, shape) programs assembled, Hits launches
// served by one already built.
func ProgramCacheStats() CacheCounters {
	return CacheCounters{Hits: programs.hits.Load(), Misses: programs.misses.Load()}
}

// ResetProgramCache drops every launch program and zeroes the counters
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

// launchProgram writes the program of src at geometry g into p: its
// shape's program, copied and re-encoded at g outside the registry lock.
func launchProgram(src KernelSource, g *geometry, p *asm.Program) (*program, error) {
	e, err := shapeProgram(src, g)
	if err != nil {
		return nil, err
	}
	q := e.prog
	p.Base, p.Symbols, p.Tags, p.Lines = q.Base, q.Symbols, q.Tags, q.Lines
	p.Words = append(p.Words[:0], q.Words...)
	p.Insts = append(p.Insts[:0], q.Insts...)
	for i, name := range launchSymbols {
		if err := p.SetLI(q.Symbols["__"+name], g[i]); err != nil {
			return nil, fmt.Errorf("ocl: kernel %q: %s: %w", src.Name, name, err)
		}
	}
	return e, nil
}

// shapeProgram returns the program of src for g's shape, assembling it
// at g under the registry lock on first use, so each is built once.
func shapeProgram(src KernelSource, g *geometry) (*program, error) {
	shape := g.shape()
	programs.Lock()
	defer programs.Unlock()
	list := programs.byName[src.Name]
	for _, e := range list {
		if e.shape == shape && e.builds(src) {
			programs.hits.Add(1)
			return e, nil
		}
	}
	defs := map[string]int64{"ARGBASE": int64(ArgBase)}
	for i, name := range launchSymbols {
		defs[name] = g[i]
	}
	for name, v := range src.Defs {
		if _, dup := defs[name]; dup {
			return nil, fmt.Errorf("ocl: kernel %q redefines reserved symbol %q", src.Name, name)
		}
		defs[name] = v
	}
	// Only the wrapper's lis are re-encoded per launch: a body may not
	// name a launch symbol outside a comment.
	notSym := func(r rune) bool { return r != '_' && r != '.' && !unicode.IsLetter(r) && !unicode.IsDigit(r) }
	for _, line := range strings.Split(src.Body, "\n") {
		line, _, _ = strings.Cut(line, "#")
		line, _, _ = strings.Cut(line, "//")
		for _, f := range strings.FieldsFunc(line, notSym) {
			if slices.Contains(launchSymbols[:], f) {
				return nil, fmt.Errorf("ocl: kernel %q: the body names launch symbol %s", src.Name, f)
			}
		}
	}
	prog, err := asm.Assemble(wrapperHead+src.Body+wrapperTail, CodeBase, defs)
	if err != nil {
		return nil, fmt.Errorf("ocl: kernel %q: %w", src.Name, err)
	}
	e := &program{name: src.Name, body: src.Body, defs: maps.Clone(src.Defs), shape: shape, prog: prog, gen: programs.gen.Load()}
	programs.byName[src.Name] = append(list, e)
	programs.misses.Add(1)
	return e, nil
}
