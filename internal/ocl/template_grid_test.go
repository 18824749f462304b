package ocl_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestTemplateMatchesAssemble holds every launch program of the Figure 2
// campaign — the 450-configuration grid x the nine registry kernels x the
// three mappers, at scales 0.02 and 1 — to asm.Assemble of the wrapper with
// the launch geometry as defines: Words, Insts, Symbols, Tags and Lines.
// It also pins how few templates that takes: one per kernel and shape,
// where a shape is which wrapper li statements need lui+addi.
func TestTemplateMatchesAssemble(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles every distinct launch program of two full campaigns")
	}
	grid := sweep.Grid()
	mappers := []core.Mapper{core.Naive{}, core.Fixed{N: 32}, core.Auto{}}
	for _, scale := range []float64{0.02, 1} {
		ocl.ResetProgramCache()
		d, err := ocl.NewDevice(sim.DefaultConfig(1, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		type launch struct {
			k   *ocl.Kernel
			gws int
		}
		var launches []launch
		for _, spec := range kernels.Registry() {
			d.Reset()
			c, err := spec.Build(d, kernels.Params{Scale: scale, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range c.Launches {
				launches = append(launches, launch{l.Kernel, l.GWS})
			}
		}
		// A shape is which of the wrapper's six li statements fit one
		// word; the registry bodies read no launch symbol.
		shapes := map[string]bool{}
		seen := map[[4]int]bool{} // launch, lws, tasks per core, warps x threads
		programs := 0
		for li, l := range launches {
			src := l.k.Source()
			for _, hw := range grid {
				for _, m := range mappers {
					lws := m.LWS(l.gws, hw)
					ntasks := core.Tasks(l.gws, lws)
					tpc := (ntasks + hw.Cores - 1) / hw.Cores
					shape := fmt.Sprint(src.Name, src.Body, src.Defs)
					for _, v := range []int{ntasks, tpc, hw.Threads, hw.Warps * hw.Threads, l.gws, lws} {
						shape += fmt.Sprint(v <= 2047)
					}
					shapes[shape] = true
					key := [4]int{li, lws, tpc, hw.Warps<<16 | hw.Threads}
					if seen[key] {
						continue
					}
					seen[key] = true
					programs++
					got, err := ocl.LaunchProgram(l.k, l.gws, lws, hw)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ocl.AssembleLaunch(l.k, l.gws, lws, hw)
					if err != nil {
						t.Fatal(err)
					}
					if msg := diffPrograms(got, want); msg != "" {
						t.Fatalf("scale %v, %s gws=%d lws=%d on %v: %s", scale, l.k.Name(), l.gws, lws, hw, msg)
					}
				}
			}
		}
		built := ocl.ProgramCacheStats().Misses
		t.Logf("scale %v: %d launches, %d distinct programs, %d templates", scale, len(launches), programs, built)
		if built != uint64(len(shapes)) {
			t.Errorf("scale %v: %d templates built, want one per distinct (kernel, shape): %d", scale, built, len(shapes))
		}
	}
}

// diffPrograms names the first field in which two programs differ.
func diffPrograms(got, want *asm.Program) string {
	switch {
	case got.Base != want.Base:
		return "Base differs"
	case !slices.Equal(got.Words, want.Words):
		return "Words differ"
	case !slices.Equal(got.Insts, want.Insts):
		return "Insts differ"
	case !maps.Equal(got.Symbols, want.Symbols):
		return "Symbols differ"
	case !reflect.DeepEqual(got.Tags, want.Tags):
		return "Tags differ"
	case !slices.Equal(got.Lines, want.Lines):
		return "Lines differ"
	}
	return ""
}
