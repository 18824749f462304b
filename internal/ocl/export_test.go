package ocl

import (
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/sim"
)

// LaunchProgram returns the program EnqueueNDRange loads for k at (gws,
// lws) on a device of hw: an instance of the kernel's launch template.
func LaunchProgram(k *Kernel, gws, lws int, hw core.HWInfo) (*asm.Program, error) {
	g := launchGeometry(gws, lws, sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads))
	p := new(asm.Program)
	if _, err := launchProgram(k.src, &g, p); err != nil {
		return nil, err
	}
	return p, nil
}

// AssembleLaunch assembles the same program directly, with the launch
// geometry and ARGBASE as defines beside the kernel's own.
func AssembleLaunch(k *Kernel, gws, lws int, hw core.HWInfo) (*asm.Program, error) {
	g := launchGeometry(gws, lws, sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads))
	defs := map[string]int64{"ARGBASE": int64(ArgBase)}
	for i, name := range launchSymbols {
		defs[name] = g[i]
	}
	for name, v := range k.src.Defs {
		defs[name] = v
	}
	return asm.Assemble(wrapperHead+k.src.Body+wrapperTail, CodeBase, defs)
}

// Source returns the kernel's source.
func (k *Kernel) Source() KernelSource { return k.src }
