package sim_test

// Timing lower bounds: closed-form floors on a launch's SimCycles derived
// from the model, not from frozen digests of itself. Every core issues at
// most one instruction per cycle, and its load-store unit sends at most
// LSUPorts line requests per cycle, so a launch that ends sooner than
// either allows has skipped a structural gate.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// launchBounds checks every launch of kernel, built and run verified on d
// with the device's mapper choosing lws, against the per-core bounds:
//
//   - issue: the core's issued instructions. A run ends on the cycle after
//     its last issue, and a core issues at most once per cycle.
//   - LSU: ceil(lines/LSUPorts) - (ceil(Threads/LSUPorts) - 1), lines being
//     the core's line requests. A memory instruction of L lines occupies
//     the LSU for ceil(L/LSUPorts) cycles from its issue cycle, and the next
//     one issues only after that, so the last one issues at least
//     ceil(lines/LSUPorts) - ceil(L_last/LSUPorts) cycles after the launch
//     starts. The LSU may still be busy with the last instruction's lines
//     when the last warp retires; an instruction has at most one line per
//     lane, so that slack is at most ceil(Threads/LSUPorts) - 1 cycles.
//
// A violation names the bound, the cell, the launch and core, and both
// numbers. It returns the largest share of SimCycles each bound reached.
func launchBounds(t *testing.T, cell string, d *ocl.Device, kernel string) (issue, lsu float64) {
	t.Helper()
	spec, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg, s := d.Config(), d.Sim()
	ports := uint64(cfg.LSUPorts)
	slack := (uint64(cfg.Threads)+ports-1)/ports - 1
	before := make([]sim.CoreStats, cfg.Cores)
	for i, l := range c.Launches {
		for k := range before {
			before[k] = s.CoreStatsOf(k)
		}
		lr, err := d.EnqueueNDRange(l.Kernel, l.GWS, 0)
		if err != nil {
			t.Fatalf("%s launch %d: %v", cell, i, err)
		}
		for k := range before {
			st := s.CoreStatsOf(k)
			issued := st.Issued - before[k].Issued
			lines := st.LineRequests - before[k].LineRequests
			lsuBound := uint64(0)
			if lsuCycles := (lines + ports - 1) / ports; lsuCycles > slack {
				lsuBound = lsuCycles - slack
			}
			if issued > lr.SimCycles {
				t.Errorf("%s launch %d core %d: SimCycles %d below the issue bound %d (issued instructions)",
					cell, i, k, lr.SimCycles, issued)
			}
			if lsuBound > lr.SimCycles {
				t.Errorf("%s launch %d core %d: SimCycles %d below the LSU bound %d (ceil(%d lines / %d ports) - %d cycles of slack)",
					cell, i, k, lr.SimCycles, lsuBound, lines, ports, slack)
			}
			issue = max(issue, float64(issued)/float64(lr.SimCycles))
			lsu = max(lsu, float64(lsuBound)/float64(lr.SimCycles))
		}
	}
	if err := c.Verify(d); err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	return issue, lsu
}

// TestLaunchTimingBounds holds every golden cell, and a small all-kernel
// campaign under the paper's three mappers, to the issue and LSU bounds.
// The campaign adds the widest warps of the grid, an MSHR-bounded L1, and
// a one-port LSU beside each default one: at the default eight ports no
// launch reaches half its LSU bound, at one port several reach 0.98 of it,
// and an engine that skips the LSU busy gate falls below it.
func TestLaunchTimingBounds(t *testing.T) {
	var issue, lsu float64
	note := func(i, l float64) { issue, lsu = max(issue, i), max(lsu, l) }
	for _, cell := range goldenCells(t) {
		d, err := ocl.NewDevice(cell.cfg)
		if err != nil {
			t.Fatal(err)
		}
		note(launchBounds(t, cell.key, d, cell.kernel))
	}

	var configs []sim.Config
	for _, name := range []string{"1c2w32t", "2c4w16t", "8c2w4t"} {
		hw, err := core.ParseName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
		narrow := cfg
		narrow.LSUPorts = 1
		configs = append(configs, cfg, narrow)
	}
	configs[2].Mem.L1.MSHRs = 2
	for _, cfg := range configs {
		for _, m := range core.PaperMappers() {
			for _, kernel := range kernels.Names() {
				d, err := ocl.NewDevice(cfg)
				if err != nil {
					t.Fatal(err)
				}
				d.SetMapper(m)
				cell := fmt.Sprintf("%s/ports=%d/mshrs=%d/%s/%s", cfg.Name(), cfg.LSUPorts, cfg.Mem.L1.MSHRs, kernel, m.Name())
				note(launchBounds(t, cell, d, kernel))
			}
		}
	}
	t.Logf("closest approach: issue bound %.3f, LSU bound %.3f of SimCycles", issue, lsu)
}
