package sim_test

// Shared fixtures of the kernel-level differential matrices: registry
// kernels run end-to-end through the OpenCL-style runtime (an external test
// package, because internal/ocl imports internal/sim).

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// cheapMatrixKernels are the registry kernels the matrices still run under
// -short.
var cheapMatrixKernels = map[string]bool{"vecadd": true, "relu": true, "saxpy": true}

// kernelRun is everything a launch sequence exposes, plus the final
// memory-system state down to individual banks and channels.
type kernelRun struct {
	launches []*ocl.LaunchResult
	banks    []mem.CacheStats
	channels []mem.DRAMStats
}

// runMatrixKernelCfg runs one registry kernel end-to-end on an explicit
// configuration, verifying its output against the CPU reference.
func runMatrixKernelCfg(t *testing.T, name string, cfg sim.Config, label string) kernelRun {
	t.Helper()
	spec, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ocl.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunVerified(d, 0)
	if err != nil {
		t.Fatalf("%s %s: %v", name, label, err)
	}
	h := d.Sim().Hierarchy()
	run := kernelRun{launches: res.Launches}
	for b := 0; b < h.L2Banks(); b++ {
		run.banks = append(run.banks, h.L2BankStats(b))
	}
	for ch := 0; ch < h.DRAMChannels(); ch++ {
		run.channels = append(run.channels, h.DRAMChannelStats(ch))
	}
	return run
}

// diffKernelRuns reports every field in which got departs from want.
func diffKernelRuns(t *testing.T, name string, want, got kernelRun) {
	t.Helper()
	if len(want.launches) != len(got.launches) {
		t.Fatalf("%s: launch count differs: %d vs %d", name, len(want.launches), len(got.launches))
	}
	for i := range want.launches {
		a, b := want.launches[i], got.launches[i]
		if a.SimCycles != b.SimCycles {
			t.Errorf("%s launch %d: cycles %d vs %d", name, i, a.SimCycles, b.SimCycles)
		}
		if a.Stats != b.Stats {
			t.Errorf("%s launch %d: core stats differ:\nwant %+v\ngot  %+v", name, i, a.Stats, b.Stats)
		}
		if a.L1 != b.L1 {
			t.Errorf("%s launch %d: L1 stats differ:\nwant %+v\ngot  %+v", name, i, a.L1, b.L1)
		}
		if a.L2 != b.L2 {
			t.Errorf("%s launch %d: L2 stats differ:\nwant %+v\ngot  %+v", name, i, a.L2, b.L2)
		}
		if a.DRAM != b.DRAM {
			t.Errorf("%s launch %d: DRAM stats differ:\nwant %+v\ngot  %+v", name, i, a.DRAM, b.DRAM)
		}
	}
	for b := range want.banks {
		if want.banks[b] != got.banks[b] {
			t.Errorf("%s: L2 bank %d stats differ:\nwant %+v\ngot  %+v", name, b, want.banks[b], got.banks[b])
		}
	}
	for ch := range want.channels {
		if want.channels[ch] != got.channels[ch] {
			t.Errorf("%s: DRAM channel %d stats differ:\nwant %+v\ngot  %+v", name, ch, want.channels[ch], got.channels[ch])
		}
	}
}
