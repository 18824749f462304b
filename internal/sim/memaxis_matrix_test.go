package sim_test

// Kernel-level half of the memory-axis differential harness: registry
// kernels run end-to-end through the OpenCL-style runtime at non-default
// memory grid points (MSHR bound, L1 geometry, next-line prefetch). At each
// point the tick loop is the oracle; the event engine must produce
// byte-identical launch reports and memory-system state, prefetch counters
// included.
// internal/sim/memaxis_test.go pins the same property at the bare-sim
// level; internal/sweep/mem_axis_test.go at sweep-record level.

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// memMatrixPoints are the non-default memory points the kernel matrix
// runs; the all-defaults point is the engine matrix's existing territory.
var memMatrixPoints = []struct {
	name     string
	mshrs    int
	l1       string
	prefetch mem.PrefetchPolicy
}{
	{name: "mshrs=4", mshrs: 4},
	{name: "l1=8k2w", l1: "8k2w"},
	{name: "prefetch=nextline", prefetch: mem.PrefetchNextLine},
	{name: "mshrs=2/l1=8k2w/prefetch=nextline", mshrs: 2, l1: "8k2w", prefetch: mem.PrefetchNextLine},
}

func runMemAxisKernel(t *testing.T, name string, pt int, tick bool) kernelRun {
	t.Helper()
	p := memMatrixPoints[pt]
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.TickEngine = tick
	cfg.Mem.L1.MSHRs = p.mshrs
	cfg.Mem.L2.MSHRs = p.mshrs
	if p.l1 != "" {
		size, ways, err := mem.ParseL1Geometry(p.l1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mem.L1.SizeBytes = size
		cfg.Mem.L1.Ways = ways
	}
	cfg.Mem.Prefetch = p.prefetch
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("%s tick=%v", p.name, tick))
}

func TestMemAxisKernelMatrix(t *testing.T) {
	kernels := []string{"vecadd", "saxpy", "sgemm"}
	if testing.Short() {
		kernels = []string{"vecadd"}
	}
	for _, name := range kernels {
		for pt := range memMatrixPoints {
			t.Run(fmt.Sprintf("%s/%s", name, memMatrixPoints[pt].name), func(t *testing.T) {
				diffKernelRuns(t, name+"/tick-vs-event", runMemAxisKernel(t, name, pt, true), runMemAxisKernel(t, name, pt, false))
			})
		}
	}
}
