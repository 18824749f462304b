package sim_test

// Kernel-level half of the memory-axis harness: registry kernels run
// end-to-end through the OpenCL-style runtime at non-default memory grid
// points (MSHR bound, L1 geometry, next-line prefetch), each held to its
// frozen digest in testdata/engine_digests.json — launch cycles, stall
// attribution, memory-system state with the prefetch counters, and the
// observer stream.
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

// memMatrixConfig is the kernel matrix's device at memory point pt.
func memMatrixConfig(t *testing.T, pt int) sim.Config {
	t.Helper()
	p := memMatrixPoints[pt]
	cfg := sim.DefaultConfig(4, 8, 8)
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
	return cfg
}

func TestMemAxisKernelMatrix(t *testing.T) {
	kernels := []string{"vecadd", "saxpy", "sgemm"}
	if testing.Short() {
		kernels = []string{"vecadd"}
	}
	for _, name := range kernels {
		for pt := range memMatrixPoints {
			t.Run(fmt.Sprintf("%s/%s", name, memMatrixPoints[pt].name), func(t *testing.T) {
				sim.CheckEngineDigest(t, "", kernelDigest(t, name, memMatrixConfig(t, pt)))
			})
		}
	}
}
