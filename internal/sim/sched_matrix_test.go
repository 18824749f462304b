package sim_test

// Kernel-level half of the scheduler harness: every registry kernel, run
// end-to-end through the OpenCL-style runtime under the rr and gto
// policies, is held to its golden_digests.json cell. golden_test.go pins
// every policy on both golden geometries.
//
// internal/sim/sched_test.go pins the same property at the bare-simulator
// level (including the stall-attribution fold).

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func TestSchedulerKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			for _, sched := range []sim.SchedPolicy{sim.SchedRoundRobin, sim.SchedGTO} {
				if testing.Short() && sched != sim.SchedRoundRobin && !cheapMatrixKernels[name] {
					continue
				}
				cfg := sim.DefaultConfig(4, 8, 8)
				cfg.Sched = sched
				checkGoldenCell(t, name, cfg)
			}
		})
	}
}
