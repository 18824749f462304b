package sim_test

// Kernel-level half of the scheduler differential harness: every registry
// kernel, run end-to-end through the OpenCL-style runtime under the rr and
// gto policies, on the ready-set/wake-heap engine must produce
// byte-identical launch reports and memory-system state to the legacy scan
// oracle (Config.ScanSched). The heap-only policies (oldest, 2lev) have no
// oracle here; golden_test.go pins them on every kernel.
//
// internal/sim/sched_test.go pins the same property at the bare-simulator
// level (including the stall-attribution fold).

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func runSchedKernel(t *testing.T, name string, sched sim.SchedPolicy, scan bool) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.Sched = sched
	cfg.ScanSched = scan
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("%s scan=%v", sched, scan))
}

func TestSchedulerKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, sched := range []sim.SchedPolicy{sim.SchedRoundRobin, sim.SchedGTO} {
				if testing.Short() && sched != sim.SchedRoundRobin && !cheapMatrixKernels[name] {
					continue
				}
				label := fmt.Sprintf("%s/%s/heap-vs-scan", name, sched)
				diffKernelRuns(t, label, runSchedKernel(t, name, sched, true), runSchedKernel(t, name, sched, false))
			}
		})
	}
}
