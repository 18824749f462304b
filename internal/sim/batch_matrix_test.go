package sim_test

// Kernel-level half of the lockstep-batch harness: registry kernels run
// end-to-end through the OpenCL-style runtime, whose launcher starts whole
// batches of warps at the kernel entry. The default device (ready-set/wake-
// heap scheduler on the event engine) must produce byte-identical launch
// reports — including the MemStall/ExecStall/IdleAfterEnd attribution — and
// memory-system state to the fully legacy stack, the scan issue loop on the
// tick loop, under each policy the scan loop implements; every run's output
// is verified against the kernel's CPU reference.
//
// internal/sim/batch_test.go and batch_mem_test.go pin the same property at
// the bare-simulator level (all four policies, traps, the observer stream,
// lockstep edge cases).

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func runBatchKernel(t *testing.T, name string, sched sim.SchedPolicy, legacy bool) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.Sched = sched
	cfg.ScanSched, cfg.TickEngine = legacy, legacy
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("%s scan+tick=%v", sched, legacy))
}

// diffBatchKernel diffs one kernel on the default device against the
// scan-on-tick oracle under sched.
func diffBatchKernel(t *testing.T, name string, sched sim.SchedPolicy) {
	t.Helper()
	if testing.Short() && !cheapMatrixKernels[name] {
		t.Skip("short mode: batch matrix runs the cheap kernels only")
	}
	diffKernelRuns(t, fmt.Sprintf("%s/%s/scan-tick-vs-default", name, sched),
		runBatchKernel(t, name, sched, true), runBatchKernel(t, name, sched, false))
}

// TestBatchKernelMatrix runs the kernel-level lockstep differential under
// the round-robin policy.
func TestBatchKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) { diffBatchKernel(t, name, sim.SchedRoundRobin) })
	}
}

// TestBatchMemKernelMatrix runs it under greedy-then-oldest, which keeps
// one warp issuing until it stalls, typically on memory — so the batch's
// loads and stores reach the LSU and the hierarchy in a different
// interleaving than under round-robin.
func TestBatchMemKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) { diffBatchKernel(t, name, sim.SchedGTO) })
	}
}
