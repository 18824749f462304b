package sim_test

// Kernel-level half of the lockstep-batch harness: registry kernels run
// end-to-end through the OpenCL-style runtime, whose launcher starts whole
// batches of warps at the kernel entry. Each run is held to its
// golden_digests.json cell — launch reports including the
// MemStall/ExecStall/IdleAfterEnd attribution, memory-system state and the
// observer stream — and its output is verified against the kernel's CPU
// reference.
//
// internal/sim/batch_test.go and batch_mem_test.go pin the same property at
// the bare-simulator level (all four policies, traps, the observer stream,
// lockstep edge cases).

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// checkBatchKernel holds one kernel under sched to its golden cell.
func checkBatchKernel(t *testing.T, name string, sched sim.SchedPolicy) {
	t.Helper()
	if testing.Short() && !cheapMatrixKernels[name] {
		t.Skip("short mode: batch matrix runs the cheap kernels only")
	}
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.Sched = sched
	checkGoldenCell(t, name, cfg)
}

// TestBatchKernelMatrix runs the kernel-level lockstep matrix under the
// round-robin policy.
func TestBatchKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) { checkBatchKernel(t, name, sim.SchedRoundRobin) })
	}
}

// TestBatchMemKernelMatrix runs it under greedy-then-oldest, which keeps
// one warp issuing until it stalls, typically on memory — so the batch's
// loads and stores reach the LSU and the hierarchy in a different
// interleaving than under round-robin.
func TestBatchMemKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) { checkBatchKernel(t, name, sim.SchedGTO) })
	}
}
