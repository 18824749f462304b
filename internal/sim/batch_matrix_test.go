package sim_test

// Kernel-level half of the batched-execution differential harness: registry
// kernels, run end-to-end through the OpenCL-style runtime, across the
// batch x engine matrix. Uniform-warp batched execution (the default) must
// produce byte-identical launch reports — including the
// MemStall/ExecStall/IdleAfterEnd attribution — and memory-system state to
// the per-warp oracle retained behind Config.BatchExec=false, on both
// engines.
//
// internal/sim/batch_test.go pins the same property at the bare-simulator
// level (all four policies, traps, the observer stream, cohort edge cases).

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func runBatchKernel(t *testing.T, name string, batch, tick bool) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.BatchExec = batch
	cfg.TickEngine = tick
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("batch=%v tick=%v", batch, tick))
}

func TestBatchKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !cheapMatrixKernels[name] {
				t.Skip("short mode: batch matrix runs the cheap kernels only")
			}
			oracle := runBatchKernel(t, name, false, false)
			diffKernelRuns(t, name+"/unbatched-vs-batched", oracle, runBatchKernel(t, name, true, false))
			if cheapMatrixKernels[name] {
				diffKernelRuns(t, name+"/unbatched-vs-batched-tick", oracle, runBatchKernel(t, name, true, true))
			}
		})
	}
}

// runBatchMemKernel isolates the batched-memory layer: compute batching on
// in both cells, Config.BatchMem toggled.
func runBatchMemKernel(t *testing.T, name string, batchMem bool) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.BatchMem = batchMem
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("batchMem=%v", batchMem))
}

// TestBatchMemKernelMatrix is the kernel-level half of the batched-memory
// differential: registry kernels end-to-end with cohort-batched loads and
// stores (the default) against the per-warp memory path
// (Config.BatchMem=false), compute batching held on in both cells so the
// diff isolates the memory layer. TestBatchKernelMatrix's fully-unbatched
// oracle transitively covers the combined stack.
func TestBatchMemKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !cheapMatrixKernels[name] {
				t.Skip("short mode: batch matrix runs the cheap kernels only")
			}
			diffKernelRuns(t, name+"/membatch", runBatchMemKernel(t, name, false), runBatchMemKernel(t, name, true))
		})
	}
}
