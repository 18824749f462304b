package sim_test

// Kernel-level half of the engine differential harness: every registry
// kernel, run end-to-end through the OpenCL-style runtime, on the
// event-driven device engine (the default) must produce byte-identical
// launch reports — including the MemStall/ExecStall/IdleAfterEnd
// attribution — and memory-system state to the legacy tick loop retained
// behind Config.TickEngine.
//
// internal/sim/event_test.go pins the same property at the bare-simulator
// level (including deadlocks, the deadline and the observer stream).

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func runEngineKernel(t *testing.T, name string, tick bool) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.TickEngine = tick
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("tick=%v", tick))
}

func TestEventEngineKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !cheapMatrixKernels[name] {
				t.Skip("short mode: engine matrix runs the cheap kernels only")
			}
			diffKernelRuns(t, name+"/tick-vs-event", runEngineKernel(t, name, true), runEngineKernel(t, name, false))
		})
	}
}
