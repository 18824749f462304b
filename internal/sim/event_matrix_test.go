package sim_test

// Kernel-level half of the engine harness: every registry kernel, run
// end-to-end through the OpenCL-style runtime on the event-driven device
// engine, is held to its golden_digests.json cell — launch cycles, the
// MemStall/ExecStall/IdleAfterEnd attribution, memory-system state and the
// observer stream — with its output verified against the CPU reference.
//
// internal/sim/event_test.go pins the same property at the bare-simulator
// level (including deadlocks, the deadline and the observer stream).

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// cheapMatrixKernels are the registry kernels the matrices still run under
// -short.
var cheapMatrixKernels = map[string]bool{"vecadd": true, "relu": true, "saxpy": true}

func TestEventEngineKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !cheapMatrixKernels[name] {
				t.Skip("short mode: engine matrix runs the cheap kernels only")
			}
			checkGoldenCell(t, name, sim.DefaultConfig(4, 8, 8))
		})
	}
}
