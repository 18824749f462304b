package trace_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The collector as a profiler: trace one kernel under the naive mapping
// and under Eq. 1, and compare their warp-occupancy timelines and the share
// of SIMD lanes their issues used. Eq. 1 packs the 200 items into one batch
// of 50 tasks, leaving lanes idle in the last warps, and still finishes
// first.
func ExampleCollector_RenderOccupancy() {
	hw := core.HWInfo{Cores: 2, Warps: 4, Threads: 8}
	const gws = 200
	for _, lws := range []int{1, core.OptimalLWS(gws, hw)} {
		d, err := ocl.NewDevice(sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads))
		if err != nil {
			log.Fatal(err)
		}
		var col *trace.Collector = d.EnableTracing()
		c, err := kernels.BuildVecadd(d, gws, 21)
		if err != nil {
			log.Fatal(err)
		}
		var res kernels.Result
		if err := c.RunVerified(d, lws, &res); err != nil {
			log.Fatal(err)
		}
		lr := res.Launches[0]
		fmt.Printf("lws=%d: %d cycles, %d batches\n", lws, lr.Cycles, lr.Batches)
		if err := col.RenderOccupancy(os.Stdout, 48); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SIMD efficiency: %.1f%% of lane slots used\n", col.SIMDEfficiency(hw.Threads)*100)
	}
	// Output:
	// lws=1: 1012 cycles, 4 batches
	// warps in flight |8888888875222 11112555777778776544322222232   11|
	// issue util 67.6%, SIMD lanes/issue 7.75
	// SIMD efficiency: 96.9% of lane slots used
	// lws=4: 762 cycles, 1 batches
	// warps in flight |88888888888741111122     34666667777777777764411|
	// issue util 71.4%, SIMD lanes/issue 6.25
	// SIMD efficiency: 78.1% of lane slots used
}
