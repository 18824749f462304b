package sim_test

// Coverage for the per-channel DRAM statistics split: DRAMStats summed
// over channels must equal the aggregate counters the rest of the system
// consumes (LaunchResult.DRAM deltas) — i.e. the
// per-channel decomposition loses no traffic — pinned on the five Figure 2
// math kernels the paper sweeps.

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

var fig2ChannelKernels = []string{"vecadd", "relu", "saxpy", "sgemm", "knn"}

func TestDRAMChannelStatsSumToGlobal(t *testing.T) {
	for _, name := range fig2ChannelKernels {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(4, 4, 8) // 4 cores -> 4 DRAM channels
			d, err := ocl.NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			var res kernels.Result
			if err := c.Run(d, 0, &res); err != nil {
				t.Fatal(err)
			}

			h := d.Sim().Hierarchy()
			if h.DRAMChannels() != 4 {
				t.Fatalf("channels = %d, want 4", h.DRAMChannels())
			}
			var sum mem.DRAMStats
			used := 0
			for ch := 0; ch < h.DRAMChannels(); ch++ {
				s := h.DRAMChannelStats(ch)
				sum.LineReads += s.LineReads
				sum.Writebacks += s.Writebacks
				sum.BusyCycles += s.BusyCycles
				if s.LineReads+s.Writebacks > 0 {
					used++
				}
			}
			if got := h.DRAM(); got != sum {
				t.Errorf("global DRAM stats %+v != channel sum %+v", got, sum)
			}
			if sum.LineReads == 0 {
				t.Fatalf("kernel produced no DRAM traffic; test is vacuous")
			}
			if used < 2 {
				t.Errorf("only %d of %d channels saw traffic; striping is broken", used, h.DRAMChannels())
			}

			// The launch reports are deltas of the same aggregate: their sum
			// over launches must equal the hierarchy's lifetime counters.
			var launches mem.DRAMStats
			for _, l := range res.Launches {
				launches.LineReads += l.DRAM.LineReads
				launches.Writebacks += l.DRAM.Writebacks
				launches.BusyCycles += l.DRAM.BusyCycles
			}
			if launches != sum {
				t.Errorf("launch-delta DRAM stats %+v != channel sum %+v", launches, sum)
			}
		})
	}
}
