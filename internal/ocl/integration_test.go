package ocl

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestLaunchPropertyRandomGeometries fuzzes (config, gws, lws) and checks
// launch invariants: correct results, consistent regime/batches metadata,
// and a plausible cycle count.
func TestLaunchPropertyRandomGeometries(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		cores := 1 << r.Intn(3)
		warps := 1 << (1 + r.Intn(3))
		threads := 1 << (1 + r.Intn(3))
		gws := 1 + r.Intn(600)
		lws := 0
		if r.Intn(2) == 0 {
			lws = 1 + r.Intn(70)
		}
		cfg := sim.DefaultConfig(cores, warps, threads)
		res := runVecadd(t, cfg, gws, lws)

		hw := core.HWInfo{Cores: cores, Warps: warps, Threads: threads}
		if res.Tasks != core.Tasks(gws, res.LWS) {
			t.Errorf("trial %d: tasks = %d, want %d", trial, res.Tasks, core.Tasks(gws, res.LWS))
		}
		if res.Batches != core.Batches(gws, res.LWS, hw) {
			t.Errorf("trial %d: batches = %d", trial, res.Batches)
		}
		if res.Regime != core.RegimeOf(gws, res.LWS, hw) {
			t.Errorf("trial %d: regime = %v", trial, res.Regime)
		}
		// Every work item executes at least its body (11 instructions) on
		// its lane, and a core cannot retire more than one instruction per
		// cycle (an issue covers up to `threads` lanes).
		minLaneOps := uint64(gws) * 11
		if res.Stats.LaneOps < minLaneOps {
			t.Errorf("trial %d: only %d lane-ops for %d items", trial, res.Stats.LaneOps, gws)
		}
		if res.SimCycles*uint64(cores) < res.Stats.Issued {
			t.Errorf("trial %d: %d issues exceed %d core-cycles", trial, res.Stats.Issued, res.SimCycles*uint64(cores))
		}
		if res.WarpsActivated < 1 || res.WarpsActivated > cores*warps {
			t.Errorf("trial %d: %d warps activated", trial, res.WarpsActivated)
		}
	}
}

// TestCyclesMonotoneInWork checks that, at a fixed configuration and
// mapping policy, more work never takes fewer cycles.
func TestCyclesMonotoneInWork(t *testing.T) {
	cfg := sim.DefaultConfig(2, 4, 4)
	var prev uint64
	for _, gws := range []int{64, 256, 1024, 4096} {
		res := runVecadd(t, cfg, gws, 0)
		if res.Cycles < prev {
			t.Errorf("gws=%d took %d cycles, less than smaller workload's %d", gws, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestRepeatedLaunchesWarmCaches verifies the device keeps cache state
// across launches: a second identical launch must not be slower.
func TestRepeatedLaunchesWarmCaches(t *testing.T) {
	cfg := sim.DefaultConfig(1, 4, 4)
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	a, _ := d.AllocFloat32(n)
	b, _ := d.AllocFloat32(n)
	c, _ := d.AllocFloat32(n)
	d.WriteFloat32(a, make([]float32, n))
	d.WriteFloat32(b, make([]float32, n))
	k, _ := NewKernel(vecaddSrc)
	k.SetArgs(a, b, c)
	first, err := d.EnqueueNDRange(k, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.EnqueueNDRange(k, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.SimCycles > first.SimCycles {
		t.Errorf("warm launch slower: %d vs %d", second.SimCycles, first.SimCycles)
	}
	// And flushing restores the cold time (approximately).
	d.FlushCaches()
	third, err := d.EnqueueNDRange(k, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if third.SimCycles <= second.SimCycles {
		t.Errorf("flushed launch not slower than warm: %d vs %d", third.SimCycles, second.SimCycles)
	}
}

// TestAllRegimesReachable sweeps lws on one config and confirms all three
// regimes of Section 2 appear.
func TestAllRegimesReachable(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	seen := map[core.Regime]bool{}
	for _, lws := range []int{1, 4, 16, 32, 128} {
		res := runVecadd(t, cfg, 128, lws)
		seen[res.Regime] = true
	}
	for _, reg := range []core.Regime{core.RegimeUnder, core.RegimeExact, core.RegimeOver} {
		if !seen[reg] {
			t.Errorf("regime %v never reached", reg)
		}
	}
}
