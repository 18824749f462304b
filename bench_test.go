package vortex_test

// Benchmark harness: one testing.B benchmark per paper artefact.
//
//	E1 Fig. 1  -> BenchmarkFig1TraceVecadd
//	E2/E3 Fig. 2 (violins + data tables) -> BenchmarkFig2<Kernel>
//	E4 Section 3 aggregate -> BenchmarkFig2AggregateMath
//	A1..A3 ablations -> BenchmarkAblation*
//
// Each Fig. 2 benchmark runs the three mappers (lws=1, lws=32, ours) for
// its kernel over a deterministic subsample of the 450-configuration grid
// at reduced workload scale (cmd/vortex-sweep regenerates the full-scale
// figure) and reports the mean latency ratios as custom metrics:
// ratio_naive = cycles(lws=1)/cycles(ours), ratio_fixed32 =
// cycles(lws=32)/cycles(ours). Ratios above 1 mean the paper's mapper wins.

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// benchGrid is a 15-configuration spread of the paper's 450-point grid.
func benchGrid() []core.HWInfo {
	return sweep.Subsample(sweep.Grid(), 15)
}

func benchSweep(b *testing.B, kernel string, scale float64) {
	b.Helper()
	var vsNaive, vsFixed float64
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sweep.Options{
			Configs: benchGrid(),
			Kernels: []string{kernel},
			Scale:   scale,
			Seed:    42,
		})
		if err != nil {
			b.Fatal(err)
		}
		s := res.Summaries()[0]
		vsNaive = s.VsNaive.Avg
		vsFixed = s.VsFixed.Avg
	}
	b.ReportMetric(vsNaive, "ratio_naive")
	b.ReportMetric(vsFixed, "ratio_fixed32")
}

func BenchmarkFig2Vecadd(b *testing.B)        { benchSweep(b, "vecadd", 0.25) }
func BenchmarkFig2Relu(b *testing.B)          { benchSweep(b, "relu", 0.25) }
func BenchmarkFig2Saxpy(b *testing.B)         { benchSweep(b, "saxpy", 0.25) }
func BenchmarkFig2Sgemm(b *testing.B)         { benchSweep(b, "sgemm", 0.25) }
func BenchmarkFig2KNN(b *testing.B)           { benchSweep(b, "knn", 0.1) }
func BenchmarkFig2Gauss(b *testing.B)         { benchSweep(b, "gauss", 0.1) }
func BenchmarkFig2GCNAggr(b *testing.B)       { benchSweep(b, "gcn_aggr", 0.1) }
func BenchmarkFig2GCNLayer(b *testing.B)      { benchSweep(b, "gcn_layer", 0.1) }
func BenchmarkFig2ResNet20Layer(b *testing.B) { benchSweep(b, "resnet20_layer", 0.25) }

// BenchmarkFig2AggregateMath reproduces the Section 3 headline: the mean
// speedup of the runtime mapper over both baselines across the math
// kernels (paper: 1.3x over lws=1, 3.7x over lws=32).
func BenchmarkFig2AggregateMath(b *testing.B) {
	var vsNaive, vsFixed float64
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sweep.Options{
			Configs: benchGrid(),
			Kernels: []string{"vecadd", "relu", "saxpy", "sgemm", "knn", "gauss"},
			Scale:   0.1,
			Seed:    42,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res.Aggregates() {
			if a.Group == kernels.GroupMath {
				vsNaive, vsFixed = a.VsNaive, a.VsFixed
			}
		}
	}
	b.ReportMetric(vsNaive, "ratio_naive")
	b.ReportMetric(vsFixed, "ratio_fixed32")
}

// BenchmarkFig1TraceVecadd regenerates the Figure 1 experiment: vecadd
// with gws=128 on a 1c2w4t device, traced under lws in {1, 16, 32, 64}.
// It reports the cycle counts of the four mappings as metrics.
func BenchmarkFig1TraceVecadd(b *testing.B) {
	cyclesFor := map[int]uint64{}
	for i := 0; i < b.N; i++ {
		for _, lws := range []int{1, 16, 32, 64} {
			d, err := ocl.NewDevice(sim.DefaultConfig(1, 2, 4))
			if err != nil {
				b.Fatal(err)
			}
			col := d.EnableTracing()
			c, err := kernels.BuildVecadd(d, 128, 42)
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.RunVerified(d, lws)
			if err != nil {
				b.Fatal(err)
			}
			if len(col.Records) == 0 {
				b.Fatal("no trace records")
			}
			cyclesFor[lws] = res.Cycles
		}
	}
	b.ReportMetric(float64(cyclesFor[1]), "cycles_lws1")
	b.ReportMetric(float64(cyclesFor[16]), "cycles_lws16")
	b.ReportMetric(float64(cyclesFor[32]), "cycles_lws32")
	b.ReportMetric(float64(cyclesFor[64]), "cycles_lws64")
}

// BenchmarkAblationDispatchOverhead (A1) sweeps the per-launch driver cost
// and reports how much of the naive mapping's disadvantage survives at
// zero overhead — isolating software-batching cost from dispatch cost.
func BenchmarkAblationDispatchOverhead(b *testing.B) {
	var at0, at2000 float64
	for i := 0; i < b.N; i++ {
		for _, overhead := range []int64{0, 2000} {
			res, err := sweep.Run(sweep.Options{
				Configs:          []core.HWInfo{{Cores: 1, Warps: 2, Threads: 4}, {Cores: 2, Warps: 4, Threads: 8}},
				Kernels:          []string{"vecadd"},
				Scale:            0.25,
				Seed:             42,
				DispatchOverhead: overhead,
			})
			if err != nil {
				b.Fatal(err)
			}
			avg := res.Summaries()[0].VsNaive.Avg
			if overhead == 0 {
				at0 = avg
			} else {
				at2000 = avg
			}
		}
	}
	b.ReportMetric(at0, "ratio_naive_ovh0")
	b.ReportMetric(at2000, "ratio_naive_ovh2000")
}

// BenchmarkAblationCoalescing (A2) compares a memory-bound kernel with the
// coalescer on and off under the naive lws=1 mapping (whose adjacent lanes
// touch the same cache line; the Eq. 1 mapping strides lanes apart,
// leaving the coalescer nothing to merge). In this model the duplicate
// requests of an uncoalesced warp hit the line the first request filled,
// so the coalescer is nearly latency-neutral behind a banked LSU — its
// measurable effect is the L1 access count (and hence access energy),
// reported here alongside the cycles.
func BenchmarkAblationCoalescing(b *testing.B) {
	configs := []core.HWInfo{{Cores: 2, Warps: 4, Threads: 32}}
	var with, without, e1, e2 float64
	for i := 0; i < b.N; i++ {
		for _, off := range []bool{false, true} {
			res, err := sweep.Run(sweep.Options{
				Configs:    configs,
				Kernels:    []string{"saxpy"},
				Mappers:    []core.Mapper{core.Naive{}},
				Scale:      0.25,
				Seed:       42,
				NoCoalesce: off,
			})
			if err != nil {
				b.Fatal(err)
			}
			if off {
				without = float64(res.Records[0].Cycles)
				e2 = res.Records[0].EnergyPJ
			} else {
				with = float64(res.Records[0].Cycles)
				e1 = res.Records[0].EnergyPJ
			}
		}
	}
	b.ReportMetric(with, "cycles_coalesced")
	b.ReportMetric(without, "cycles_uncoalesced")
	b.ReportMetric(e2/e1, "energy_ratio_uncoalesced")
}

// BenchmarkAblationScheduler (A3) compares the four warp-scheduling
// policies under the paper's mapper, using the sweep's scheduler grid axis
// (one campaign, one record per policy in axis order).
func BenchmarkAblationScheduler(b *testing.B) {
	var scheds []string
	for _, p := range sim.SchedPolicies() {
		scheds = append(scheds, p.String())
	}
	cycles := make([]float64, len(scheds))
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sweep.Options{
			Configs: []core.HWInfo{{Cores: 2, Warps: 8, Threads: 8}},
			Kernels: []string{"sgemm"},
			Mappers: []core.Mapper{core.Auto{}},
			Axes:    map[string][]string{"sched": scheds},
			Scale:   0.25,
			Seed:    42,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, rec := range res.Records {
			cycles[j] = float64(rec.Cycles)
		}
	}
	for j, pol := range scheds {
		b.ReportMetric(cycles[j], "cycles_"+pol)
	}
}

// BenchmarkSimulatorIssueRate measures raw simulator speed (simulated
// instruction issues per wall-clock second) on a busy multi-warp device.
func BenchmarkSimulatorIssueRate(b *testing.B) {
	var issued uint64
	for i := 0; i < b.N; i++ {
		d, err := ocl.NewDevice(sim.DefaultConfig(4, 8, 8))
		if err != nil {
			b.Fatal(err)
		}
		c, err := kernels.BuildSgemm(d, 64, 16, 64, 42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		issued += res.Launches[0].Stats.Issued
	}
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkSimulatorIssuePath measures the steady-state issue path with all
// setup (device build, assembly, input generation) hoisted out of the loop:
// each iteration re-activates the warps of a prebuilt device and runs the
// kernel to completion. With -benchmem this pins the zero-allocation
// property of the issue/coalescing path (allocs/op ~ 0).
func BenchmarkSimulatorIssuePath(b *testing.B) {
	cfg := sim.DefaultConfig(4, 8, 8)
	prog := `
		csrr s0, cid
		slli s0, s0, 14
		csrr t0, wid
		slli t1, t0, 10
		add  s0, s0, t1
		csrr t0, tid
		slli t1, t0, 6
		add  s0, s0, t1
		li   t2, 0x10000
		add  s0, s0, t2
		li   t3, 24
	loop:
		lw   t4, 0(s0)
		add  t4, t4, t3
		sw   t4, 0(s0)
		fcvt.s.w f0, t4
		fmadd.s f1, f0, f0, f0
		addi s0, s0, 64
		addi t3, t3, -1
		bnez t3, loop
		ecall
	`
	p := asm.MustAssemble(prog, 0x1000, nil)
	memory := mem.NewMemory(1 << 21)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(cfg, memory, hier)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		b.Fatal(err)
	}
	runOnce := func() {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < cfg.Warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, 0xFF); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	runOnce() // warm up: first activation allocates the register files
	warmupIssued := s.TotalStats().Issued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	issued := s.TotalStats().Issued - warmupIssued
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkHighWarpIssue measures the issue path at the warp count where a
// per-issue rescan of every warp would dominate: 32 warps per core, a loop
// mixing memory and FP dependencies so warps continuously stall and wake.
// The ready-set/wake-heap scheduler touches only ready warps per issue
// cycle. It reports device_cycles, which the deterministic CI gate holds at
// zero drift.
func BenchmarkHighWarpIssue(b *testing.B) {
	cfg := sim.DefaultConfig(2, 32, 8)
	// Each warp streams dependent loads over its own 4 KiB region at line
	// stride; the 256 KiB aggregate footprint defeats the 128 KiB L2, so
	// warps sleep on staggered DRAM fills and a typical issue cycle sees a
	// couple of ready warps among dozens of stalled ones.
	prog := `
		csrr s0, cid
		slli s0, s0, 17
		csrr t0, wid
		slli t1, t0, 12
		add  s0, s0, t1
		csrr t0, tid
		slli t1, t0, 9
		add  s0, s0, t1
		li   t2, 0x100000
		add  s0, s0, t2
		li   t3, 8
	loop:
		lw   t4, 0(s0)
		add  t4, t4, t3
		fcvt.s.w f0, t4
		fmadd.s f1, f0, f0, f0
		sw   t4, 0(s0)
		addi s0, s0, 64
		addi t3, t3, -1
		bnez t3, loop
		ecall
	`
	p := asm.MustAssemble(prog, 0x1000, nil)
	memory := mem.NewMemory(1 << 21)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(cfg, memory, hier)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		b.Fatal(err)
	}
	runOnce := func() {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < cfg.Warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, 0xFF); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	runOnce() // warm up: first activation allocates the register files
	warmCycles := s.Cycle()
	warmIssued := s.TotalStats().Issued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	issued := s.TotalStats().Issued - warmIssued
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim_instrs/s")
	b.ReportMetric(float64(s.Cycle()-warmCycles)/float64(b.N), "device_cycles")
}

// BenchmarkManyCoreIdle pins the payoff of the event-driven device engine:
// a 16c8w8t device in the DRAM-bound many-core-idle regime (GCNAggr/KNN
// shaped: short bursts of address arithmetic between long irregular-access
// miss sleeps), where on a typical cycle one core is issuing and the other
// fifteen are asleep on DRAM fills. Some core always issues, so a per-cycle
// scan of every core could never fast-forward; the event engine touches
// only the due cores and settles the sleepers' stall spans in bulk. It
// reports device_cycles, which the deterministic CI gate holds at zero
// drift.
func BenchmarkManyCoreIdle(b *testing.B) {
	cfg := sim.DefaultConfig(64, 8, 8)
	// All gather traffic lands on a single DRAM channel — the worst-case
	// hot-spot of an irregular gather, and the regime where a many-core
	// device is maximally idle: fills serialize, so a core's miss sleep
	// stretches from the 180-cycle DRAM latency to the whole channel queue.
	cfg.Mem.DRAM.Channels = 1
	// Core 0 spins a single-lane dependent ALU loop sized to outlast the
	// memory side, keeping the device issuing every cycle. Every other core
	// runs one warp whose eight lanes stream loads over disjoint 4 KiB
	// regions at line stride: each lw misses clean through the L2 (the
	// 2 MiB aggregate footprint defeats its 128 KiB), so between issue
	// bursts of three instructions the core sleeps out the serialized DRAM
	// fills. One warp per core means no second warp hides that latency —
	// the core itself goes idle, which is the regime under test.
	prog := `
		csrr s0, cid
		bnez s0, memside
		li   t0, 67000
	busy:
		addi t0, t0, -1
		bnez t0, busy
		ecall
	memside:
		slli s0, s0, 15
		csrr t0, tid
		slli t1, t0, 12
		add  s0, s0, t1
		li   t2, 0x100000
		add  s0, s0, t2
		li   t5, 4096
		add  s2, s0, t5
	mloop:
		lw   t4, 0(s0)
		addi s0, s0, 64
		bne  s0, s2, mloop
		ecall
	`
	p := asm.MustAssemble(prog, 0x1000, nil)
	memory := mem.NewMemory(1 << 23)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(cfg, memory, hier)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		b.Fatal(err)
	}
	runOnce := func() {
		if err := s.ActivateWarp(0, 0, 0x1000, 0x1); err != nil {
			b.Fatal(err)
		}
		for c := 1; c < cfg.Cores; c++ {
			if err := s.ActivateWarp(c, 0, 0x1000, 0xFF); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	runOnce() // warm up: first activation allocates the register files
	warmCycles := s.Cycle()
	warmIssued := s.TotalStats().Issued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	issued := s.TotalStats().Issued - warmIssued
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim_instrs/s")
	b.ReportMetric(float64(s.Cycle()-warmCycles)/float64(b.N), "device_cycles")
}

// BenchmarkAblationLineSize (A4) quantifies the explanation this
// reproduction offers for the paper's unexplained "atypical" kernels
// (knn, gauss, GCN aggregation): with lws > 1 the Vortex mapping makes
// warp lanes stride by lws work items, so large cache lines are fetched
// for a single element once the stream count exceeds the L1 — an effect
// that vanishes with the 16-byte lines of early Vortex dcache banks.
func BenchmarkAblationLineSize(b *testing.B) {
	metrics := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, lineBytes := range []int{64, 16} {
			res, err := sweep.Run(sweep.Options{
				Configs: []core.HWInfo{{Cores: 2, Warps: 32, Threads: 32}},
				Kernels: []string{"knn"},
				Mappers: []core.Mapper{core.Naive{}, core.Auto{}},
				Scale:   1,
				Seed:    42,
				ConfigTemplate: func(hw core.HWInfo) sim.Config {
					cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
					cfg.Mem.L1.LineBytes = lineBytes
					cfg.Mem.L2.LineBytes = lineBytes
					return cfg
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			ratio := res.Ratios("knn", "lws=1", "ours")
			if len(ratio) == 1 {
				metrics[map[int]string{64: "ratio_naive_line64", 16: "ratio_naive_line16"}[lineBytes]] = ratio[0]
			}
		}
	}
	for name, v := range metrics {
		b.ReportMetric(v, name)
	}
}

// benchCampaign runs the small campaign shared by the cached/cold sweep
// benchmarks: 6 configurations x 2 kernels x 3 mappers.
func benchCampaign(b *testing.B) {
	b.Helper()
	_, err := sweep.Run(sweep.Options{
		Configs: sweep.Subsample(sweep.Grid(), 6),
		Kernels: []string{"vecadd", "sgemm"},
		Scale:   0.25,
		Seed:    42,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepCold measures the campaign with the process-wide caches
// dropped per iteration: each run pays program assembly and input
// generation like the pre-campaign-engine sweep did. (The device pool is
// internal to sweep.Run and active in both variants, so the Cold/Cached
// gap isolates the program-cache + input-memo win.)
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ocl.ResetProgramCache()
		kernels.ResetInputCache()
		benchCampaign(b)
	}
}

// BenchmarkSweepCached measures the same campaign with the program cache
// and input memo warm — the steady state of a long campaign (or a resumed
// one). The Cold/Cached gap is the campaign engine's per-run setup win.
func BenchmarkSweepCached(b *testing.B) {
	ocl.ResetProgramCache()
	kernels.ResetInputCache()
	benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCampaign(b)
	}
}

// BenchmarkMSHRBound4 measures the simulator on a DRAM-bound streaming
// workload with 4 MSHRs per L1 and per L2 bank: every core's warps stream
// dependent loads over a footprint that defeats the L2, so the
// outstanding-miss bound is the binding constraint and the issue path runs
// through the MSHR gate (and its lower-bound wake re-checks) on nearly
// every memory instruction. BenchmarkMSHRUnbounded runs the identical
// workload on the pre-axis unbounded model, so the pair quantifies both
// the host-side cost of the gate and the simulated-cycle divergence the
// bound creates — device_cycles differs between the two by construction
// and the deterministic CI gate holds each at zero drift.
func BenchmarkMSHRBound4(b *testing.B)    { benchMSHR(b, 4) }
func BenchmarkMSHRUnbounded(b *testing.B) { benchMSHR(b, 0) }

func benchMSHR(b *testing.B, mshrs int) {
	b.Helper()
	cfg := sim.DefaultConfig(2, 32, 8)
	cfg.Mem.L1.MSHRs = mshrs
	cfg.Mem.L2.MSHRs = mshrs
	// Same DRAM-bound stream as BenchmarkHighWarpIssue: each warp walks its
	// own 4 KiB region at line stride; the 256 KiB aggregate footprint
	// defeats the 128 KiB L2, so every iteration misses to DRAM and the
	// per-core MSHRs throttle how many of the 32 warps can have misses in
	// flight at once.
	prog := `
		csrr s0, cid
		slli s0, s0, 17
		csrr t0, wid
		slli t1, t0, 12
		add  s0, s0, t1
		csrr t0, tid
		slli t1, t0, 9
		add  s0, s0, t1
		li   t2, 0x100000
		add  s0, s0, t2
		li   t3, 8
	loop:
		lw   t4, 0(s0)
		add  t4, t4, t3
		sw   t4, 0(s0)
		addi s0, s0, 64
		addi t3, t3, -1
		bnez t3, loop
		ecall
	`
	p := asm.MustAssemble(prog, 0x1000, nil)
	memory := mem.NewMemory(1 << 21)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(cfg, memory, hier)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		b.Fatal(err)
	}
	runOnce := func() {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < cfg.Warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, 0xFF); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	runOnce() // warm up: first activation allocates the register files
	warmCycles := s.Cycle()
	warmIssued := s.TotalStats().Issued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	issued := s.TotalStats().Issued - warmIssued
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim_instrs/s")
	b.ReportMetric(float64(s.Cycle()-warmCycles)/float64(b.N), "device_cycles")
}
