package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// Probes time one layer's public functions on inputs the harness makes
// itself, so a layer's cost can be read apart from the campaign around it.
// Iteration counts are constants (divided by div in tests).

const probeSamples = 5

// perOp runs f, which performs n operations, probeSamples times and returns
// the median nanoseconds per operation.
func perOp(n int, f func()) float64 {
	samples := make([]float64, probeSamples)
	for i := range samples {
		t := time.Now()
		f()
		samples[i] = float64(time.Since(t)) / float64(n)
	}
	return median(samples)
}

// times is op done n times over, for perOp.
func times(n int, op func()) func() {
	return func() {
		for i := 0; i < n; i++ {
			op()
		}
	}
}

// runProbes fills in the probe metrics. --seed makes the probes' random
// address streams.
func runProbes(w workload, seed int64, div int, m map[string]float64, rep *report) {
	if div < 1 {
		div = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for _, err := range []error{
		simProbes(div, m),
		memProbes(rng, div, m),
		asmProbe(m),
		oclProbes(div, m),
		buildColdProbe(w, seed, m),
	} {
		if err != nil {
			rep.problem("probe: %v", err)
		}
	}
}

// --- sim: bare sim.New + LoadProgram + ActivateWarp + Run ------------------

const probeBase = 0x1000

// aluLoop is warp-uniform integer and float arithmetic with no memory access:
// the warps stay in lockstep, so compute cohorts form on every issue.
const aluLoop = `
	csrr t0, wid
	slli t0, t0, 5
	csrr t1, tid
	add  t0, t0, t1
	fcvt.s.w f0, t0
	li   t1, 256
	li   t2, 0
	li   t3, 3
loop:
	add  t2, t2, t0
	xor  t4, t2, t3
	slli t5, t4, 2
	mul  t6, t2, t3
	and  a0, t4, t2
	or   a1, a0, t5
	sub  a2, a1, t2
	addi a3, a2, 17
	srli a4, a2, 3
	fadd.s f1, f0, f0
	fmul.s f2, f1, f0
	addi t1, t1, -1
	bnez t1, loop
	ecall
`

// memStream has every warp copy its own 16 KiB region with unit-stride,
// full-mask loads and stores that advance through memory: the affine
// template and bulk-copy paths, and L1 misses on every new line.
const memStream = `
	csrr t0, wid
	slli t0, t0, 14
	csrr t1, tid
	slli t1, t1, 2
	add  t0, t0, t1
	li   t1, 0x10000
	add  t0, t0, t1
	li   s0, 0x40000
	add  s0, s0, t0
	li   t1, 64
loop:
	lw   t2, 0(t0)
	sw   t2, 0(s0)
	lw   t3, 128(t0)
	sw   t3, 128(s0)
	addi t0, t0, 256
	addi s0, s0, 256
	addi t1, t1, -1
	bnez t1, loop
	ecall
`

// divergentLoop gives every lane its own trip count (and every warp its own
// offset), so lanes drop out one by one, warps leave lockstep and cohorts
// cannot form; each live lane gathers from a lane-dependent address.
const divergentLoop = `
	csrr t0, tid
	csrr t1, wid
	slli a5, t0, 2
	add  a5, a5, t1
	addi a5, a5, 4
	slli t4, t0, 8
	li   t1, 0x10000
	add  t4, t4, t1
	li   a4, 0
loop:
	slt  t0, a4, a5
	vx_ballot t1, t0
	beqz t1, done
	vx_split t0
	beqz t0, skip
	slli t2, a4, 6
	add  t2, t2, t4
	lw   t3, 0(t2)
	add  a6, a6, t3
	addi a4, a4, 1
skip:
	vx_join
	j loop
done:
	ecall
`

// busyLoop is a single-lane dependent loop: one core issues, every other
// core of the device sits idle.
const busyLoop = `
	li   t0, ITERS
loop:
	addi t0, t0, -1
	bnez t0, loop
	ecall
`

// bareSim builds a simulator on its own memory system with src loaded; iters
// is the ITERS symbol of the source.
func bareSim(cores, warps, threads int, src string, iters int) (*sim.Sim, error) {
	prog, err := asm.Assemble(src, probeBase, map[string]int64{"ITERS": int64(iters)})
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(cores, warps, threads)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg, mem.NewMemory(1<<20), hier)
	if err != nil {
		return nil, err
	}
	return s, s.LoadProgram(prog.Base, prog.Insts)
}

// simLoop is one bare-sim probe: src on a cores x 8 warps x 32 threads
// device with activeWarps warps of core 0 started.
type simLoop struct {
	metric      string
	src         string
	cores       int
	activeWarps int
	mask        uint64
	reps        int
	perCycle    bool // report ns per simulated cycle instead of per instruction
}

func simProbes(div int, m map[string]float64) error {
	loops := []simLoop{
		{metric: "sim.alu_loop_ns_per_instr", src: aluLoop, cores: 1, activeWarps: 8, mask: 0xFFFFFFFF, reps: 24},
		{metric: "sim.mem_stream_ns_per_instr", src: memStream, cores: 1, activeWarps: 8, mask: 0xFFFFFFFF, reps: 96},
		{metric: "sim.divergent_ns_per_instr", src: divergentLoop, cores: 1, activeWarps: 8, mask: 0xFFFFFFFF, reps: 24},
		{metric: "sim.idle_cores_ns_per_cycle", src: busyLoop, cores: 64, activeWarps: 1, mask: 1, reps: 4, perCycle: true},
	}
	for _, l := range loops {
		s, err := bareSim(l.cores, 8, 32, l.src, max(20000/div, 100))
		if err != nil {
			return fmt.Errorf("%s: %w", l.metric, err)
		}
		var runErr error
		run := func() {
			for w := 0; w < l.activeWarps; w++ {
				if err := s.ActivateWarp(0, w, probeBase, l.mask); err != nil {
					runErr = err
				}
			}
			if err := s.Run(); err != nil {
				runErr = err
			}
		}
		run() // the first activation allocates the register files
		reps := max(l.reps/div, 1)
		units := func() uint64 {
			if l.perCycle {
				return s.Cycle()
			}
			return s.TotalStats().Issued
		}
		before := units()
		ns := perOp(1, times(reps, run))
		if runErr != nil {
			return fmt.Errorf("%s: %w", l.metric, runErr)
		}
		m[l.metric] = ns / (float64(units()-before) / probeSamples)
	}

	// Reset of the widest grid point, after every warp has run once.
	s, err := bareSim(64, 32, 32, "\tecall\n", 0)
	if err != nil {
		return err
	}
	for c := 0; c < 64; c++ {
		for w := 0; w < 32; w++ {
			if err := s.ActivateWarp(c, w, probeBase, 0xFFFFFFFF); err != nil {
				return err
			}
		}
	}
	if err := s.Run(); err != nil {
		return err
	}
	const resets = 8
	m["sim.reset_us"] = perOp(resets, times(resets, s.Reset)) / 1e3
	return nil
}

// --- mem ------------------------------------------------------------------

func memProbes(rng *rand.Rand, div int, m map[string]float64) error {
	const cores = 4
	hier, err := mem.NewHierarchy(cores, mem.DefaultHierarchyConfig())
	if err != nil {
		return err
	}
	n := max(200_000/div, 1000)
	seq := make([]uint32, n)
	rnd := make([]uint32, n)
	for i := range seq {
		seq[i] = uint32(i*64) & (1<<20 - 1)
		rnd[i] = uint32(rng.Intn(8 << 20))
	}
	var now uint64
	walk := func(addrs []uint32) func() {
		return func() {
			for i, a := range addrs {
				now += 4
				hier.Access(i&(cores-1), a, i&7 == 0, now)
			}
		}
	}
	m["mem.hier_access_seq_ns"] = perOp(n, walk(seq))
	m["mem.hier_access_rand_ns"] = perOp(n, walk(rnd))

	const lanes, lineShift = 32, 6
	unit := make([]uint32, lanes)
	scatter := make([]uint32, lanes)
	for i := range unit {
		unit[i] = 0x10000 + uint32(i)*4
		scatter[i] = uint32(rng.Intn(1<<20)) &^ 3
	}
	out := make([]uint32, 0, 64)
	coalesce := func(addrs []uint32) func() {
		return func() {
			for i := 0; i < n; i++ {
				out = mem.Coalesce(addrs, 1<<lanes-1, lineShift, out)
			}
		}
	}
	m["mem.coalesce_unit_ns"] = perOp(n, coalesce(unit))
	m["mem.coalesce_scatter_ns"] = perOp(n, coalesce(scatter))
	leader := mem.Coalesce(unit, 1<<lanes-1, lineShift, nil)
	ok := true
	m["mem.coalesce_template_ns"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			var derived bool
			out, derived = mem.CoalesceTemplate(leader, uint32(i&63)<<lineShift, lineShift, out)
			ok = ok && derived
		}
	})
	if !ok {
		return fmt.Errorf("CoalesceTemplate refused a line-aligned delta")
	}

	const resets = 8
	memory := mem.NewMemory(ocl.HeapBase)
	m["mem.memory_reset_us"] = perOp(resets, times(resets, func() {
		memory.Grow(ocl.HeapBase + 1<<20) // a grown heap, as after a task's uploads
		memory.Reset()
	})) / 1e3
	wide, err := mem.NewHierarchy(64, sim.DefaultConfig(64, 32, 32).Mem)
	if err != nil {
		return err
	}
	m["mem.hier_reset_us"] = perOp(resets, times(resets, wide.Reset)) / 1e3
	return nil
}

// --- asm ------------------------------------------------------------------

// asmProbe assembles a harness-made program of about a thousand
// instructions: labelled blocks of arithmetic, loads, stores and a branch.
func asmProbe(m map[string]float64) error {
	var src strings.Builder
	for b := 0; b < 125; b++ {
		fmt.Fprintf(&src, "blk%d:\n\taddi t0, t0, %d\n\tslli t1, t0, 2\n\tadd  t2, t1, a0\n\tlw   t3, %d(t2)\n", b, b, 4*(b%64))
		fmt.Fprintf(&src, "\tfcvt.s.w f0, t3\n\tfmul.s f1, f0, f0\n\tsw   t3, 0(t2)\n\tbnez t3, blk%d\n", b)
	}
	src.WriteString("\tecall\n")
	var prog *asm.Program
	var err error
	ns := perOp(1, func() { prog, err = asm.Assemble(src.String(), probeBase, nil) })
	if err != nil {
		return err
	}
	m["asm.assemble_us_per_kinst"] = ns / float64(len(prog.Insts)) // ns per instruction = us per thousand
	return nil
}

// --- ocl ------------------------------------------------------------------

func oclProbes(div int, m map[string]float64) error {
	d, err := ocl.NewDevice(sim.DefaultConfig(16, 8, 8))
	if err != nil {
		return err
	}
	k, err := ocl.NewKernel(ocl.KernelSource{Name: "bench_one_instr", Body: "\taddi t0, zero, 1\n"})
	if err != nil {
		return err
	}
	var runErr error
	launch := func() {
		if _, err := d.EnqueueNDRange(k, 1, 1); err != nil {
			runErr = err
		}
	}
	launch()
	n := max(400/div, 10)
	m["ocl.enqueue_fixed_us"] = perOp(n, times(n, launch)) / 1e3
	cold := make([]float64, max(40/div, 5))
	for i := range cold {
		ocl.ResetProgramCache()
		t := time.Now()
		launch()
		cold[i] = float64(time.Since(t)) / 1e3
	}
	m["ocl.enqueue_cold_us"] = median(cold)
	if runErr != nil {
		return runErr
	}

	const floats = 1 << 18 // 1 MiB
	buf, err := d.AllocFloat32(floats)
	if err != nil {
		return err
	}
	data := make([]float32, floats)
	for i := range data {
		data[i] = float32(i)
	}
	const copies = 4
	var ioErr error
	up := perOp(copies, times(copies, func() {
		if err := d.WriteFloat32(buf, data); err != nil {
			ioErr = err
		}
	}))
	down := perOp(copies, times(copies, func() {
		if _, err := d.ReadFloat32(buf, floats); err != nil {
			ioErr = err
		}
	}))
	if ioErr != nil {
		return ioErr
	}
	const mb = floats * 4 / 1e6
	m["ocl.upload_mb_per_s"] = mb / (up / 1e9)
	m["ocl.readback_mb_per_s"] = mb / (down / 1e9)
	return nil
}

// --- kernels ----------------------------------------------------------------

// buildColdProbe times the first build of each of the workload's kernels
// after the input memo is dropped: input generation and the CPU reference,
// on top of the allocation and upload every build pays.
func buildColdProbe(w workload, seed int64, m map[string]float64) error {
	opts := w.options(seed)
	kernels.ResetInputCache()
	var total time.Duration
	for _, name := range w.kernels {
		spec, err := kernels.ByName(name)
		if err != nil {
			return err
		}
		d, err := ocl.NewDevice(sim.DefaultConfig(2, 4, 8))
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := spec.Build(d, kernels.Params{Scale: opts.Scale, Seed: opts.Seed}); err != nil {
			return err
		}
		total += time.Since(t)
	}
	m["kernels.build_cold_ms"] = ms(total)
	return nil
}
