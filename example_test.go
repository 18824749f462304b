package vortex_test

import (
	"fmt"
	"log"

	vortex "repro"
)

// vecadd is C[i] = A[i] + B[i] in device assembly, run once per work item:
// a0 holds the global id and a1 the argument block, one 4-byte slot per
// argument.
const vecadd = `
	lw   t3, 0(a1)       # arg 0: A
	lw   t4, 4(a1)       # arg 1: B
	lw   t5, 8(a1)       # arg 2: C
	slli t6, a0, 2       # byte offset of this work item
	add  t3, t3, t6
	add  t4, t4, t6
	add  t5, t5, t6
	flw  f0, 0(t3)
	flw  f1, 0(t4)
	fadd.s f2, f0, f1
	fsw  f2, 0(t5)
`

// Example is the quick start: allocate and fill device buffers, bind a
// kernel, and let the runtime pick the local work size from the device's
// micro-architecture (Eq. 1), then compare that choice with the paper's
// hardware-agnostic fixed mappings on the same device.
func Example() {
	const n = 1024
	cfg := vortex.DefaultConfig(2, 4, 8) // 2 cores x 4 warps x 8 threads
	xs, ys := make([]float32, n), make([]float32, n)
	for i := range xs {
		xs[i], ys[i] = float32(i), float32(2*i)
	}
	// launch runs vecadd over n items on a fresh device; lws=0 delegates
	// the mapping to the runtime (the paper's technique).
	launch := func(lws int) *vortex.LaunchResult {
		dev, err := vortex.NewDevice(cfg)
		if err != nil {
			log.Fatal(err)
		}
		a, _ := dev.AllocFloat32(n)
		b, _ := dev.AllocFloat32(n)
		c, err := dev.AllocFloat32(n)
		if err != nil {
			log.Fatal(err)
		}
		dev.WriteFloat32(a, xs)
		dev.WriteFloat32(b, ys)
		k, err := vortex.NewKernel(vortex.KernelSource{Name: "vecadd", Body: vecadd})
		if err != nil {
			log.Fatal(err)
		}
		if err := k.SetArgs(a, b, c); err != nil {
			log.Fatal(err)
		}
		res, err := dev.EnqueueNDRange(k, n, lws)
		if err != nil {
			log.Fatal(err)
		}
		out, err := dev.ReadFloat32(c, n)
		if err != nil {
			log.Fatal(err)
		}
		for i := range out {
			if out[i] != xs[i]+ys[i] {
				log.Fatalf("c[%d] = %v, want %v", i, out[i], xs[i]+ys[i])
			}
		}
		return res
	}

	hw := vortex.HWInfo{Cores: cfg.Cores, Warps: cfg.Warps, Threads: cfg.Threads}
	fmt.Printf("device %s: hp = %d thread slots; Eq. 1 for gws=%d: lws=%d\n", hw.Name(), hw.HP(), n, vortex.OptimalLWS(n, hw))
	var ours uint64
	for _, lws := range []int{0, 1, 32} {
		r := launch(lws)
		if lws == 0 {
			ours = r.Cycles
		}
		fmt.Printf("lws=%-2d -> %2d: %d cycles (%.2fx ours), %d workgroups in %d batches, %s\n",
			lws, r.LWS, r.Cycles, float64(r.Cycles)/float64(ours), r.Tasks, r.Batches, r.Regime)
	}
	// Output:
	// device 2c4w8t: hp = 64 thread slots; Eq. 1 for gws=1024: lws=16
	// lws=0  -> 16: 2022 cycles (1.00x ours), 64 workgroups in 1 batches, exact (single full batch)
	// lws=1  ->  1: 3696 cycles (1.83x ours), 1024 workgroups in 16 batches, under (multiple batches)
	// lws=32 -> 32: 2241 cycles (1.11x ours), 32 workgroups in 1 batches, over (under-utilized)
}
