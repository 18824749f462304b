// Package kernels provides the paper's nine benchmark workloads of
// Figure 2 as device-assembly kernels with host-side builders and CPU
// reference implementations: the standalone math kernels (vecadd, relu,
// saxpy, sgemm, nearest-neighbor distance, 5x5 Gaussian filter) and the
// combined ML layers (GCN aggregation, full GCN layer, and a ResNet20
// conv3x3+ReLU layer on CIFAR-10-shaped tensors). Registry lists them with
// their paper sizes; Spec.Build refuses a scale CheckScale refuses.
//
// Every builder goes through one binder: it allocates and uploads device
// buffers in call order (the order fixes each buffer's device address, and
// so the simulated timing), binds the launches, and returns a Case whose
// Verify reads the one output buffer back and compares it with the CPU
// reference bit for bit — the simulator and the references evaluate the
// same float32 operations in the same order, so only NaN payloads may
// differ. Spec.Build memoizes the bound case per (kernel, Params) and
// replays its uploads onto later devices (memo.go).
package kernels

import (
	"fmt"
	"math"

	"repro/internal/ocl"
)

// LaunchSpec is one NDRange enqueue of a case.
type LaunchSpec struct {
	Kernel *ocl.Kernel
	GWS    int
}

// Case is a runnable, verifiable workload instance bound to the device
// addresses of its buffers: its launches and Verify name buffers by
// address only, so it runs on any device holding those buffers at those
// addresses — the device it was built on, or one it was replayed onto
// (memo.go). A Case is read-only once built.
type Case struct {
	Name      string
	Launches  []LaunchSpec
	Verify    func(d *ocl.Device) error
	WorkItems int // total work items across launches

	uploads []upload // the build's buffers, in call order
}

// Result aggregates the launches of one Case execution.
type Result struct {
	Case     string
	Cycles   uint64 // total, including per-launch dispatch overhead
	Launches []ocl.LaunchResult
}

// Run enqueues every launch of the case in order and writes their reports
// into res, reusing its Launches array, so a caller that keeps one Result
// allocates nothing per run. lws > 0 forces that local work size on each
// launch; lws = 0 delegates to the device's mapper per launch (each launch
// gets its own Eq. 1 decision, as in the paper's combined-layer
// experiments). On error res is left unspecified.
func (c *Case) Run(d *ocl.Device, lws int, res *Result) error {
	res.Case, res.Cycles, res.Launches = c.Name, 0, res.Launches[:0]
	for i, l := range c.Launches {
		res.Launches = append(res.Launches, ocl.LaunchResult{})
		lr := &res.Launches[i]
		if err := d.EnqueueInto(l.Kernel, l.GWS, lws, lr); err != nil {
			return fmt.Errorf("kernels: %s launch %d: %w", c.Name, i, err)
		}
		res.Cycles += lr.Cycles
	}
	return nil
}

// RunVerified runs the case into res and checks the device output.
func (c *Case) RunVerified(d *ocl.Device, lws int, res *Result) error {
	if err := c.Run(d, lws, res); err != nil {
		return err
	}
	if err := c.Verify(d); err != nil {
		return fmt.Errorf("kernels: %s: %w", c.Name, err)
	}
	return nil
}

// checkSizes refuses a non-positive size, before a sized builder generates
// inputs for it.
func checkSizes(name string, sizes ...int) error {
	for _, n := range sizes {
		if n < 1 {
			return fmt.Errorf("kernels: %s: size %d is not positive", name, n)
		}
	}
	return nil
}

// binder builds one Case on a device. Buffers are allocated in call order,
// which fixes their device addresses and so the simulated timing: a
// builder must not reorder its calls. The binder records each buffer as an
// upload, so the case can be replayed onto another device. The first error
// sticks and turns every later call into a no-op, so a builder checks
// once, in verified.
type binder struct {
	d        *ocl.Device
	uploads  []upload
	launches []LaunchSpec
	err      error
}

// upload is one buffer of a build: its size in 4-byte words and the host
// data written into it (neither slice for an output buffer). The data is
// the build's own, shared read-only by every replay.
type upload struct {
	words  int
	floats []float32
	ints   []uint32
}

// put allocates u's buffer on d and writes its data.
func (u upload) put(d *ocl.Device) (ocl.Buffer, error) {
	buf, err := d.AllocFloat32(u.words)
	switch {
	case err != nil:
	case u.floats != nil:
		err = d.WriteFloat32(buf, u.floats)
	case u.ints != nil:
		err = d.WriteUint32(buf, u.ints)
	}
	return buf, err
}

// put records u and puts it on the binder's device.
func (b *binder) put(u upload) ocl.Buffer {
	if b.err != nil {
		return ocl.Buffer{}
	}
	b.uploads = append(b.uploads, u)
	buf, err := u.put(b.d)
	b.err = err
	return buf
}

// alloc reserves a buffer of n 4-byte words.
func (b *binder) alloc(n int) ocl.Buffer { return b.put(upload{words: n}) }

// floats allocates a buffer for data and uploads it.
func (b *binder) floats(data []float32) ocl.Buffer {
	return b.put(upload{words: len(data), floats: data})
}

// words allocates a buffer for data, at least one word long so an empty
// edge list still has an address, and uploads it.
func (b *binder) words(data []uint32) ocl.Buffer {
	return b.put(upload{words: max(len(data), 1), ints: data})
}

// launch appends one gws-item launch of src, with its assembler defines,
// bound to args.
func (b *binder) launch(src ocl.KernelSource, defs map[string]int64, gws int, args ...any) {
	if b.err != nil {
		return
	}
	src.Defs = defs
	k, err := ocl.NewKernel(src)
	if err != nil {
		panic(err) // the sources are fixed; a define that breaks one is a bug
	}
	b.err = k.SetArgs(args...)
	b.launches = append(b.launches, LaunchSpec{Kernel: k, GWS: gws})
}

// verified returns the case, whose Verify reads len(want) floats of out
// back and compares them with want, or the first error of the build.
func (b *binder) verified(name string, out ocl.Buffer, want []float32) (*Case, error) {
	if b.err != nil {
		return nil, b.err
	}
	c := &Case{Name: name, Launches: b.launches, uploads: b.uploads}
	for _, l := range b.launches {
		c.WorkItems += l.GWS
	}
	c.Verify = func(d *ocl.Device) error {
		got, err := d.ReadFloat32(out, len(want))
		if err != nil {
			return err
		}
		return compareFloats(name, got, want)
	}
	return c, nil
}

// fma32 matches the simulator's fused multiply-add (single rounding).
func fma32(a, b, c float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

// compareFloats checks device output against the reference bit for bit:
// -0 and +0 differ. Any NaN matches any NaN, since NaN payloads are not
// part of the reproduced arithmetic.
func compareFloats(name string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		gb, wb := math.Float32bits(g), math.Float32bits(w)
		if gb != wb && !(g != g && w != w) {
			return fmt.Errorf("%s: element %d = %v (%#08x), want %v (%#08x)", name, i, g, gb, w, wb)
		}
	}
	return nil
}
