// Package ocl is the OpenCL-style host runtime for the simulated Vortex
// GPGPU: device and buffer management, kernel argument binding, and NDRange
// dispatch. Dispatch reproduces the Vortex runtime's mapping: the gws work
// items become gws/lws workgroup tasks, split into contiguous chunks across
// cores, assigned threads-first-then-warps within each core, with each
// hardware thread looping over the lws work items of its workgroup — the
// mechanism whose lws sensitivity the paper exploits.
package ocl

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Device memory layout.
const (
	// CodeBase is where kernel programs are linked.
	CodeBase uint32 = 0x1000
	// ArgBase is the kernel argument block (one 4-byte slot per argument).
	ArgBase uint32 = 0x10000
	// HeapBase is the start of the buffer allocator.
	HeapBase uint32 = 0x100000
	// DefaultDispatchOverhead is the fixed driver cost per launch, in
	// cycles (host-device handshake, program upload, warp setup).
	DefaultDispatchOverhead uint64 = 500
)

// Device owns a simulated GPGPU: its memory, cache hierarchy and simulator
// instance. Buffer contents and cache state persist across launches. A
// Device is an arena: Reshape turns it into a device of another
// configuration while keeping its allocations.
type Device struct {
	cfg    sim.Config
	memory *mem.Memory
	hier   mem.Hierarchy
	sim    sim.Sim

	mapper core.Mapper
	// DispatchOverhead is charged once per EnqueueNDRange (cycles).
	DispatchOverhead uint64

	allocTop uint32
	observer func(sim.IssueEvent)

	// prog is the resident launch program, the instance of template
	// resident at residentGeom; its Words and Insts arrays are the
	// device's, rewritten when the next launch needs another program.
	prog         asm.Program
	resident     *program
	residentGeom geometry

	// scratch is the pooled byte staging buffer for buffer uploads and
	// readbacks (Write*/Read*). Verify-heavy campaigns read every output
	// buffer back per run; pooling the staging bytes keeps that traffic off
	// the allocator (held by the B_per_op bench gate). A Device serves one
	// host caller at a time (the device pool hands it out exclusively), so
	// a single buffer is safe.
	scratch []byte
}

// scratchBytes returns the pooled staging buffer grown to n bytes. The
// contents are unspecified; every caller fully overwrites them.
func (d *Device) scratchBytes(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	return d.scratch[:n]
}

// NewDevice builds a device for the given configuration.
func NewDevice(cfg sim.Config) (*Device, error) {
	d := new(Device)
	if err := d.Reshape(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reshape puts the device into the NewDevice state of cfg while keeping
// every allocation that is large enough — the memory image, cache line
// arrays, core/warp arrays and register files, scheduler and coalescing
// scratch — so a campaign worker reshapes one device from task to task
// instead of building one per configuration. It is the one construction
// path: NewDevice is the zero value plus Reshape, and the layers below
// follow the same rule (mem.Cache, mem.Hierarchy, sim.Sim), so "reshaped"
// and "fresh" cannot diverge. Whatever the device ran before — another
// geometry, scheduler or memory-axis setting, a trapped kernel — the next
// run is byte-identical to the same run on a new device. On error the
// device must be discarded.
func (d *Device) Reshape(cfg sim.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if d.memory == nil {
		d.memory = mem.NewMemory(HeapBase)
	}
	if err := d.hier.Reshape(cfg.Cores, cfg.Mem); err != nil {
		return err
	}
	if err := d.sim.Reshape(cfg, d.memory, &d.hier); err != nil {
		return err
	}
	d.cfg = cfg
	d.resetRuntime()
	return nil
}

// Info returns the runtime-visible micro-architecture parameters — the
// inputs to Eq. 1.
func (d *Device) Info() core.HWInfo {
	return core.HWInfo{Cores: d.cfg.Cores, Warps: d.cfg.Warps, Threads: d.cfg.Threads}
}

// Config returns the full simulator configuration.
func (d *Device) Config() sim.Config { return d.cfg }

// Sim exposes the underlying simulator (for ablations and tests).
func (d *Device) Sim() *sim.Sim { return &d.sim }

// SetMapper replaces the automatic lws policy used when EnqueueNDRange is
// called with lws=0.
func (d *Device) SetMapper(m core.Mapper) { d.mapper = m }

// Mapper returns the current automatic lws policy.
func (d *Device) Mapper() core.Mapper { return d.mapper }

// SetObserver installs a raw per-issue observer for the next launches
// (e.g. a trace.Collector's Observe method).
func (d *Device) SetObserver(fn func(sim.IssueEvent)) {
	d.observer = fn
	d.sim.SetObserver(fn)
}

// Buffer is a device memory allocation.
type Buffer struct {
	addr uint32
	size uint32
	dev  *Device
}

// Addr returns the device address of the buffer.
func (b Buffer) Addr() uint32 { return b.addr }

// Size returns the buffer size in bytes.
func (b Buffer) Size() uint32 { return b.size }

// Alloc reserves size bytes of device memory (64-byte aligned).
func (d *Device) Alloc(size uint32) (Buffer, error) {
	if size == 0 {
		return Buffer{}, fmt.Errorf("ocl: zero-size allocation")
	}
	const align = 64
	addr := (d.allocTop + align - 1) &^ (align - 1)
	end := addr + size
	if end < addr {
		return Buffer{}, fmt.Errorf("ocl: allocation of %d bytes overflows address space", size)
	}
	d.allocTop = end
	d.memory.Grow(end)
	return Buffer{addr: addr, size: size, dev: d}, nil
}

// AllocFloat32 reserves a buffer for n float32 values.
func (d *Device) AllocFloat32(n int) (Buffer, error) { return d.Alloc(uint32(n) * 4) }

// AllocUint32 reserves a buffer for n uint32 values.
func (d *Device) AllocUint32(n int) (Buffer, error) { return d.Alloc(uint32(n) * 4) }

// WriteFloat32 copies host data into the buffer.
func (d *Device) WriteFloat32(b Buffer, data []float32) error {
	if uint32(len(data))*4 > b.size {
		return fmt.Errorf("ocl: write of %d floats exceeds buffer size %d", len(data), b.size)
	}
	raw := d.scratchBytes(len(data) * 4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return d.memory.WriteBytes(b.addr, raw)
}

// ReadFloat32 copies n float32 values out of the buffer.
func (d *Device) ReadFloat32(b Buffer, n int) ([]float32, error) {
	if uint32(n)*4 > b.size {
		return nil, fmt.Errorf("ocl: read of %d floats exceeds buffer size %d", n, b.size)
	}
	raw := d.scratchBytes(n * 4)
	if err := d.memory.ReadBytesInto(raw, b.addr); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

// WriteUint32 copies host data into the buffer.
func (d *Device) WriteUint32(b Buffer, data []uint32) error {
	if uint32(len(data))*4 > b.size {
		return fmt.Errorf("ocl: write of %d words exceeds buffer size %d", len(data), b.size)
	}
	raw := d.scratchBytes(len(data) * 4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], v)
	}
	return d.memory.WriteBytes(b.addr, raw)
}

// ReadUint32 copies n uint32 values out of the buffer.
func (d *Device) ReadUint32(b Buffer, n int) ([]uint32, error) {
	if uint32(n)*4 > b.size {
		return nil, fmt.Errorf("ocl: read of %d words exceeds buffer size %d", n, b.size)
	}
	raw := d.scratchBytes(n * 4)
	if err := d.memory.ReadBytesInto(raw, b.addr); err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}
	return out, nil
}

// FlushCaches invalidates the cache hierarchy (cold-cache experiments).
func (d *Device) FlushCaches() { d.hier.Flush() }

// Reset restores the device to its NewDevice state while keeping its
// allocations: Reshape to the configuration it already has. After Reset the
// device is byte-identical in behaviour to a freshly constructed one:
// memory zeroed (the pages the run dirtied; see mem.Memory.Reset) and shrunk
// to the heap base, cache and DRAM state rewound, simulator
// cycle/statistics/scheduler state cleared, the mapper back to core.Auto,
// the dispatch overhead back to the default, and any observer removed.
func (d *Device) Reset() {
	d.hier.Reset()
	d.sim.Reset()
	d.resetRuntime()
}

// resetRuntime rewinds what the runtime layers on top of the hierarchy and
// the simulator: the memory image, the buffer allocator, the mapper, the
// dispatch overhead and the observer.
func (d *Device) resetRuntime() {
	d.memory.Reset()
	d.SetObserver(nil)
	d.mapper = core.Auto{}
	d.DispatchOverhead = DefaultDispatchOverhead
	d.allocTop = HeapBase
	d.resident = nil
}
