// Package vortex is the public API of this reproduction of "Optimising
// GPGPU Execution Through Runtime Micro-Architecture Parameter Analysis"
// (IISWC 2023): a cycle-level Vortex-like RISC-V GPGPU simulator, an
// OpenCL-style host runtime, and the paper's contribution — runtime
// selection of the local work size (lws) from the device's
// micro-architecture parameters (Eq. 1: lws = gws / (cores x warps x
// threads)).
//
// Quick start: the package Example (example_test.go, run and checked by
// go test) allocates and fills device buffers, binds a kernel written in
// device assembly, and launches it with lws=0, so that Eq. 1 picks the lws
// at runtime from the device's micro-architecture; it then compares that
// choice with the paper's fixed lws=1 and lws=32 mappings.
//
// The command-line front end is cmd/vortex: "vortex run" executes one
// kernel and prints its launch report, "vortex sweep" regenerates the
// Figure 2 campaign ("vortex sweep -oracle" also searches the lws space
// and reports Eq. 1's regret), "vortex trace" the Figure 1 waveforms and
// "vortex asm" assembles device code.
//
// The deeper layers are importable directly: internal/sim (the simulator),
// internal/ocl (the runtime), internal/core (the mapper), internal/kernels
// (the paper's nine benchmark workloads), internal/sweep (the Figure 2
// campaign), internal/trace (Figure 1 tracing).
package vortex

import (
	"repro/internal/core"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// Re-exported core types.
type (
	// Device is a simulated GPGPU with persistent memory and caches.
	Device = ocl.Device
	// Buffer is a device memory allocation.
	Buffer = ocl.Buffer
	// Kernel is a kernel with bound arguments.
	Kernel = ocl.Kernel
	// KernelSource is assembly device code (see ocl.KernelSource for the
	// body ABI).
	KernelSource = ocl.KernelSource
	// LaunchResult reports one completed NDRange execution.
	LaunchResult = ocl.LaunchResult
	// Config is the full device configuration.
	Config = sim.Config
	// HWInfo is the runtime-visible micro-architecture geometry.
	HWInfo = core.HWInfo
	// Mapper chooses an lws when the host passes lws=0.
	Mapper = core.Mapper
	// Advice explains an Eq. 1 decision.
	Advice = core.Advice
	// Regime classifies a launch per the paper's Section 2 taxonomy.
	Regime = core.Regime
)

// Launch regimes (Section 2).
const (
	RegimeUnder = core.RegimeUnder
	RegimeExact = core.RegimeExact
	RegimeOver  = core.RegimeOver
)

// NewDevice builds a simulated device.
func NewDevice(cfg Config) (*Device, error) { return ocl.NewDevice(cfg) }

// DefaultConfig returns a cores x warps x threads device with the standard
// memory hierarchy and latencies.
func DefaultConfig(cores, warps, threads int) Config {
	return sim.DefaultConfig(cores, warps, threads)
}

// NewKernel wraps a kernel source for argument binding.
func NewKernel(src KernelSource) (*Kernel, error) { return ocl.NewKernel(src) }

// OptimalLWS evaluates the paper's Eq. 1 for a workload and device.
func OptimalLWS(gws int, hw HWInfo) int { return core.OptimalLWS(gws, hw) }

// Advise explains the Eq. 1 decision for a prospective launch.
func Advise(gws int, hw HWInfo) Advice { return core.Advise(gws, hw) }

// AutoMapper returns the paper's runtime mapper (Eq. 1).
func AutoMapper() Mapper { return core.Auto{} }

// NaiveMapper returns the lws=1 baseline mapper.
func NaiveMapper() Mapper { return core.Naive{} }

// FixedMapper returns a hardware-agnostic fixed-lws mapper (the paper's
// second baseline uses n=32).
func FixedMapper(n int) Mapper { return core.Fixed{N: n} }
