package ocl

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// DevicePool reuses devices across runs of a campaign. A device is an arena
// (see Device.Reshape): its memory image, cache arrays and per-warp
// register files serve any configuration they are large enough for. The
// pool is therefore a free list of devices of any configuration: Get pops
// the most recently returned one and reshapes it to the requested
// configuration — a plain Reset when it already has it — which is
// byte-identical in behaviour to a fresh NewDevice. Reuse does not depend
// on the order a campaign visits its grid in: a worker that Gets and Puts
// one device at a time keeps reshaping the same arena, so a sweep builds
// about one device per worker, however its tasks are sharded or strided.
//
// A pool may carry an envelope (NewEnvelopePool): a configuration at least
// as large, in every shape array, as any its Gets ask for. A miss then
// builds the device at the envelope and reshapes it down, so the core and
// warp arrays, wake heaps, MSHR scratch and cache line arrays are allocated
// once and never regrown as the worker meets larger configurations. The
// envelope changes what a miss builds, never how many misses there are,
// and what a device runs: reshaped is byte-identical to fresh. A process
// keeps one envelope pool across its campaigns (sweep.ProcessPool). Where
// a process runs several, as the campaign benchmark does pass after pass,
// a warm pass builds no device and no register arena: 91–96 % less
// allocation per task than a pool built per campaign on the three
// in-memory workloads, 26 % on the durable one, whose two resident
// devices raise its peak RSS by about 16 %. A process that runs one
// campaign, as vortex sweep does, allocates as much as before (DESIGN.md
// "Campaign envelope").
//
// Get/Put are safe for concurrent use by sweep workers.
type DevicePool struct {
	mu       sync.Mutex
	idle     []*Device  // free list; the last element is the next Get's
	maxIdle  int        // idle devices retained; <= 0 means unbounded
	envelope sim.Config // what a miss builds before reshaping; zero: none
	hits     uint64
	misses   uint64
}

// NewDevicePool builds a pool keeping at most maxIdle idle devices (a sweep
// needs at most its worker count; <= 0 removes the bound). A miss builds
// the device at the configuration asked for.
func NewDevicePool(maxIdle int) *DevicePool {
	return &DevicePool{maxIdle: maxIdle}
}

// NewEnvelopePool builds a pool like NewDevicePool whose misses build each
// device at envelope and reshape it to the configuration asked for. An
// invalid envelope is refused.
func NewEnvelopePool(maxIdle int, envelope sim.Config) (*DevicePool, error) {
	if err := envelope.Validate(); err != nil {
		return nil, fmt.Errorf("ocl: pool envelope: %w", err)
	}
	return &DevicePool{maxIdle: maxIdle, envelope: envelope}, nil
}

// Get returns a device in the NewDevice state of cfg: an idle one
// reshaped, or a new one when none is idle — built at the envelope and
// reshaped, when the pool has one. An invalid cfg is refused either way;
// the device a failed reshape was tried on is dropped, never returned to
// the free list.
func (p *DevicePool) Get(cfg sim.Config) (*Device, error) {
	var d *Device
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		d = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.hits++
		p.mu.Unlock()
	} else {
		p.misses++
		p.mu.Unlock()
		if p.envelope.Cores == 0 {
			return NewDevice(cfg)
		}
		var err error
		if d, err = NewDevice(p.envelope); err != nil {
			return nil, err
		}
	}
	if d.cfg == cfg {
		d.Reset()
		return d, nil
	}
	if err := d.Reshape(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Put returns a device to the pool; when the pool already holds maxIdle
// devices it is dropped instead. The device may be in any state (a trapped
// simulation included): it is reshaped on its next Get.
func (p *DevicePool) Put(d *Device) {
	if d == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxIdle <= 0 || len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, d)
	}
}

// Stats returns the pool's reuse counters: Hits counts runs served by a
// recycled device, Misses counts fresh constructions.
func (p *DevicePool) Stats() CacheCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheCounters{Hits: p.hits, Misses: p.misses}
}

// IdleLen returns the number of idle devices currently retained.
func (p *DevicePool) IdleLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
