package ocl

import (
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
// A device grows in place: when a Get asks for a configuration larger than
// any the device has held, Reshape grows its arrays and keeps them, so a
// pool that lives across campaigns (sweep.ProcessPool) stops allocating
// once its devices have met the largest configuration they serve.
//
// Get/Put are safe for concurrent use by sweep workers.
type DevicePool struct {
	mu      sync.Mutex
	idle    []*Device // free list; the last element is the next Get's
	maxIdle int       // idle devices retained; <= 0 means unbounded
	hits    uint64
	misses  uint64
}

// NewDevicePool builds a pool keeping at most maxIdle idle devices (a sweep
// needs at most its worker count; <= 0 removes the bound). A miss builds
// the device at the configuration asked for.
func NewDevicePool(maxIdle int) *DevicePool {
	return &DevicePool{maxIdle: maxIdle}
}

// Get returns a device in the NewDevice state of cfg: an idle one
// reshaped, or a new one when none is idle. An invalid cfg is refused
// either way; the device a failed reshape was tried on is dropped, never
// returned to the free list.
func (p *DevicePool) Get(cfg sim.Config) (*Device, error) {
	p.mu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.misses++
		p.mu.Unlock()
		return NewDevice(cfg)
	}
	d := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	p.hits++
	p.mu.Unlock()
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
