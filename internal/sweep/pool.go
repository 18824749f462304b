package sweep

import (
	"sync"

	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// envelope is the shape a campaign's pooled devices are built at: field by
// field, the largest of any task's. The zero envelope has no task in it.
type envelope struct {
	cores, warps, threads int
	l1                    mem.CacheConfig // the L1 geometry with the most lines
	l1MSHRs, l2MSHRs      int
}

// envelopeOf returns the envelope of tasks. A task whose configuration is
// refused adds nothing.
func envelopeOf(tasks []Task) envelope {
	var e envelope
	for _, t := range tasks {
		cfg, err := t.config()
		if err != nil || cfg.Validate() != nil {
			continue
		}
		e = e.join(envelope{cfg.Cores, cfg.Warps, cfg.Threads, cfg.Mem.L1, cfg.Mem.L1.MSHRs, cfg.Mem.L2.MSHRs})
	}
	return e
}

func l1Lines(c mem.CacheConfig) int {
	if c.LineBytes == 0 {
		return 0
	}
	return c.SizeBytes / c.LineBytes
}

// join returns the field-by-field maximum of e and o. Of two L1 geometries
// with as many lines, e's is kept.
func (e envelope) join(o envelope) envelope {
	if l1Lines(o.l1) > l1Lines(e.l1) {
		e.l1 = o.l1
	}
	e.cores, e.warps, e.threads = max(e.cores, o.cores), max(e.warps, o.warps), max(e.threads, o.threads)
	e.l1MSHRs, e.l2MSHRs = max(e.l1MSHRs, o.l1MSHRs), max(e.l2MSHRs, o.l2MSHRs)
	return e
}

// covers reports whether a device built at e serves every task of o without
// growing.
func (e envelope) covers(o envelope) bool { return e.join(o) == e }

// config is the device configuration e's devices are built at.
func (e envelope) config() sim.Config {
	cfg := sim.DefaultConfig(e.cores, e.warps, e.threads)
	cfg.Mem.L1 = e.l1
	cfg.Mem.L1.MSHRs, cfg.Mem.L2.MSHRs = e.l1MSHRs, e.l2MSHRs
	return cfg
}

// devices is the process's device pool, built at env and keeping at most
// workers idle devices: the largest Workers any campaign has asked for.
var devices struct {
	sync.Mutex
	pool    *ocl.DevicePool
	env     envelope
	workers int
}

// ProcessPool returns the device pool that Run and service.Work share
// across the process, for a campaign over tasks run by workers (>= 1)
// goroutines. The pool is reused while its envelope covers the tasks'
// (the largest cores, warps and threads of any task, the L1 geometry with
// the most lines and the largest L1 and L2 MSHR bounds) and it keeps as
// many idle devices as workers. Otherwise it is replaced by one built at
// the join of the two envelopes, keeping the larger worker count, so no
// task's Get grows a device and only one envelope's devices stay resident.
// A device stays resident from its first Get until the process exits or
// such a replacement. Tasks whose configuration is refused add nothing;
// when every one is, the caller gets a pool of its own, without an
// envelope.
//
// Keeping the pool saves work only in a process that runs more than one
// campaign, such as the campaign benchmark's passes or a program calling
// Run in a loop. vortex sweep, vortex run and each -shard process make one
// Run and exit: they build as many devices as a pool of their own would,
// and hold them until exit.
func ProcessPool(workers int, tasks []Task) *ocl.DevicePool {
	env := envelopeOf(tasks)
	if env.cores == 0 {
		return ocl.NewDevicePool(workers)
	}
	devices.Lock()
	defer devices.Unlock()
	if devices.pool != nil && devices.env.covers(env) && devices.workers >= workers {
		return devices.pool
	}
	env, workers = devices.env.join(env), max(devices.workers, workers)
	pool, err := ocl.NewEnvelopePool(workers, env.config())
	if err != nil {
		// Unreachable: each field of the join is some valid task's.
		return ocl.NewDevicePool(workers)
	}
	devices.pool, devices.env, devices.workers = pool, env, workers
	return pool
}
