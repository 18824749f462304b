package ocl_test

import (
	"runtime"
	"testing"

	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// getPutAllocs has a pool made by newPool serve one worker over cfgs, in
// order, and returns the bytes allocated after the first Get and the pool.
// It walks a new pool up to five times and reports the walk that allocated
// least: a pool's growth repeats on every walk, while an allocation of the
// runtime's own that lands in the count does not.
func getPutAllocs(t *testing.T, newPool func() *ocl.DevicePool, cfgs []sim.Config) (uint64, *ocl.DevicePool) {
	t.Helper()
	var least uint64
	var pool *ocl.DevicePool
	for walk := range 5 {
		pool = newPool()
		var before, after runtime.MemStats
		for i, cfg := range cfgs {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			d, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool.Put(d)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; walk == 0 || n < least {
			least = n
		}
		if least == 0 {
			break
		}
	}
	return least, pool
}

// TestDevicePoolEnvelope holds a pool built at the grid's envelope,
// 64c32w32t, to its promise: after the first Get, reshaping its device to
// every other configuration of the 450-point grid, in grid order (cores,
// then warps, then threads ascending), allocates nothing, and it counts
// hits and misses exactly as a pool without an envelope does — whose device
// grows as the walk meets larger configurations.
func TestDevicePoolEnvelope(t *testing.T) {
	var cfgs []sim.Config
	for _, hw := range sweep.Grid() {
		cfgs = append(cfgs, sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads))
	}
	n, sized := getPutAllocs(t, func() *ocl.DevicePool {
		p, err := ocl.NewEnvelopePool(1, sim.DefaultConfig(64, 32, 32))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}, cfgs)
	if n != 0 {
		t.Errorf("the envelope pool allocated %d B after its first Get, want 0", n)
	}
	n, plain := getPutAllocs(t, func() *ocl.DevicePool { return ocl.NewDevicePool(1) }, cfgs)
	if n == 0 {
		t.Error("the pool without an envelope allocated nothing: the walk never grows a device")
	}
	if got, want := sized.Stats(), plain.Stats(); got != want {
		t.Errorf("envelope pool counts %+v, want %+v (the envelope-less pool's)", got, want)
	}
	if _, err := ocl.NewEnvelopePool(1, sim.Config{}); err == nil {
		t.Error("an invalid envelope was accepted")
	}
}
