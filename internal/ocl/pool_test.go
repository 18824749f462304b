package ocl

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// launchVecadd runs vecadd(gws) with lws on an existing device and returns
// the launch report plus the output vector.
func launchVecadd(d *Device, gws, lws int) (*LaunchResult, []float32, error) {
	return launchBinary(d, vecaddSrc, gws, lws)
}

// launchBinary runs src, a kernel of vecadd's arguments (A, B, C), over
// fresh buffers on an existing device and returns the launch report plus
// the output vector C.
func launchBinary(d *Device, src KernelSource, gws, lws int) (*LaunchResult, []float32, error) {
	a := make([]float32, gws)
	b := make([]float32, gws)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(3 * i)
	}
	var bufs [3]Buffer
	for i := range bufs {
		var err error
		if bufs[i], err = d.AllocFloat32(gws); err != nil {
			return nil, nil, err
		}
	}
	if err := d.WriteFloat32(bufs[0], a); err != nil {
		return nil, nil, err
	}
	if err := d.WriteFloat32(bufs[1], b); err != nil {
		return nil, nil, err
	}
	k, err := NewKernel(src)
	if err != nil {
		return nil, nil, err
	}
	if err := k.SetArgs(bufs[0], bufs[1], bufs[2]); err != nil {
		return nil, nil, err
	}
	res, err := d.EnqueueNDRange(k, gws, lws)
	if err != nil {
		return nil, nil, err
	}
	out, err := d.ReadFloat32(bufs[2], gws)
	return res, out, err
}

func launchOnce(t *testing.T, d *Device, gws, lws int) (*LaunchResult, []float32) {
	t.Helper()
	res, out, err := launchVecadd(d, gws, lws)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// deviceState is everything a run leaves observable on a device: the launch
// report and output, the cycle counter, every per-core, per-L1, per-L2-bank
// and per-DRAM-channel counter, and a digest of the whole memory image.
type deviceState struct {
	res      *LaunchResult
	out      []float32
	cycle    uint64
	cores    []sim.CoreStats
	l1       []mem.CacheStats
	banks    []mem.CacheStats
	channels []mem.DRAMStats
	memSize  uint32
	image    [sha256.Size]byte
}

// runVecaddState runs vecadd on d and snapshots the device.
func runVecaddState(t *testing.T, d *Device, gws, lws int) deviceState {
	t.Helper()
	var st deviceState
	st.res, st.out = launchOnce(t, d, gws, lws)
	st.cycle = d.sim.Cycle()
	for c := 0; c < d.cfg.Cores; c++ {
		st.cores = append(st.cores, d.sim.CoreStatsOf(c))
		st.l1 = append(st.l1, d.hier.L1Stats(c))
	}
	for b := 0; b < d.hier.L2Banks(); b++ {
		st.banks = append(st.banks, d.hier.L2BankStats(b))
	}
	for ch := 0; ch < d.hier.DRAMChannels(); ch++ {
		st.channels = append(st.channels, d.hier.DRAMChannelStats(ch))
	}
	st.memSize = d.memory.Size()
	raw, err := d.memory.ReadBytes(0, st.memSize)
	if err != nil {
		t.Fatal(err)
	}
	st.image = sha256.Sum256(raw)
	return st
}

// requireFreshEqual runs vecadd on the recycled device d and on a new device
// of the same configuration and requires identical device states.
func requireFreshEqual(t *testing.T, label string, d *Device, gws, lws int) {
	t.Helper()
	fresh, err := NewDevice(d.Config())
	if err != nil {
		t.Fatal(err)
	}
	want := runVecaddState(t, fresh, gws, lws)
	got := runVecaddState(t, d, gws, lws)
	if want.cycle == 0 {
		t.Fatalf("%s: sanity: cycle counter did not advance", label)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: recycled device departs from a fresh one:\nfresh    %+v\nrecycled %+v", label, want, got)
	}
}

// dirty leaves every piece of host-visible runtime state on d in a
// non-default setting, after a run of its own. The observer fails the test
// if a later owner of the device inherits it.
func dirty(t *testing.T, d *Device, gws, lws int) {
	t.Helper()
	inherited := false
	d.SetMapper(core.Fixed{N: 32})
	d.DispatchOverhead = 9999
	d.SetObserver(func(sim.IssueEvent) {
		if inherited {
			t.Error("observer survived into the device's next use")
			inherited = false // report once
		}
	})
	launchOnce(t, d, gws, lws)
	inherited = true
}

// axisConfig is a device configuration that also moves the scheduler and
// the three memory-side axes away from their defaults.
func axisConfig(cores, warps, threads int, sched sim.SchedPolicy, l1 string, mshrs int, pf mem.PrefetchPolicy) sim.Config {
	cfg := sim.DefaultConfig(cores, warps, threads)
	cfg.Sched = sched
	size, ways, err := mem.ParseL1Geometry(l1)
	if err != nil {
		panic(err)
	}
	cfg.Mem.L1.SizeBytes, cfg.Mem.L1.Ways = size, ways
	cfg.Mem.L1.MSHRs, cfg.Mem.L2.MSHRs = mshrs, mshrs
	cfg.Mem.Prefetch = pf
	return cfg
}

// TestDeviceResetByteIdentical is the device-arena identity contract: after
// any prior workload, Reset — and Reshape to any other configuration — must
// make the next run indistinguishable from the same run on a freshly
// constructed device: launch report, output, cycle count, every per-core,
// per-L1, per-L2-bank and per-DRAM-channel statistic and the full memory
// image.
func TestDeviceResetByteIdentical(t *testing.T) {
	d, err := NewDevice(sim.DefaultConfig(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	dirty(t, d, 300, 7)
	d.Reset()
	requireFreshEqual(t, "reset", d, 512, 0)

	// Big -> small -> big geometry, every scheduler, and L1 geometry, MSHR
	// bound and prefetch policy all changing between tasks. The last step
	// returns to the first configuration through the full reshape path.
	seq := []sim.Config{
		axisConfig(16, 8, 16, sim.SchedGTO, "32k8w", 4, mem.PrefetchNextLine),
		axisConfig(1, 2, 2, sim.SchedOldestFirst, "8k2w", 1, mem.PrefetchOff),
		axisConfig(8, 32, 32, sim.SchedTwoLevel, "16k4w", 0, mem.PrefetchNextLine),
		axisConfig(3, 4, 8, sim.SchedRoundRobin, "64k16w", 2, mem.PrefetchOff),
		sim.DefaultConfig(2, 4, 4),
	}
	for i, cfg := range seq {
		dirty(t, d, 200+90*i, 1+i)
		if err := d.Reshape(cfg); err != nil {
			t.Fatal(err)
		}
		if d.Config() != cfg {
			t.Fatalf("step %d: config %+v after Reshape, want %+v", i, d.Config(), cfg)
		}
		requireFreshEqual(t, fmt.Sprintf("step %d (%s)", i, cfg.Name()), d, 512+64*i, 0)
	}
}

// trapSrc stores gid to out[gid], then to a stray address between the
// argument block and the heap, then — for work items 37 and up — far out of
// bounds, which traps the run while other warps are still in flight.
var trapSrc = KernelSource{
	Name: "trap_store",
	Body: `
	lw   t3, 0(a1)
	slli t6, a0, 2
	add  t3, t3, t6
	sw   a0, 0(t3)
	li   t5, 0x20000
	add  t5, t5, t6
	sw   a0, 0(t5)
	slti t4, a0, 37
	addi t4, t4, -1
	li   t5, 0x7F000000
	and  t4, t4, t5
	add  t3, t3, t4
	sw   a0, 4(t3)
`,
}

// TestDevicePoolReuseAfterTrap returns a device to the pool straight from a
// trap — warps active, scoreboards and wake heaps populated, stray stores
// below the heap — asks for a different configuration next, and requires
// the following run to equal a fresh device's.
func TestDevicePoolReuseAfterTrap(t *testing.T) {
	pool := NewDevicePool(1)
	d, err := pool.Get(axisConfig(4, 8, 8, sim.SchedGTO, "16k4w", 2, mem.PrefetchNextLine))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := d.AllocUint32(256)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(trapSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(buf); err != nil {
		t.Fatal(err)
	}
	_, err = d.EnqueueNDRange(k, 256, 1)
	var trap *sim.Trap
	if !errors.As(err, &trap) {
		t.Fatalf("trap kernel: got %v, want a trap", err)
	}
	if trap.Cycle == 0 || d.sim.ActiveWarps() < 2 {
		t.Fatalf("sanity: trap at cycle %d with %d active warps is not mid-run", trap.Cycle, d.sim.ActiveWarps())
	}
	stray := 0
	for a := uint32(0x20000); a < 0x20400; a += 4 {
		if v, _ := d.memory.Read32(a); v != 0 {
			stray++
		}
	}
	if stray == 0 {
		t.Fatal("sanity: no stray store below the heap landed before the trap")
	}
	pool.Put(d)

	for _, cfg := range []sim.Config{sim.DefaultConfig(2, 2, 4), sim.DefaultConfig(8, 16, 16)} {
		got, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatal("pool did not hand back the trapped device")
		}
		requireFreshEqual(t, "after trap, "+cfg.Name(), got, 384, 0)
		pool.Put(got)
	}
}

// TestDevicePoolReuse pins the pool policy: an idle device serves any
// configuration, Hits counts runs served by a recycled device and Misses
// fresh constructions, the idle set is bounded, and an invalid
// configuration is refused without poisoning the pool.
func TestDevicePoolReuse(t *testing.T) {
	pool := NewDevicePool(2)
	cfgA := sim.DefaultConfig(1, 2, 2)
	cfgB := axisConfig(4, 4, 8, sim.SchedGTO, "32k8w", 4, mem.PrefetchNextLine)

	d1, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	launchOnce(t, d1, 64, 0)
	pool.Put(d1)

	// Any-config reuse: the idle cfgA device serves cfgB, then cfgB again
	// (the plain-Reset path).
	for i := 0; i < 2; i++ {
		d, err := pool.Get(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		if d != d1 {
			t.Fatal("pool built a device while one was idle")
		}
		if d.Config() != cfgB || d.Sim().Cycle() != 0 {
			t.Fatalf("pooled device not reshaped: config %s, cycle %d", d.Config().Name(), d.Sim().Cycle())
		}
		requireFreshEqual(t, "reused", d, 128, 0)
		pool.Put(d)
	}

	// With the only device out, the next Get is a construction.
	held, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if d2 == held {
		t.Fatal("pool handed one device out twice")
	}
	if st := pool.Stats(); st.Hits != 3 || st.Misses != 2 {
		t.Errorf("pool stats = %+v, want 3 hits / 2 misses", st)
	}

	// The idle bound drops surplus devices instead of growing forever.
	pool.Put(held)
	pool.Put(d2)
	for i := 0; i < 3; i++ {
		extra, err := NewDevice(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(extra)
	}
	if n := pool.IdleLen(); n != 2 {
		t.Errorf("idle bound not enforced: %d devices retained, want 2", n)
	}

	// Invalid configurations are refused whether validation fails in the
	// simulator (65 threads) or only in the memory system (a 3-way 16 KiB L1
	// has a non-power-of-two set count), with idle devices and without, and
	// the pool keeps serving byte-identical devices afterwards.
	badSim := sim.DefaultConfig(1, 2, 65)
	badMem := sim.DefaultConfig(1, 2, 2)
	badMem.Mem.L1.Ways = 3
	for _, p := range []*DevicePool{pool, NewDevicePool(1)} {
		for _, bad := range []sim.Config{badSim, badMem} {
			if d, err := p.Get(bad); err == nil || d != nil {
				t.Errorf("Get(%s, L1 ways %d) = %v, %v; want an error", bad.Name(), bad.Mem.L1.Ways, d, err)
			}
		}
		for i := 0; i < 3; i++ {
			d, err := p.Get(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			requireFreshEqual(t, "after refused configs", d, 96, 0)
			p.Put(d)
		}
	}
}

// TestDevicePoolConcurrentReshape has two workers Get, run and Put over
// alternating configurations against one pool (run it under -race): every
// run must equal the same run on a fresh device, whichever arena served it.
func TestDevicePoolConcurrentReshape(t *testing.T) {
	cfgs := []sim.Config{
		sim.DefaultConfig(1, 2, 2),
		axisConfig(8, 8, 16, sim.SchedTwoLevel, "32k8w", 4, mem.PrefetchNextLine),
		sim.DefaultConfig(4, 4, 4),
	}
	type outcome struct {
		res *LaunchResult
		out []float32
	}
	want := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i].res, want[i].out = launchOnce(t, d, 200, 0)
	}

	pool := NewDevicePool(2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				ci := (i + w) % len(cfgs)
				d, err := pool.Get(cfgs[ci])
				if err != nil {
					t.Error(err)
					return
				}
				res, out, err := launchVecadd(d, 200, 0)
				pool.Put(d)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(outcome{res, out}, want[ci]) {
					t.Errorf("worker %d run %d on %s departs from a fresh device", w, i, cfgs[ci].Name())
				}
			}
		}(w)
	}
	wg.Wait()
	if st := pool.Stats(); st.Misses > 2 {
		t.Errorf("two workers built %d devices, want at most 2", st.Misses)
	}
}
