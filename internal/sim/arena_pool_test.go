package sim_test

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// poolTrapSrc stores gid to out[gid], then — for work items 37 and up — far
// out of bounds, which traps the launch while other warps are in flight.
var poolTrapSrc = ocl.KernelSource{
	Name: "trap_store",
	Body: `
	lw   t3, 0(a1)
	slli t6, a0, 2
	add  t3, t3, t6
	sw   a0, 0(t3)
	slti t4, a0, 37
	addi t4, t4, -1
	li   t5, 0x7F000000
	and  t4, t4, t5
	add  t3, t3, t4
	sw   a0, 4(t3)
`,
}

// poolStep is one step of a walk: a device configuration, a registry
// kernel (or, when kernel is empty, poolTrapSrc over gws items), the mapper
// that picks each launch's lws, and how many times the case's launches run
// back to back on the device.
type poolStep struct {
	cfg    sim.Config
	kernel string
	gws    int
	mapper core.Mapper
	reps   int
}

// poolOutcome is what a step leaves observable: the report of every launch
// that completed, the error of the one that did not, and a digest of the
// device's whole memory image, every output buffer included.
type poolOutcome struct {
	results []ocl.LaunchResult
	err     string
	image   [sha256.Size]byte
}

// runPoolStep runs st on d, a device in the NewDevice state of st.cfg.
func runPoolStep(t *testing.T, d *ocl.Device, st poolStep) poolOutcome {
	t.Helper()
	d.SetMapper(st.mapper)
	var launches []kernels.LaunchSpec
	if st.kernel == "" {
		buf, err := d.AllocUint32(st.gws)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ocl.NewKernel(poolTrapSrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgs(buf); err != nil {
			t.Fatal(err)
		}
		launches = []kernels.LaunchSpec{{Kernel: k, GWS: st.gws}}
	} else {
		spec, err := kernels.ByName(st.kernel)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Build(d, kernels.Params{Scale: 0.02, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		launches = c.Launches
	}
	var o poolOutcome
	run := func() error {
		for rep := 0; rep < st.reps; rep++ {
			for _, l := range launches {
				res, err := d.EnqueueNDRange(l.Kernel, l.GWS, 0)
				if err != nil {
					return err
				}
				o.results = append(o.results, *res)
			}
		}
		return nil
	}
	if err := run(); err != nil {
		o.err = err.Error()
	}
	m := d.Sim().Memory()
	raw, err := m.ReadBytes(0, m.Size())
	if err != nil {
		t.Fatal(err)
	}
	o.image = sha256.Sum256(raw)
	return o
}

// TestPooledDeviceMatchesFresh is a seeded testing/quick property over
// random walks of (configuration, kernel, mapper) steps on one pooled
// device, whose register arena carries chunks — and whatever they last
// held — from step to step and from launch to launch within one. A step
// may run its launches twice without a Reset, stop at a random cycle
// limit, or trap in a store kernel; every launch report, error and memory
// image must equal those of the same step on a new device. Each step runs
// on two pooled devices: one that grows as the walk meets larger shapes,
// and one grown first to the grid's largest shape, 64c32w32t, which every
// step reshapes down.
func TestPooledDeviceMatchesFresh(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {1, 4, 8}, {2, 2, 4}, {2, 8, 32}, {4, 8, 16}, {8, 4, 64}, {3, 16, 2}}
	names := kernels.Names()
	mappers := core.PaperMappers()
	scheds := []sim.SchedPolicy{sim.SchedRoundRobin, sim.SchedGTO, sim.SchedOldestFirst, sim.SchedTwoLevel}
	sized := ocl.NewDevicePool(1)
	widest, err := sized.Get(sim.DefaultConfig(64, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	sized.Put(widest)
	pools := [2]*ocl.DevicePool{ocl.NewDevicePool(1), sized}
	var pooled [2]*ocl.Device
	steps, failed := 0, 0

	walk := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for range 2 + rng.Intn(3) {
			sh := shapes[rng.Intn(len(shapes))]
			st := poolStep{
				cfg:    sim.DefaultConfig(sh[0], sh[1], sh[2]),
				mapper: mappers[rng.Intn(len(mappers))],
				reps:   1 + rng.Intn(2),
			}
			st.cfg.Sched = scheds[rng.Intn(len(scheds))]
			switch rng.Intn(5) {
			case 0:
				st.gws = 40 + rng.Intn(200)
			case 1:
				st.kernel = names[rng.Intn(len(names))]
				st.cfg.MaxCycles = 1 + uint64(rng.Intn(3000))
			default:
				st.kernel = names[rng.Intn(len(names))]
			}
			fresh, err := ocl.NewDevice(st.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runPoolStep(t, fresh, st)
			steps++
			if want.err != "" {
				failed++
			}
			for i, pool := range pools {
				d, err := pool.Get(st.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if pooled[i] == nil {
					pooled[i] = d
				} else if d != pooled[i] {
					t.Fatal("the pool handed out a second device")
				}
				got := runPoolStep(t, d, st)
				pool.Put(d)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("step %d (%s, kernel %q, gws %d, %s, %d reps, max cycles %d): pooled device %d departs from a fresh one:\npooled %+v\nfresh  %+v",
						steps, st.cfg.Name(), st.kernel, st.gws, st.mapper.Name(), st.reps, st.cfg.MaxCycles, i, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(walk, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(49))}); err != nil {
		var ce *quick.CheckError
		if !errors.As(err, &ce) {
			t.Fatal(err)
		}
		t.Fatalf("walk seed %v: %v", ce.In, err)
	}
	if failed == 0 || failed == steps {
		t.Errorf("%d of %d steps failed: the walks must mix completed and stopped launches", failed, steps)
	}
}
