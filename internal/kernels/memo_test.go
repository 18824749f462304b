package kernels

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ocl"
	"repro/internal/sim"
)

// memoryImage returns d's whole memory image.
func memoryImage(t *testing.T, d *ocl.Device) []byte {
	t.Helper()
	m := d.Sim().Memory()
	raw, err := m.ReadBytes(0, m.Size())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCaseMemoSharesBuilds pins that repeated registry builds of one
// (kernel, Params) on devices at the heap base share one built case, that
// the seed, the scale and the kernel are part of its key, and that the
// shared case verifies on every device it was replayed onto.
func TestCaseMemoSharesBuilds(t *testing.T) {
	ResetInputCache()
	vecadd, _ := ByName("vecadd")
	relu, _ := ByName("relu")
	p := Params{Scale: 0.05, Seed: 42}
	build := func(s Spec, p Params) *Case {
		t.Helper()
		d := dev(t, 1, 2, 4)
		c, err := s.Build(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunVerified(d, 0, new(Result)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	first := build(vecadd, p)
	if got := InputCacheStats(); got != (ocl.CacheCounters{Misses: 1}) {
		t.Fatalf("after the first build: %+v, want one build", got)
	}
	if again := build(vecadd, p); again != first {
		t.Error("a second build of one key built a new case")
	}
	if got := InputCacheStats(); got != (ocl.CacheCounters{Hits: 1, Misses: 1}) {
		t.Errorf("after the replay: %+v, want one build and one replay", got)
	}
	for _, other := range []struct {
		what string
		s    Spec
		p    Params
	}{
		{"seed", vecadd, Params{Scale: 0.05, Seed: 43}},
		{"scale", vecadd, Params{Scale: 0.1, Seed: 42}},
		{"kernel", relu, p},
	} {
		if build(other.s, other.p) == first {
			t.Errorf("%s not part of the memo key", other.what)
		}
	}
	if got := InputCacheStats(); got.Misses != 4 {
		t.Errorf("counters %+v, want 4 builds", got)
	}
	ResetInputCache()
	if got := InputCacheStats(); got != (ocl.CacheCounters{}) {
		t.Errorf("after ResetInputCache: %+v", got)
	}
	if build(vecadd, p) == first {
		t.Error("ResetInputCache kept a memoized case")
	}
}

// TestCaseMemoConcurrentSingleBuild races workers, each with its own
// device, on one key of an empty memo: exactly one builds the case, the
// others wait for that build and replay it, and every worker's run
// verifies. Under -race it also holds the shared case to read-only use.
func TestCaseMemoConcurrentSingleBuild(t *testing.T) {
	ResetInputCache()
	spec, _ := ByName("gcn_layer")
	const workers = 8
	got := make([]*Case, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := ocl.NewDevice(sim.DefaultConfig(1, 2, 4))
			if err != nil {
				t.Error(err)
				return
			}
			c, err := spec.Build(d, Params{Scale: 0.02, Seed: 7})
			if err == nil {
				err = c.RunVerified(d, 0, new(Result))
			}
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	wg.Wait()
	if s := InputCacheStats(); s != (ocl.CacheCounters{Hits: workers - 1, Misses: 1}) {
		t.Errorf("counters %+v, want 1 build and %d replays", s, workers-1)
	}
	for i, c := range got {
		if c != got[0] {
			t.Errorf("worker %d got a case of its own", i)
		}
	}
}

// TestCaseReplayMatchesBuild holds the replay to the build for each of the
// nine registry kernels: on a second reset device, the replayed case must
// leave a byte-identical memory image, report identical launches and
// verify. A device that already holds a buffer must get a fresh build,
// never a replay, and that build must run and verify at its own addresses.
func TestCaseReplayMatchesBuild(t *testing.T) {
	cfg := sim.DefaultConfig(2, 2, 4)
	pool := ocl.NewDevicePool(2)
	for _, spec := range Registry() {
		t.Run(spec.Name, func(t *testing.T) {
			ResetInputCache()
			p := Params{Scale: 0.02, Seed: 5}
			devs := make([]*ocl.Device, 2)
			cases := make([]*Case, 2)
			images := make([][]byte, 2)
			results := make([]Result, 2)
			for i := range devs {
				d, err := pool.Get(cfg) // a reset device
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Put(d)
				devs[i] = d
				if cases[i], err = spec.Build(d, p); err != nil {
					t.Fatal(err)
				}
				images[i] = memoryImage(t, d)
				if err := cases[i].RunVerified(d, 0, &results[i]); err != nil {
					t.Fatal(err)
				}
			}
			if s := InputCacheStats(); s != (ocl.CacheCounters{Hits: 1, Misses: 1}) || cases[1] != cases[0] {
				t.Fatalf("second build was not a replay: counters %+v", s)
			}
			if !bytes.Equal(images[0], images[1]) {
				t.Error("replayed memory image differs from the built one")
			}
			if r0, r1 := results[0], results[1]; r0.Cycles != r1.Cycles || len(r0.Launches) != len(r1.Launches) {
				t.Fatalf("replay ran %+v, build %+v", r1, r0)
			}
			for i := range results[0].Launches {
				if results[0].Launches[i] != results[1].Launches[i] {
					t.Errorf("launch %d: replay %+v, build %+v", i, results[1].Launches[i], results[0].Launches[i])
				}
			}

			d := devs[0]
			d.Reset()
			if _, err := d.Alloc(64); err != nil {
				t.Fatal(err)
			}
			c, err := spec.Build(d, p)
			if err != nil {
				t.Fatal(err)
			}
			if c == cases[0] || InputCacheStats() != (ocl.CacheCounters{Hits: 1, Misses: 1}) {
				t.Fatal("a device holding a buffer got the memoized case")
			}
			if err := c.RunVerified(d, 0, new(Result)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
