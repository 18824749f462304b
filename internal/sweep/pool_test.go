package sweep

import (
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// dropProcessPool replaces the process's device pool with an empty one,
// so that the next Run builds its devices.
func dropProcessPool() { devices = ocl.NewDevicePool(0) }

// taskConfigs returns the device configuration of each task.
func taskConfigs(t *testing.T, tasks []Task) []sim.Config {
	t.Helper()
	cfgs := make([]sim.Config, len(tasks))
	for i, task := range tasks {
		var err error
		if cfgs[i], err = task.config(); err != nil {
			t.Fatal(err)
		}
	}
	return cfgs
}

// getPutAllocs has pool serve one worker over cfgs, in order, and returns
// the bytes allocated after the first Get. It walks up to five times and
// reports the walk that allocated least, so that an allocation of the
// runtime's own that lands in one walk's count is not taken for the
// pool's.
func getPutAllocs(t *testing.T, pool *ocl.DevicePool, cfgs []sim.Config) uint64 {
	t.Helper()
	var least uint64
	for walk := range 5 {
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
	return least
}

// mustRun runs opts and fails the test on any error.
func mustRun(t *testing.T, opts Options) *Results {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// matchFresh fails the test unless recs are the records RunTask gives for
// opts's tasks on a new pool.
func matchFresh(t *testing.T, opts Options, recs []Record) {
	t.Helper()
	grid, err := TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := ocl.NewDevicePool(1)
	for i, task := range grid {
		if rec := RunTask(opts, fresh, task); rec != recs[i] {
			t.Errorf("RunTask on a new pool = %+v, want %+v", rec, recs[i])
		}
	}
}

// TestProcessPoolAcrossRuns runs one campaign twice back to back: the
// second Run builds no device, and both give the records RunTask gives on
// a pool of its own.
func TestProcessPoolAcrossRuns(t *testing.T) {
	opts := Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 4, Warps: 8, Threads: 16}},
		Kernels: []string{"vecadd", "saxpy"},
		Scale:   0.05,
		Seed:    7,
		Workers: 1,
	}
	first := mustRun(t, opts)
	second := mustRun(t, opts)
	if c := second.Cache; c.DevicesNew != 0 || c.DevicesReused != uint64(len(second.Records)) {
		t.Errorf("second Run: %d devices built, %d reused; want 0 and %d", c.DevicesNew, c.DevicesReused, len(second.Records))
	}
	if !slices.Equal(second.Records, first.Records) {
		t.Error("the second Run's records differ from the first's")
	}
	matchFresh(t, opts, second.Records)
}

// TestProcessPoolGrowsInPlace runs a small campaign, a larger one and the
// small one again on one worker. The first Run builds the pool's only
// device; the larger Run grows it in place and the third reshapes it down,
// so neither builds one. Once grown, the device serves every configuration
// of the larger Run without allocating, and every Run gives the records of
// RunTask on a new pool.
func TestProcessPoolGrowsInPlace(t *testing.T) {
	small := Options{
		Configs: []core.HWInfo{{Cores: 2, Warps: 16, Threads: 4}},
		Kernels: []string{"vecadd"},
		Scale:   0.05,
		Workers: 1,
	}
	large := Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 16, Warps: 4, Threads: 32}},
		Kernels: []string{"vecadd"},
		Axes:    map[string][]string{"mshrs": {"0", "8"}, "l1": {"64k8w", "16k4w"}},
		Scale:   0.05,
		Workers: 1,
	}
	largeTasks, err := TaskGrid(large)
	if err != nil {
		t.Fatal(err)
	}

	dropProcessPool()
	for i, opts := range []Options{small, large, small} {
		res := mustRun(t, opts)
		want := uint64(0)
		if i == 0 {
			want = 1
		}
		if res.Cache.DevicesNew != want {
			t.Errorf("Run %d built %d devices, want %d", i, res.Cache.DevicesNew, want)
		}
		matchFresh(t, opts, res.Records)
		if i == 1 {
			if n := getPutAllocs(t, ProcessPool(), taskConfigs(t, largeTasks)); n != 0 {
				t.Errorf("the grown device allocated %d B after its first Get, want 0", n)
			}
		}
	}
	if n := ProcessPool().IdleLen(); n != 1 {
		t.Errorf("the pool keeps %d idle devices after one-worker Runs, want 1", n)
	}
}

// TestProcessPoolResumeBuildsNothing resumes a campaign whose checkpoint
// holds every record, with a process pool too small for it: the Run gets
// no device, so it neither builds nor grows one.
func TestProcessPoolResumeBuildsNothing(t *testing.T) {
	big := Options{
		Configs:    []core.HWInfo{{Cores: 8, Warps: 8, Threads: 8}},
		Kernels:    []string{"vecadd"},
		Scale:      0.05,
		Workers:    1,
		Checkpoint: filepath.Join(t.TempDir(), "big.jsonl"),
	}
	ref := mustRun(t, big)

	dropProcessPool()
	mustRun(t, Options{Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}}, Kernels: []string{"vecadd"}, Scale: 0.05, Workers: 1})
	stats, idle := ProcessPool().Stats(), ProcessPool().IdleLen()

	big.Resume = true
	res := mustRun(t, big)
	if c := res.Cache; c.DevicesNew != 0 || c.DevicesReused != 0 || c.Resumed != len(ref.Records) {
		t.Errorf("resume: %d devices built, %d reused, %d records resumed; want 0, 0, %d", c.DevicesNew, c.DevicesReused, c.Resumed, len(ref.Records))
	}
	if !slices.Equal(res.Records, ref.Records) {
		t.Error("the resumed records differ from the checkpointed Run's")
	}
	if ProcessPool().Stats() != stats || ProcessPool().IdleLen() != idle {
		t.Error("a resume that splices every record took a device from the process's pool")
	}
}

// TestProcessPoolConcurrentRuns runs two campaigns of different shapes and
// worker counts at once, from an empty pool and again from the pool they
// leave: each gives the records of a Run on its own, and the pool keeps at
// most as many idle devices as the two Runs have workers together.
func TestProcessPoolConcurrentRuns(t *testing.T) {
	campaigns := []Options{
		{
			Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 4, Warps: 4, Threads: 8}},
			Kernels: []string{"vecadd", "relu"},
			Scale:   0.05,
			Workers: 2,
		},
		{
			Configs: []core.HWInfo{{Cores: 8, Warps: 16, Threads: 16}, {Cores: 2, Warps: 8, Threads: 4}},
			Kernels: []string{"saxpy"},
			Axes:    map[string][]string{"mshrs": {"0", "4"}},
			Scale:   0.05,
			Workers: 1,
		},
	}
	want := make([][]Record, len(campaigns))
	for i, opts := range campaigns {
		want[i] = mustRun(t, opts).Records
	}
	dropProcessPool()
	for round := range 2 {
		got := make([]*Results, len(campaigns))
		errs := make([]error, len(campaigns))
		var wg sync.WaitGroup
		for i, opts := range campaigns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Run(opts)
			}()
		}
		wg.Wait()
		for i := range campaigns {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !slices.Equal(got[i].Records, want[i]) {
				t.Errorf("round %d: campaign %d's records differ from its Run alone", round, i)
			}
		}
		if n := ProcessPool().IdleLen(); n > 3 {
			t.Errorf("round %d: pool keeps %d idle devices, want at most 3", round, n)
		}
	}
}
