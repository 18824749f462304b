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

// dropProcessPool forgets the process's device pool, so that the next
// ProcessPool builds one, at its own tasks' envelope.
func dropProcessPool() {
	devices.Lock()
	defer devices.Unlock()
	devices.pool, devices.env, devices.workers = nil, envelope{}, 0
}

// processPool returns the process's device pool, its envelope and its
// worker count.
func processPool() (*ocl.DevicePool, envelope, int) {
	devices.Lock()
	defer devices.Unlock()
	return devices.pool, devices.env, devices.workers
}

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

// getPutAllocs has a pool made by newPool serve one worker over cfgs, in
// order, and returns the bytes allocated after the first Get. It walks up
// to five times and reports the walk that allocated least: a device's
// growth repeats on every walk of a new pool, while an allocation of the
// runtime's own that lands in the count does not.
func getPutAllocs(t *testing.T, newPool func() *ocl.DevicePool, cfgs []sim.Config) uint64 {
	t.Helper()
	var least uint64
	for walk := range 5 {
		pool := newPool()
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

// TestDevicePoolCampaignEnvelope holds ProcessPool to the envelope it
// derives from a campaign's tasks, walked in grid order, smallest first:
// the largest cores, warps and threads come from different configurations,
// the L1 geometry with the most lines and the largest MSHR bound are not
// the last on their axes, and a task whose configuration is refused
// (65 warps) must add nothing. After the first Get, no Get allocates.
func TestDevicePoolCampaignEnvelope(t *testing.T) {
	tasks, err := TaskGrid(Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 8, Warps: 32, Threads: 4}, {Cores: 64, Warps: 4, Threads: 32}},
		Kernels: []string{"vecadd"},
		Axes:    map[string][]string{"mshrs": {"0", "16", "4"}, "l1": {"16k4w", "64k8w", "32k8w"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := taskConfigs(t, tasks)
	refused := Task{Config: core.HWInfo{Cores: 2, Warps: 65, Threads: 2}, Point: tasks[0].Point}
	tasks = append(tasks, refused)
	newPool := func() *ocl.DevicePool {
		dropProcessPool()
		return ProcessPool(1, tasks)
	}
	if n := getPutAllocs(t, newPool, cfgs); n != 0 {
		t.Errorf("the campaign's pool allocated %d B after its first Get, want 0", n)
	}
	if pool := ProcessPool(1, []Task{refused}); pool == ProcessPool(1, []Task{refused}) {
		t.Error("a task list with no valid configuration shares a pool")
	}
	if pool, _, _ := processPool(); pool != ProcessPool(1, tasks) {
		t.Error("a task list with no valid configuration replaced the process's pool")
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
	grid, err := TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := ocl.NewDevicePool(1)
	for i, task := range grid {
		if rec := RunTask(opts, fresh, task); rec != second.Records[i] {
			t.Errorf("RunTask on a new pool = %+v, want %+v", rec, second.Records[i])
		}
	}
}

// TestProcessPoolGrowsToJoin runs a small campaign, a larger one and the
// small one again. The larger Run replaces the pool with one built at the
// join of both envelopes (the small campaign has the most warps), so no
// Get on its device grows it, and the third Run builds no device. A
// replacement keeps the larger of the two worker counts.
func TestProcessPoolGrowsToJoin(t *testing.T) {
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
	smallTasks, err := TaskGrid(small)
	if err != nil {
		t.Fatal(err)
	}
	largeTasks, err := TaskGrid(large)
	if err != nil {
		t.Fatal(err)
	}

	dropProcessPool()
	if res := mustRun(t, small); res.Cache.DevicesNew != 1 {
		t.Errorf("first small Run built %d devices, want 1", res.Cache.DevicesNew)
	}
	before, _, _ := processPool()
	if res := mustRun(t, large); res.Cache.DevicesNew != 1 {
		t.Errorf("large Run built %d devices, want 1", res.Cache.DevicesNew)
	}
	pool, env, workers := processPool()
	if pool == before {
		t.Error("the large Run kept a pool that does not cover it")
	}
	if want := envelopeOf(smallTasks).join(envelopeOf(largeTasks)); env != want || workers != 1 {
		t.Errorf("pool envelope %+v and %d workers, want %+v and 1", env, workers, want)
	}
	if n := getPutAllocs(t, func() *ocl.DevicePool { return pool }, taskConfigs(t, largeTasks)); n != 0 {
		t.Errorf("the large Run's device allocated %d B after its first Get, want 0", n)
	}
	if res := mustRun(t, small); res.Cache.DevicesNew != 0 {
		t.Errorf("second small Run built %d devices, want 0", res.Cache.DevicesNew)
	}
	if after, _, _ := processPool(); after != pool {
		t.Error("the second small Run replaced a pool that covers it")
	}

	// A replacement keeps the largest worker count asked for.
	dropProcessPool()
	ProcessPool(2, smallTasks)
	ProcessPool(1, largeTasks)
	if _, _, workers := processPool(); workers != 2 {
		t.Errorf("pool replaced by a one-worker campaign keeps %d idle devices, want 2", workers)
	}
}

// TestProcessPoolResumeBuildsNothing resumes a campaign whose checkpoint
// holds every record, with a process pool too small for it: the Run builds
// no device and leaves the pool as it was.
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
	pool, env, workers := processPool()

	big.Resume = true
	res := mustRun(t, big)
	if c := res.Cache; c.DevicesNew != 0 || c.DevicesReused != 0 || c.Resumed != len(ref.Records) {
		t.Errorf("resume: %d devices built, %d reused, %d records resumed; want 0, 0, %d", c.DevicesNew, c.DevicesReused, c.Resumed, len(ref.Records))
	}
	if !slices.Equal(res.Records, ref.Records) {
		t.Error("the resumed records differ from the checkpointed Run's")
	}
	if p, e, w := processPool(); p != pool || e != env || w != workers {
		t.Error("a resume that splices every record changed the process's pool")
	}
}

// TestProcessPoolConcurrentRuns runs two campaigns of different envelopes
// and worker counts at once, from an empty pool and again from the pool
// they leave: each gives the records of a Run on its own, and the pool
// keeps at most the larger worker count of idle devices.
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
		if pool, _, workers := processPool(); workers > 2 || pool.IdleLen() > 2 {
			t.Errorf("round %d: pool keeps %d idle devices for %d workers, want at most 2", round, pool.IdleLen(), workers)
		}
	}
}
