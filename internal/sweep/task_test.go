package sweep

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocl"
)

// TestRunRejectsDuplicateScheds pins the sched-axis uniqueness rule:
// unlike a duplicated config (legal on a plain in-memory run, see
// TestRunRejectsDuplicateGridWhenKeyed), a duplicated scheduler is refused
// unconditionally — it can only be a typo, and it would silently double
// every per-sched aggregate.
func TestRunRejectsDuplicateScheds(t *testing.T) {
	dup := campaignOpts()
	dup.Axes = map[string][]string{"sched": {"rr", "gto", "rr"}}
	if _, err := Run(dup); err == nil || !strings.Contains(err.Error(), "duplicate sched entry rr") {
		t.Errorf("plain duplicate-sched run: err = %v", err)
	}
	if _, err := TaskGrid(dup); err == nil || !strings.Contains(err.Error(), "duplicate sched entry rr") {
		t.Errorf("duplicate-sched task grid: err = %v", err)
	}
}

// TestMergeRejectsDuplicateScheds pins the merge-side mirror of the rule:
// a checkpoint whose meta carries a repeated sched axis entry (only
// possible hand-edited; Run refuses to write one) is refused with a
// sched-specific diagnostic.
func TestMergeRejectsDuplicateScheds(t *testing.T) {
	opts := campaignOpts()
	meta := MetaFor(opts)
	meta.Scheds = "rr,rr"
	path := filepath.Join(t.TempDir(), "dupsched.jsonl")
	writeShardFile(t, path, meta, nil)
	if _, err := Merge("", []string{path}); err == nil || !strings.Contains(err.Error(), "duplicate sched entry rr") {
		t.Errorf("merge with duplicate sched axis: err = %v", err)
	}
}

// TestRunRejectsNegativeScale pins scale validation: zero still means
// "default to full scale" (the long-standing fill rule), negative is a
// refused request.
func TestRunRejectsNegativeScale(t *testing.T) {
	bad := campaignOpts()
	bad.Scale = -0.5
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "scale must be positive") {
		t.Errorf("negative scale: err = %v", err)
	}
	if got := (Options{}).Normalized().Scale; got != 1 {
		t.Errorf("zero scale normalized to %v, want 1", got)
	}
}

// TestTaskGridMatchesRunOrder pins the contract the campaign service
// depends on: TaskGrid enumerates exactly the records Run produces, in
// the same canonical order, with Index as the position — so tasks can
// cross the wire as bare grid indices.
func TestTaskGridMatchesRunOrder(t *testing.T) {
	opts := campaignOpts()
	grid, err := TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(res.Records) {
		t.Fatalf("grid has %d tasks, run produced %d records", len(grid), len(res.Records))
	}
	for i, task := range grid {
		if task.Index != i {
			t.Fatalf("grid[%d].Index = %d", i, task.Index)
		}
		if task.Key() != res.Records[i].Key() {
			t.Fatalf("grid[%d] = %s, record %d = %s", i, task.Key(), i, res.Records[i].Key())
		}
	}

	// And a single task replayed through RunTask reproduces the record Run
	// made for that cell, byte for byte.
	pool := ocl.NewDevicePool(1)
	rec := RunTask(opts, pool, grid[1])
	want, _ := json.Marshal(res.Records[1])
	got, _ := json.Marshal(rec)
	if string(want) != string(got) {
		t.Errorf("RunTask record = %s, want %s", got, want)
	}
}

// TestRunTaskSteadyStateAllocs is the small-task allocation gate: once a
// pool's one device has been through the widest grid point, running tiny
// tasks over alternating corner configurations must cost a few dozen KiB
// each — the device is reshaped, its memory image, cache arrays and
// register files are not rebuilt. Counts come from runtime.MemStats, so
// the gate is deterministic on any host (a rebuilt-per-task device costs
// ~2.3 MB and ~265 allocations here; a reshaped one ~20 KB and ~100).
func TestRunTaskSteadyStateAllocs(t *testing.T) {
	opts := Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 64, Warps: 32, Threads: 32}},
		Kernels: []string{"vecadd", "relu", "saxpy"},
		Scale:   0.02,
		Seed:    42,
	}
	grid, err := TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate the two configurations from task to task.
	half := len(grid) / 2
	var tasks []Task
	for i := 0; i < half; i++ {
		tasks = append(tasks, grid[i], grid[half+i])
	}
	pool := ocl.NewDevicePool(1)
	pass := func() {
		for _, task := range tasks {
			if rec := RunTask(opts, pool, task); rec.Err != "" {
				t.Fatalf("%s: %s", task.Key(), rec.Err)
			}
		}
	}
	pass() // warm-up: device, program cache, input memo

	const passes = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	n := uint64(passes * len(tasks))
	bytesPerTask := (after.TotalAlloc - before.TotalAlloc) / n
	allocsPerTask := (after.Mallocs - before.Mallocs) / n
	t.Logf("%d B and %d allocations per task over %d tasks", bytesPerTask, allocsPerTask, n)
	if bytesPerTask > 64<<10 {
		t.Errorf("%d B allocated per task, want at most %d", bytesPerTask, 64<<10)
	}
	if allocsPerTask > 150 {
		t.Errorf("%d allocations per task, want at most 150", allocsPerTask)
	}
	if st := pool.Stats(); st.Misses != 1 {
		t.Errorf("pool built %d devices, want 1", st.Misses)
	}
}
