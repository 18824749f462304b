package sweep

import (
	"encoding/json"
	"fmt"
	"math"
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
// "default to full scale" (the long-standing fill rule), a negative, NaN or
// infinite scale is a refused request on both Run and TaskGrid.
func TestRunRejectsNegativeScale(t *testing.T) {
	for _, scale := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := campaignOpts()
		bad.Scale = scale
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "scale must be positive") {
			t.Errorf("Run with scale %v: err = %v", scale, err)
		}
		if _, err := TaskGrid(bad); err == nil || !strings.Contains(err.Error(), "scale must be positive") {
			t.Errorf("TaskGrid with scale %v: err = %v", scale, err)
		}
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
// tasks over alternating corner configurations must cost a few hundred
// bytes each — the device is reshaped, its memory image, cache arrays and
// register files are not rebuilt, and the case is replayed from the case
// memo. What is left is RunTask's own case result. Counts come from
// runtime.MemStats, so the gate is deterministic on any host. The bounds
// are 1.2x the measured 384 B and 3 allocations (rounded up); a
// rebuilt-per-task device costs ~2.3 MB and ~265 allocations here, and a
// case built per task 715 B and 14.
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
	pass() // warm-up: device, program cache, case memo

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
	if bytesPerTask > 461 {
		t.Errorf("%d B allocated per task, want at most 461", bytesPerTask)
	}
	if allocsPerTask > 4 {
		t.Errorf("%d allocations per task, want at most 4", allocsPerTask)
	}
	if st := pool.Stats(); st.Misses != 1 {
		t.Errorf("pool built %d devices, want 1", st.Misses)
	}
}

// TestRunCampaignAllocs bounds what a whole warm campaign allocates: the
// Figure-2 vecadd and saxpy campaigns (15 subsampled configurations x 3
// mappers, scale 0.25), each run once to fill the program cache and input
// memo, then measured on a second Run. They run on one worker because only
// then do the counts repeat: with two, which pooled device each task lands
// on varies from run to run, and so do the counts. The warm Run takes its
// device from the process's pool, which the first Run filled, so it builds
// no device and no register arena, and its tasks replay their cases from
// the case memo. The bounds are 1.2x the most either campaign measured so
// (9,640 B, 20 allocations); with a case built per task and a report
// allocated per launch it took 49,480 B and 668, with a pool built per Run
// 1.02 MB and 1,800, and with a growing device 1.33 MB and 2,099.
func TestRunCampaignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the bounds hold for a plain build")
	}
	for _, kernel := range []string{"vecadd", "saxpy"} {
		t.Run(kernel, func(t *testing.T) {
			opts := Options{
				Configs: Subsample(Grid(), 15),
				Kernels: []string{kernel},
				Scale:   0.25,
				Seed:    42,
				Workers: 1,
			}
			if _, err := Run(opts); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes := after.TotalAlloc - before.TotalAlloc
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%d B and %d allocations per warm campaign", bytes, allocs)
			if bytes > 11_568 {
				t.Errorf("%d B allocated per campaign, want at most 11568", bytes)
			}
			if allocs > 24 {
				t.Errorf("%d allocations per campaign, want at most 24", allocs)
			}
		})
	}
}

// TestDurableFlowAllocs bounds what the durable flow allocates per record
// once warm: a campaign run as 3 checkpointed shards, Merge of the shard
// files into one checkpoint, and a resume from it that splices every
// record. One worker keeps the counts repeatable, as in
// TestRunCampaignAllocs. Records are placed by grid index, so reading,
// merging and resuming build no task-key strings and no record maps, and
// each shard decodes only its own tasks. The bounds are 1.2x the most
// measured (1,135 B and 1.44 allocations per record); with a case built
// per task it took 1,974 B and 14, and with records keyed by task-key
// strings about 3,220 B and 26.
func TestDurableFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the bounds hold for a plain build")
	}
	dir := t.TempDir()
	opts := Options{
		Configs: Subsample(Grid(), 90),
		Kernels: []string{"vecadd", "relu", "saxpy"},
		Scale:   0.02,
		Seed:    42,
		Workers: 1,
	}
	const shards = 3
	flow := func() int {
		paths := make([]string, shards)
		for i := range paths {
			paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
			o := opts
			o.ShardIndex, o.ShardCount, o.Checkpoint = i, shards, paths[i]
			if _, err := Run(o); err != nil {
				t.Fatal(err)
			}
		}
		merged := filepath.Join(dir, "merged.jsonl")
		res, err := Merge(merged, paths)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Checkpoint, o.Resume = merged, true
		resumed, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Cache.Resumed != len(res.Records) {
			t.Fatalf("resume spliced %d of %d records", resumed.Cache.Resumed, len(res.Records))
		}
		return len(res.Records)
	}
	flow() // warm-up: devices, program cache, case memo
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	records := uint64(flow())
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / records
	allocs := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("%d B and %.2f allocations per record over %d records", bytes, allocs, records)
	if bytes > 1362 {
		t.Errorf("%d B allocated per record, want at most 1362", bytes)
	}
	if allocs > 1.73 {
		t.Errorf("%.2f allocations per record, want at most 1.73", allocs)
	}
}
