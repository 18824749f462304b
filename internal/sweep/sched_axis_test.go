package sweep

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// Sweep-level half of the scheduler harness: the warp scheduler as a grid
// axis (canonical order, per-policy record identity, checkpoint/shard/merge
// round trips).

func schedCampaignOpts() Options {
	return Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},
			{Cores: 2, Warps: 4, Threads: 4},
		},
		Kernels: []string{"vecadd"},
		Axes:    map[string][]string{"sched": {"rr", "gto", "oldest", "2lev"}},
		Scale:   0.05,
		Seed:    7,
		Workers: 2,
	}
}

// TestSweepSchedAxis pins the scheduler axis semantics: the grid nests the
// policy innermost, every record names its policy, and the per-policy
// record slices are byte-identical to a campaign that swept only that
// policy (the axis composes, it does not perturb).
func TestSweepSchedAxis(t *testing.T) {
	res, err := Run(schedCampaignOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := schedCampaignOpts()
	scheds := opts.Axes["sched"]
	want := len(opts.Configs) * len(opts.Kernels) * 3 * len(scheds)
	if len(res.Records) != want {
		t.Fatalf("swept %d records, want %d", len(res.Records), want)
	}
	for i, rec := range res.Records {
		if wantSched := scheds[i%len(scheds)]; rec.Sched != wantSched {
			t.Fatalf("record %d: sched %q, want %q (policy axis must nest innermost)", i, rec.Sched, wantSched)
		}
	}
	for _, sched := range scheds {
		single := schedCampaignOpts()
		single.Axes = map[string][]string{"sched": {sched}}
		sres, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		var subset []Record
		for _, rec := range res.Records {
			if rec.Sched == sched {
				subset = append(subset, rec)
			}
		}
		if !bytes.Equal(mustJSON(t, subset), mustJSON(t, sres.Records)) {
			t.Errorf("%s: records from the 4-policy sweep differ from a single-policy sweep", sched)
		}
	}
}

// TestShardMergeSchedAxis runs the shard x merge contract over a grid that
// includes the scheduler axis: shards striding a 4-axis grid merge back
// byte-identically to the single-process run, and a checkpointed resume
// splices per-(config, kernel, mapper, sched) task keys correctly.
func TestShardMergeSchedAxis(t *testing.T) {
	dir := t.TempDir()
	ref, err := Run(schedCampaignOpts())
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		opts := schedCampaignOpts()
		opts.ShardIndex = i
		opts.ShardCount = shards
		opts.Checkpoint = paths[i]
		if _, err := Run(opts); err != nil {
			t.Fatal(err)
		}
	}
	mergedPath := filepath.Join(dir, "merged.jsonl")
	merged, err := Merge(mergedPath, paths)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, ref.Records), mustJSON(t, merged.Records)) {
		t.Fatal("sched-axis shard merge not byte-identical to the single-process run")
	}

	// Resume from the merged checkpoint: a full splice, nothing re-run.
	res := schedCampaignOpts()
	res.Checkpoint = mergedPath
	res.Resume = true
	executed := 0
	res.OnRecord = func(Record) { executed++ }
	fromMerged, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 || fromMerged.Cache.Resumed != len(ref.Records) {
		t.Errorf("sched-axis resume ran %d tasks (resumed %d), want a full splice", executed, fromMerged.Cache.Resumed)
	}

	// A duplicated sched-axis entry aliases task keys and must be refused
	// when checkpointing, like any other duplicated axis entry.
	dup := schedCampaignOpts()
	dup.Axes = map[string][]string{"sched": {"gto", "gto"}}
	dup.Checkpoint = filepath.Join(dir, "dup.jsonl")
	if _, err := Run(dup); err == nil {
		t.Error("checkpointed sweep accepted a duplicated sched-axis entry")
	}
}
