package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// renderAll captures every render path fed by merged results: the Figure 2
// table, the crossover curves and the raw CSV.
func renderAll(t *testing.T, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.RenderTable(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderCrossover(&buf, "lws=32"); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardMergeByteIdentical is the tentpole contract: a campaign split
// into N independent shard processes (one of them killed and resumed from a
// truncated checkpoint) and merged back together produces Records, report,
// CSV and checkpoint file byte-identical to an uninterrupted single-process
// Run, for several shard counts.
func TestShardMergeByteIdentical(t *testing.T) {
	dir := t.TempDir()

	ref, err := Run(campaignOpts())
	if err != nil {
		t.Fatal(err)
	}
	refRender := renderAll(t, ref)

	// A Workers=1 checkpointed run writes records in canonical task order —
	// the exact file Merge must reproduce.
	refCkpt := filepath.Join(dir, "ref.jsonl")
	refOpts := campaignOpts()
	refOpts.Workers = 1
	refOpts.Checkpoint = refCkpt
	if _, err := Run(refOpts); err != nil {
		t.Fatal(err)
	}
	refFile, err := os.ReadFile(refCkpt)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			paths := make([]string, n)
			for i := 0; i < n; i++ {
				paths[i] = filepath.Join(dir, fmt.Sprintf("n%d_shard%d.jsonl", n, i))
				opts := campaignOpts()
				opts.ShardIndex = i
				opts.ShardCount = n
				opts.Checkpoint = paths[i]
				shardRes, err := Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if i != 1%n {
					continue
				}
				// Simulate a killed shard: truncate its checkpoint to one
				// record and resume it mid-way. The resumed shard must end up
				// indistinguishable from an uninterrupted one.
				if len(shardRes.Records) < 2 {
					t.Fatalf("shard %d/%d has %d records, need >= 2 to truncate", i, n, len(shardRes.Records))
				}
				truncateCheckpoint(t, paths[i], 1)
				opts.Resume = true
				executed := 0
				opts.OnRecord = func(Record) { executed++ }
				resumed, err := Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Cache.Resumed != 1 || executed != len(shardRes.Records)-1 {
					t.Fatalf("shard resume spliced %d and re-ran %d of %d records",
						resumed.Cache.Resumed, executed, len(shardRes.Records))
				}
			}

			mergedPath := filepath.Join(dir, fmt.Sprintf("n%d_merged.jsonl", n))
			merged, err := Merge(mergedPath, paths)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, ref.Records), mustJSON(t, merged.Records)) {
				for i := range ref.Records {
					if !bytes.Equal(mustJSON(t, ref.Records[i]), mustJSON(t, merged.Records[i])) {
						t.Errorf("record %d differs:\nref    %+v\nmerged %+v", i, ref.Records[i], merged.Records[i])
					}
				}
				t.Fatal("merged records not byte-identical to single-process run")
			}
			if got := renderAll(t, merged); !bytes.Equal(refRender, got) {
				t.Errorf("merged report/CSV differs from single-process run:\n--- ref ---\n%s\n--- merged ---\n%s", refRender, got)
			}
			mergedFile, err := os.ReadFile(mergedPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refFile, mergedFile) {
				t.Error("merged checkpoint file not byte-identical to a Workers=1 single-process checkpoint")
			}

			// The merged checkpoint is a complete unsharded campaign: a Run
			// resuming from it re-simulates nothing and reproduces ref.
			resOpts := campaignOpts()
			resOpts.Checkpoint = mergedPath
			resOpts.Resume = true
			executed := 0
			resOpts.OnRecord = func(Record) { executed++ }
			fromMerged, err := Run(resOpts)
			if err != nil {
				t.Fatal(err)
			}
			if executed != 0 || fromMerged.Cache.Resumed != len(ref.Records) {
				t.Errorf("resume from merged checkpoint ran %d tasks (resumed %d), want a full splice",
					executed, fromMerged.Cache.Resumed)
			}
			if !bytes.Equal(mustJSON(t, ref.Records), mustJSON(t, fromMerged.Records)) {
				t.Error("records resumed from merged checkpoint not byte-identical")
			}
		})
	}
}

// TestShardPartition pins the stride partition: for several shard counts,
// the shards of a grid are pairwise disjoint, cover every task exactly
// once, and are balanced to within one task.
func TestShardPartition(t *testing.T) {
	base := campaignOpts()
	total := len(base.Configs) * len(base.Kernels) * 3 // default 3 mappers
	for _, n := range []int{1, 2, 3, 4, 7} {
		seen := map[string]int{}
		for i := 0; i < n; i++ {
			opts := campaignOpts()
			opts.ShardIndex = i
			opts.ShardCount = n
			var keys []string
			opts.OnRecord = func(r Record) { keys = append(keys, r.Key()) }
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != len(keys) {
				t.Fatalf("n=%d shard %d: %d records, %d callbacks", n, i, len(res.Records), len(keys))
			}
			lo, hi := total/n, (total+n-1)/n
			if len(keys) < lo || len(keys) > hi {
				t.Errorf("n=%d shard %d: %d tasks, want %d..%d (unbalanced)", n, i, len(keys), lo, hi)
			}
			for _, k := range keys {
				seen[k]++
			}
		}
		if len(seen) != total {
			t.Errorf("n=%d: shards cover %d distinct tasks, want %d", n, len(seen), total)
		}
		for k, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: task %s ran %d times", n, k, c)
			}
		}
	}
}

// TestRunRejectsDuplicateGridWhenKeyed pins that a grid with a repeated
// axis entry cannot be sharded or checkpointed (task keys would alias and
// mis-splice on resume/merge), while a plain in-memory run still accepts it.
func TestRunRejectsDuplicateGridWhenKeyed(t *testing.T) {
	dup := campaignOpts()
	dup.Configs = append(dup.Configs, dup.Configs[0])

	sharded := dup
	sharded.ShardCount = 2
	if _, err := Run(sharded); err == nil || !strings.Contains(err.Error(), "duplicate grid entry") {
		t.Errorf("sharded duplicate grid: err = %v", err)
	}

	ckpt := dup
	ckpt.Checkpoint = filepath.Join(t.TempDir(), "dup.jsonl")
	if _, err := Run(ckpt); err == nil || !strings.Contains(err.Error(), "duplicate grid entry") {
		t.Errorf("checkpointed duplicate grid: err = %v", err)
	}

	plain := dup
	if res, err := Run(plain); err != nil {
		t.Errorf("plain duplicate grid refused: %v", err)
	} else if want := (len(campaignOpts().Configs) + 1) * 2 * 3; len(res.Records) != want {
		t.Errorf("plain duplicate grid ran %d records, want %d", len(res.Records), want)
	}
}

// TestRunRejectsBadShard pins the shard-range validation.
func TestRunRejectsBadShard(t *testing.T) {
	for _, tc := range []struct{ idx, count int }{{3, 3}, {-1, 3}, {1, 0}} {
		opts := campaignOpts()
		opts.ShardIndex = tc.idx
		opts.ShardCount = tc.count
		if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("shard %d/%d: err = %v, want out-of-range", tc.idx, tc.count, err)
		}
	}
}

// TestShardResumeValidatesShardIdentity pins that a shard checkpoint can
// only be resumed by the same shard: the shard fields ride the meta header.
func TestShardResumeValidatesShardIdentity(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "shard.jsonl")
	opts := campaignOpts()
	opts.ShardIndex = 0
	opts.ShardCount = 2
	opts.Checkpoint = ckpt
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	wrong := opts
	wrong.ShardIndex = 1
	wrong.Resume = true
	if _, err := Run(wrong); err == nil {
		t.Error("shard 1/2 resumed shard 0/2's checkpoint")
	}
	unsharded := campaignOpts()
	unsharded.Checkpoint = ckpt
	unsharded.Resume = true
	if _, err := Run(unsharded); err == nil {
		t.Error("unsharded run resumed a shard checkpoint")
	}
}

// shardFixture writes hand-built shard checkpoints for a tiny synthetic
// campaign (2 configs x 1 kernel x default 3 mappers = 6 tasks, 2 shards)
// and returns the two paths plus the options that describe the grid.
func shardFixture(t *testing.T, dir string) (Options, []string) {
	t.Helper()
	opts := Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 2, Warps: 2, Threads: 4}},
		Kernels: []string{"vecadd"},
		Scale:   0.05,
		Seed:    7,
	}
	opts.fill()
	paths := make([]string, 2)
	for s := 0; s < 2; s++ {
		opts.ShardIndex = s
		opts.ShardCount = 2
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", s))
		writeShardFile(t, paths[s], MetaFor(opts), shardRecords(opts, s))
	}
	return opts, paths
}

// shardRecords synthesizes the records of one shard of the fixture grid.
func shardRecords(opts Options, shard int) []Record {
	var recs []Record
	for _, task := range enumerateTasks(opts, shard, 2) {
		rec := task.Record()
		rec.LWS, rec.Cycles, rec.Instrs = 1, uint64(1000+task.Index), uint64(100+task.Index)
		recs = append(recs, rec)
	}
	return recs
}

func writeShardFile(t *testing.T, path string, meta Meta, recs []Record) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(append(mustJSON(t, meta), '\n'))
	for _, r := range recs {
		buf.Write(append(mustJSON(t, r), '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeErrorPaths pins a distinct, diagnosable error for every way a
// merge can be handed an inconsistent shard set.
func TestMergeErrorPaths(t *testing.T) {
	dir := t.TempDir()
	opts, paths := shardFixture(t, dir)

	// The fixture itself merges cleanly.
	res, err := Merge("", paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("merged %d records, want 6", len(res.Records))
	}

	check := func(name, wantSub string, paths ...string) {
		t.Helper()
		_, err := Merge("", paths)
		if err == nil {
			t.Errorf("%s: merge accepted", name)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: err = %q, want substring %q", name, err, wantSub)
		}
	}

	check("no shards", "no shard checkpoints")
	check("missing shard", "missing shard 1/2", paths[0])
	check("overlapping shards", "overlapping shards", paths[0], paths[0])
	check("overlap with trailing full set", "overlapping shards", paths[0], paths[1], paths[1])

	// Mismatched meta: shard 1 written with a different seed.
	foreign := opts
	foreign.Seed = 99
	foreign.ShardIndex = 1
	foreign.ShardCount = 2
	foreignPath := filepath.Join(dir, "foreign.jsonl")
	writeShardFile(t, foreignPath, MetaFor(foreign), shardRecords(foreign, 1))
	check("mismatched meta", "meta mismatch", paths[0], foreignPath)
	check("mismatched meta names the field", "different sweep options (seed 7 vs 99)", paths[0], foreignPath)

	// Mixed-sched shard set: shard 1 swept a different scheduler axis. The
	// mismatch names the axis's meta field and the two policy sets.
	mixed := opts
	mixed.Axes = map[string][]string{"sched": {"gto"}}
	mixed.fill()
	mixed.ShardIndex = 1
	mixed.ShardCount = 2
	mixedPath := filepath.Join(dir, "mixedsched.jsonl")
	writeShardFile(t, mixedPath, MetaFor(mixed), shardRecords(mixed, 1))
	check("mixed-sched shard set", "different sweep options (scheds rr vs gto)", paths[0], mixedPath)

	// Every grid axis is named the same way.
	mixedMem := opts
	mixedMem.Axes = map[string][]string{"mshrs": {"4"}}
	mixedMem.fill()
	mixedMem.ShardIndex = 1
	mixedMem.ShardCount = 2
	mixedMemPath := filepath.Join(dir, "mixedmshrs.jsonl")
	writeShardFile(t, mixedMemPath, MetaFor(mixedMem), shardRecords(mixedMem, 1))
	check("mixed-mshrs shard set", "different sweep options (mshrs 0 vs 4)", paths[0], mixedMemPath)

	// A hand-edited meta with an unparseable or repeated axis value is
	// refused naming the axis, not reported as records outside the grid.
	for _, tc := range []struct {
		name, want string
		edit       func(*Meta)
	}{
		{"unparseable mshrs in meta", `bad mshrs value "x"`, func(m *Meta) { m.MSHRs = "x" }},
		{"repeated l1 in meta", "duplicate l1 entry 16k4w", func(m *Meta) { m.L1Geoms = "16k4w,16k4w" }},
	} {
		meta := MetaFor(opts)
		meta.ShardIndex, meta.ShardCount = 0, 1
		tc.edit(&meta)
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".jsonl")
		writeShardFile(t, path, meta, append(shardRecords(opts, 0), shardRecords(opts, 1)...))
		check(tc.name, tc.want, path)
	}

	// A v2 shard file (pre-sched-axis): refused by the checkpoint reader
	// with the version diagnostic, before any merge validation runs.
	v2Meta := MetaFor(opts)
	v2Meta.Version = 2
	v2Meta.Scheds = ""
	v2Path := filepath.Join(dir, "v2.jsonl")
	writeShardFile(t, v2Path, v2Meta, nil)
	check("v2 shard file", "version 2 not supported", v2Path)

	// Headerless shard: records with no meta line.
	headerless := filepath.Join(dir, "headerless.jsonl")
	var buf bytes.Buffer
	for _, r := range shardRecords(opts, 1) {
		buf.Write(append(mustJSON(t, r), '\n'))
	}
	if err := os.WriteFile(headerless, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	check("headerless shard", "no meta header", paths[0], headerless)

	// A record placed in the wrong shard's file.
	misplaced := opts
	misplaced.ShardIndex = 1
	misplaced.ShardCount = 2
	misplacedPath := filepath.Join(dir, "misplaced.jsonl")
	writeShardFile(t, misplacedPath, MetaFor(misplaced), shardRecords(opts, 0))
	check("misplaced record", "belongs to shard", paths[0], misplacedPath)

	// A record outside the campaign grid.
	alien := opts
	alien.ShardIndex = 1
	alien.ShardCount = 2
	alienRecs := append(shardRecords(opts, 1), Record{
		Config: core.HWInfo{Cores: 64, Warps: 32, Threads: 32},
		Kernel: "vecadd", Mapper: "ours", Sched: "rr", Cycles: 1,
	})
	alienPath := filepath.Join(dir, "alien.jsonl")
	writeShardFile(t, alienPath, MetaFor(alien), alienRecs)
	check("record outside grid", "not in the campaign grid", paths[0], alienPath)

	// An incomplete shard: all shard files present but one task missing.
	partial := opts
	partial.ShardIndex = 1
	partial.ShardCount = 2
	partialPath := filepath.Join(dir, "partial.jsonl")
	writeShardFile(t, partialPath, MetaFor(partial), shardRecords(opts, 1)[:2])
	check("incomplete shard", "grid not covered", paths[0], partialPath)

	// A missing file is a plain I/O error, not a panic.
	check("missing file", "no such file", paths[0], filepath.Join(dir, "nope.jsonl"))

	// A meta whose grid aliases two tasks onto one key (only possible in a
	// hand-edited file; Run refuses to write one).
	dupMeta := MetaFor(opts)
	dupMeta.ShardIndex = 0
	dupMeta.ShardCount = 1
	dupMeta.Configs = "1c2w2t,1c2w2t"
	dupPath := filepath.Join(dir, "dupgrid.jsonl")
	writeShardFile(t, dupPath, dupMeta, nil)
	check("duplicate grid in meta", "duplicate grid entry 1c2w2t", dupPath)
}

// TestRecordsPlacedByGridIndex holds placement by grid index. A shard file
// whose records run against grid order and hold one task twice, the later
// with other cycles, merges to the later record in canonical order; a
// resume of that shard file, and of an unsharded checkpoint written the
// same way, splices every task, the later record winning, without running
// one. A shard resume skips a record of another shard. A record whose
// config is outside the meta's grid is still refused.
func TestRecordsPlacedByGridIndex(t *testing.T) {
	dir := t.TempDir()
	opts, paths := shardFixture(t, dir)
	shard1 := shardRecords(opts, 1)
	later := shard1[0]
	later.Cycles = 4242
	scrambled := func(recs []Record) []Record {
		recs = slices.Clone(recs)
		slices.Reverse(recs)
		return append(recs, later)
	}
	one := opts
	one.ShardIndex, one.ShardCount = 1, 2
	writeShardFile(t, paths[1], MetaFor(one), scrambled(shard1))

	// The canonical grid interleaves the two shards, later in its slot.
	shard0 := shardRecords(opts, 0)
	var want []Record
	for i := range shard0 {
		want = append(want, shard0[i], shard1[i])
	}
	want[1] = later
	res, err := Merge("", paths)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Records, want) {
		t.Errorf("merged records:\n%+v\nwant\n%+v", res.Records, want)
	}

	resume := func(name string, o Options, want []Record) {
		t.Helper()
		o.Resume = true
		o.OnRecord = func(r Record) { t.Errorf("%s: resume ran %s", name, r.Key()) }
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cache.Resumed != len(want) || !slices.Equal(res.Records, want) {
			t.Errorf("%s: resumed %d records:\n%+v\nwant\n%+v", name, res.Cache.Resumed, res.Records, want)
		}
	}
	one.Checkpoint = filepath.Join(dir, "resume1.jsonl")
	writeShardFile(t, one.Checkpoint, MetaFor(one), append(scrambled(shard1), shardRecords(opts, 0)[0]))
	resume("shard resume", one, []Record{later, shard1[1], shard1[2]})
	full := opts
	full.ShardIndex, full.ShardCount = 0, 1
	full.Checkpoint = filepath.Join(dir, "full.jsonl")
	writeShardFile(t, full.Checkpoint, MetaFor(full), scrambled(append(slices.Clone(shard0), shard1...)))
	resume("full resume", full, want)

	alien := later
	alien.Config = core.HWInfo{Cores: 64, Warps: 32, Threads: 32}
	writeShardFile(t, paths[1], MetaFor(one), append(scrambled(shard1), alien))
	if _, err := Merge("", paths); err == nil || !strings.Contains(err.Error(), "not in the campaign grid") {
		t.Errorf("merge of a record outside the grid: err = %v, want it refused as not in the campaign grid", err)
	}
}
