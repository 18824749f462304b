package sweep

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// Sweep-level half of the memory-axis harness: MSHR bound, L1 geometry and
// prefetch policy as grid axes (canonical order, per-point record
// identity, checkpoint/shard/merge round trips and the
// v3 checkpoint version guard). The bare-sim and kernel-level halves live
// in internal/sim/memaxis_test.go and memaxis_matrix_test.go.

func memCampaignOpts() Options {
	return Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},
			{Cores: 2, Warps: 4, Threads: 4},
		},
		Kernels: []string{"vecadd"},
		Axes: map[string][]string{
			"mshrs":    {"0", "4"},
			"l1":       {mem.DefaultL1Geometry(), "8k2w"},
			"prefetch": {"off", "nextline"},
		},
		Scale:   0.05,
		Seed:    7,
		Workers: 2,
	}
}

// point returns the record's grid point: one value per Axes entry.
func (r Record) point() []string {
	point := make([]string, len(Axes))
	for i, a := range Axes {
		point[i] = a.get(r)
	}
	return point
}

// TestSweepMemAxes pins the memory-axis semantics: the grid nests mshrs,
// then l1, then prefetch innermost after the scheduler; every record names
// its memory point; and the per-value record slices are byte-identical to
// a campaign that swept only that value (each axis composes, it does not
// perturb).
func TestSweepMemAxes(t *testing.T) {
	res, err := Run(memCampaignOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := memCampaignOpts()
	points := Points(opts.Axes)
	want := len(opts.Configs) * len(opts.Kernels) * 3 * len(points)
	if len(res.Records) != want {
		t.Fatalf("swept %d records, want %d", len(res.Records), want)
	}
	for i, rec := range res.Records {
		if got, want := rec.point(), points[i%len(points)]; !slices.Equal(got, want) {
			t.Fatalf("record %d: grid point %v, want %v (mshrs>l1>prefetch must nest innermost)", i, got, want)
		}
	}
	for _, a := range Axes {
		for _, v := range opts.Axes[a.Name] {
			single := memCampaignOpts()
			single.Axes[a.Name] = []string{v}
			sres, err := Run(single)
			if err != nil {
				t.Fatal(err)
			}
			var subset []Record
			for _, rec := range res.Records {
				if a.get(rec) == v {
					subset = append(subset, rec)
				}
			}
			if !bytes.Equal(mustJSON(t, subset), mustJSON(t, sres.Records)) {
				t.Errorf("%s=%s: records from the full sweep differ from a single-value sweep", a.Name, v)
			}
		}
	}
}

// TestSweepMemDefaultPointIdentity is the sweep-record half of the
// differential oracle: the all-defaults memory point of a three-axis sweep
// is byte-identical to a campaign that never mentions the memory axes (the
// pre-axis grid shape).
func TestSweepMemDefaultPointIdentity(t *testing.T) {
	full, err := Run(memCampaignOpts())
	if err != nil {
		t.Fatal(err)
	}
	plain := memCampaignOpts()
	plain.Axes = nil
	oracle, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	var defaults []Record
	for _, rec := range full.Records {
		if rec.MSHRs == 0 && rec.L1 == mem.DefaultL1Geometry() && rec.Prefetch == mem.PrefetchOff.String() {
			defaults = append(defaults, rec)
		}
	}
	if !bytes.Equal(mustJSON(t, defaults), mustJSON(t, oracle.Records)) {
		t.Fatal("all-defaults memory point not byte-identical to the axis-free campaign")
	}
}

// TestShardMergeMemAxes runs the shard x merge contract over the 7-axis
// grid: shards striding the memory grid merge back byte-identically to the
// single-process run, a checkpointed resume splices every task, and a
// duplicated entry on any memory axis is refused when checkpointing.
func TestShardMergeMemAxes(t *testing.T) {
	dir := t.TempDir()
	ref, err := Run(memCampaignOpts())
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		opts := memCampaignOpts()
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
		t.Fatal("memory-axis shard merge not byte-identical to the single-process run")
	}

	// Resume from the merged checkpoint: a full splice, nothing re-run.
	res := memCampaignOpts()
	res.Checkpoint = mergedPath
	res.Resume = true
	executed := 0
	res.OnRecord = func(Record) { executed++ }
	fromMerged, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 || fromMerged.Cache.Resumed != len(ref.Records) {
		t.Errorf("memory-axis resume ran %d tasks (resumed %d), want a full splice", executed, fromMerged.Cache.Resumed)
	}

	// A duplicated entry on any of the three axes aliases task keys and
	// must be refused when checkpointing.
	for name, values := range map[string][]string{
		"mshrs":    {"4", "4"},
		"l1":       {"8k2w", "8k2w"},
		"prefetch": {"off", "off"},
	} {
		dup := memCampaignOpts()
		dup.Axes[name] = values
		dup.Checkpoint = filepath.Join(dir, "dup-"+name+".jsonl")
		if _, err := Run(dup); err == nil {
			t.Errorf("checkpointed sweep accepted a duplicated %s-axis entry", name)
		}
	}
}

// TestSweepRejectsBadMemAxisValues pins the Options-boundary validation of
// the three axes: negative, non-canonical or duplicated MSHR bounds,
// malformed or duplicated geometry specs, unknown or duplicated prefetch
// policies, and an axis the table does not know are refused before any
// task runs.
func TestSweepRejectsBadMemAxisValues(t *testing.T) {
	cases := []struct {
		name   string
		axis   string
		values []string
		wants  string
	}{
		{"negative mshrs", "mshrs", []string{"-1"}, `bad mshrs value "-1"`},
		{"non-canonical mshrs", "mshrs", []string{"04"}, `bad mshrs value "04": spell it 4`},
		{"dup mshrs", "mshrs", []string{"4", "4"}, "duplicate mshrs entry 4"},
		{"bad l1 spec", "l1", []string{"16kb4"}, `bad l1 value "16kb4"`},
		{"unrealizable l1", "l1", []string{"3k4w"}, `bad l1 value "3k4w"`},
		{"dup l1", "l1", []string{"8k2w", "8k2w"}, "duplicate l1 entry 8k2w"},
		{"dup prefetch", "prefetch", []string{"off", "off"}, "duplicate prefetch entry off"},
		{"unknown prefetch", "prefetch", []string{"banana"}, "unknown prefetch policy"},
		{"unknown axis", "mshr", []string{"4"}, `unknown grid axis "mshr"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := memCampaignOpts()
			opts.Axes[tc.axis] = tc.values
			_, err := Run(opts)
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("%s: err = %v, want a refusal mentioning %q", tc.name, err, tc.wants)
			}
		})
	}
}

// TestSweepResumeRejectsV3Checkpoint pins the version guard: a v3
// checkpoint (pre-memory-axes) carries no per-record MSHR/L1/prefetch
// identity and is refused with the version diagnostic instead of being
// spliced into a grid it cannot address.
func TestSweepResumeRejectsV3Checkpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "old.jsonl")
	meta := MetaFor(memCampaignOpts())
	meta.Version = 3
	meta.MSHRs, meta.L1Geoms, meta.Prefetch = "", "", ""
	var buf bytes.Buffer
	buf.Write(append(mustJSON(t, meta), '\n'))
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res := memCampaignOpts()
	res.Checkpoint = ckpt
	res.Resume = true
	_, err := Run(res)
	if err == nil || !strings.Contains(err.Error(), "version 3 not supported") {
		t.Errorf("resume of a v3 checkpoint: err = %v, want the version diagnostic", err)
	}
}

// TestMemAxisMetaAndKeys pins the checkpoint identity plumbing: MetaFor
// carries the joined memory axes, and Record.Key addresses all seven grid
// axes so distinct memory points never alias.
func TestMemAxisMetaAndKeys(t *testing.T) {
	meta := MetaFor(memCampaignOpts())
	if meta.Version != checkpointVersion {
		t.Errorf("meta version = %d, want %d", meta.Version, checkpointVersion)
	}
	if meta.MSHRs != "0,4" {
		t.Errorf("meta mshrs = %q, want \"0,4\"", meta.MSHRs)
	}
	if meta.L1Geoms != mem.DefaultL1Geometry()+",8k2w" {
		t.Errorf("meta l1_geoms = %q", meta.L1Geoms)
	}
	if meta.Prefetch != "off,nextline" {
		t.Errorf("meta prefetch = %q", meta.Prefetch)
	}
	a := Record{Config: core.HWInfo{Cores: 1, Warps: 2, Threads: 2}, Kernel: "vecadd",
		Mapper: "ours", Sched: "rr", MSHRs: 0, L1: "16k4w", Prefetch: "off"}
	b := a
	b.MSHRs = 4
	c := a
	c.L1 = "8k2w"
	d := a
	d.Prefetch = "nextline"
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true, d.Key(): true}
	if len(keys) != 4 {
		t.Errorf("memory points alias task keys: %v", keys)
	}
	if got := strings.Count(a.Key(), "/"); got != 6 {
		t.Errorf("task key %q has %d separators, want 6 (seven axes)", a.Key(), got)
	}
}

// TestReportPairsWithinGridPoint pins that the Figure-2 report compares
// mappers within one grid point: with a memory axis swept, every
// (configuration, point) is its own ratio sample, and the crossover curve
// divides each point's baseline by the same point's "ours". The same
// records shuffled, behind a sample ours did not run and a failed record,
// give the same ratios as a multiset and the same curves and reports.
func TestReportPairsWithinGridPoint(t *testing.T) {
	// Per kernel and point: lws=1, lws=32 and ours cycles. vecadd's ratios
	// are 3x/2x at mshrs=0 and 2x/1x at mshrs=1.
	cyclesAt := map[string]map[string][3]uint64{
		"vecadd":   {"0": {300, 200, 100}, "1": {800, 400, 400}},
		"gcn_aggr": {"0": {100, 400, 100}, "1": {200, 200, 100}},
	}
	record := func(hw core.HWInfo, kernel, mshrs, mapper string) Record {
		return Task{Config: hw, Kernel: kernel, Mapper: namedMapper(mapper), Point: []string{"rr", mshrs, "16k4w", "off"}}.Record()
	}
	canon := &Results{}
	for _, hw := range []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 2, Warps: 2, Threads: 4}} {
		for _, k := range []string{"vecadd", "gcn_aggr"} {
			for _, mshrs := range []string{"0", "1"} {
				for mi, m := range []string{"lws=1", "lws=32", "ours"} {
					rec := record(hw, k, mshrs, m)
					rec.Cycles = cyclesAt[k][mshrs][mi]
					canon.Records = append(canon.Records, rec)
				}
			}
		}
	}
	if got, want := canon.Ratios("vecadd", "lws=1", "ours"), []float64{3, 2, 3, 2}; !slices.Equal(got, want) {
		t.Errorf("Ratios = %v, want %v (one sample per config and point)", got, want)
	}
	want := []CrossoverPoint{{HP: 4, MeanRatio: 1.5, N: 2}, {HP: 16, MeanRatio: 1.5, N: 2}}
	if got := canon.pairing().crossover("vecadd", "lws=32"); !slices.Equal(got, want) {
		t.Errorf("crossover = %v, want %v (baseline and ours paired within each point)", got, want)
	}

	// The records that lead the shuffle fix first-seen order (vecadd;
	// lws=1, lws=32, ours) and are no sample: at 4c4w4t, ours did not run
	// at mshrs=0 and failed at mshrs=1.
	hw := core.HWInfo{Cores: 4, Warps: 4, Threads: 4}
	failed := record(hw, "vecadd", "1", "ours")
	failed.Cycles, failed.Err = 25, "simulated failure"
	shuffled := &Results{Records: []Record{record(hw, "vecadd", "0", "lws=1"), record(hw, "vecadd", "0", "lws=32"), failed}}
	for i := range shuffled.Records[:2] {
		shuffled.Records[i].Cycles = 50
	}
	rest := slices.Clone(canon.Records)
	rand.New(rand.NewSource(1)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	shuffled.Records = append(shuffled.Records, rest...)

	for _, k := range canon.Kernels() {
		for _, base := range []string{"lws=1", "lws=32"} {
			a, b := canon.Ratios(k, base, "ours"), shuffled.Ratios(k, base, "ours")
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Errorf("%s over %s: shuffled Ratios %v, want %v", k, base, b, a)
			}
			if a, b := canon.pairing().crossover(k, base), shuffled.pairing().crossover(k, base); !slices.Equal(a, b) {
				t.Errorf("%s over %s: shuffled crossover %v, want %v", k, base, b, a)
			}
		}
	}
	for name, render := range map[string]func(*Results, *bytes.Buffer) error{
		"RenderTable":     func(r *Results, w *bytes.Buffer) error { return r.RenderTable(w) },
		"RenderOracle":    func(r *Results, w *bytes.Buffer) error { return r.RenderOracle(w) },
		"RenderCrossover": func(r *Results, w *bytes.Buffer) error { return r.RenderCrossover(w, "lws=32") },
	} {
		var a, b bytes.Buffer
		if err := render(canon, &a); err != nil {
			t.Fatal(err)
		}
		if err := render(shuffled, &b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s of the shuffled records:\n%s\nwant:\n%s", name, b.String(), a.String())
		}
	}
}

// namedMapper is a mapper known only by its name, for fabricated records.
type namedMapper string

func (m namedMapper) Name() string           { return string(m) }
func (namedMapper) LWS(int, core.HWInfo) int { return 1 }
