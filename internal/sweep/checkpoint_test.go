package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
)

func campaignOpts() Options {
	return Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},
			{Cores: 2, Warps: 2, Threads: 4},
			{Cores: 4, Warps: 4, Threads: 4},
		},
		Kernels: []string{"vecadd", "saxpy"},
		Scale:   0.05,
		Seed:    7,
		Workers: 2,
	}
}

// mustJSON renders records for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// truncateCheckpoint rewrites path keeping the meta header and the first n
// record lines — the state a killed campaign leaves behind.
func truncateCheckpoint(t *testing.T, path string, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) < n+1 {
		t.Fatalf("checkpoint has %d lines, need meta + %d", len(lines), n)
	}
	keep := strings.Join(lines[:n+1], "\n") + "\n"
	if err := os.WriteFile(path, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSweepResumeByteIdentical is the campaign engine's core contract: a
// sweep killed after N records and restarted with Resume produces Records
// byte-identical to an uninterrupted run.
func TestSweepResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")

	cold, err := Run(campaignOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Full checkpointed run, then simulate the crash by truncating.
	full := campaignOpts()
	full.Checkpoint = ckpt
	if _, err := Run(full); err != nil {
		t.Fatal(err)
	}
	const kept = 7
	truncateCheckpoint(t, ckpt, kept)

	res := campaignOpts()
	res.Checkpoint = ckpt
	res.Resume = true
	executed := 0
	res.OnRecord = func(Record) { executed++ }
	resumed, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}

	if resumed.Cache.Resumed != kept {
		t.Errorf("resumed %d records, want %d", resumed.Cache.Resumed, kept)
	}
	if want := len(cold.Records) - kept; executed != want {
		t.Errorf("re-executed %d records, want %d", executed, want)
	}
	if !bytes.Equal(mustJSON(t, cold.Records), mustJSON(t, resumed.Records)) {
		for i := range cold.Records {
			if !bytes.Equal(mustJSON(t, cold.Records[i]), mustJSON(t, resumed.Records[i])) {
				t.Errorf("record %d differs:\ncold    %+v\nresumed %+v", i, cold.Records[i], resumed.Records[i])
			}
		}
		t.Fatal("resumed records not byte-identical to cold run")
	}

	// After the resume, the checkpoint holds the full campaign: a second
	// resume re-simulates nothing.
	res2 := campaignOpts()
	res2.Checkpoint = ckpt
	res2.Resume = true
	executed = 0
	res2.OnRecord = func(Record) { executed++ }
	again, err := Run(res2)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 || again.Cache.Resumed != len(cold.Records) {
		t.Errorf("second resume ran %d tasks (resumed %d), want a full splice", executed, again.Cache.Resumed)
	}
	if !bytes.Equal(mustJSON(t, cold.Records), mustJSON(t, again.Records)) {
		t.Error("fully resumed records not byte-identical")
	}
}

// TestSweepResumeRejectsForeignCheckpoint pins the meta guard: a checkpoint
// from different sweep parameters must not be spliced in.
func TestSweepResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	first := campaignOpts()
	first.Checkpoint = ckpt
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	other := campaignOpts()
	other.Checkpoint = ckpt
	other.Resume = true
	other.Seed = 8 // different inputs -> different records
	_, err := Run(other)
	if err == nil {
		t.Fatal("resume accepted a checkpoint written with a different seed")
	}
	// The refusal names the field that differs, with both values, and
	// stays short: it does not dump the meta's grid lists.
	if msg := err.Error(); !strings.Contains(msg, "seed 7 vs 8") || len(msg) >= 300 {
		t.Errorf("refusal %q (%d bytes), want one under 300 bytes naming seed 7 vs 8", msg, len(msg))
	}
}

// TestMetaDiff pins the field the meta refusals name: the first that
// differs, by its JSON key, and a grid list cut to whole entries from its
// first differing one.
func TestMetaDiff(t *testing.T) {
	a := MetaFor(Options{Kernels: []string{"vecadd"}})
	oracle := MetaFor(Options{Kernels: []string{"vecadd"}, Mappers: core.OracleMappers()})
	for _, tc := range []struct {
		edit func(*Meta)
		want string
	}{
		{func(m *Meta) { m.Scale = 0.5 }, "scale 1 vs 0.5"},
		{func(m *Meta) { m.Verify = true }, "verify false vs true"},
		{func(m *Meta) { m.Seed, m.Kernels = 3, "relu" }, "seed 0 vs 3"},
		{func(m *Meta) { m.Kernels = "relu" }, "kernels vecadd vs relu"},
		{func(m *Meta) { m.Configs = strings.Replace(m.Configs, "8c4w16t", "8c4w15t", 1) },
			"configs 8c4w16t,8c4w32t,8c8w2t,8c8w4t,8c8w8t,… vs 8c4w15t,8c4w32t,8c8w2t,8c8w4t,8c8w8t,…"},
		// The oracle's mapper list against the paper's: whole entries, the
		// elided tail marked.
		{func(m *Meta) { m.Mappers = oracle.Mappers }, "mappers lws=32,ours vs lws=2,lws=4,lws=8,lws=16,lws=32,lws=64,…"},
		{func(m *Meta) { m.Kernels = "vecadd,relu" }, "kernels vecadd vs vecadd,relu"},
	} {
		b := a
		tc.edit(&b)
		if got := a.Diff(b); got != tc.want {
			t.Errorf("Diff = %s, want %s", got, tc.want)
		}
	}
	if got := a.Diff(a); got != "" {
		t.Errorf("Diff of equal metas = %q, want empty", got)
	}
}

// TestSweepResumeRejectsV2Checkpoint pins the version guard on the resume
// path: a v2 checkpoint (pre-sched-axis) is refused with the version
// diagnostic instead of being spliced into a grid its records cannot name
// a scheduler for.
func TestSweepResumeRejectsV2Checkpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "old.jsonl")
	opts := campaignOpts()
	opts.fill()
	meta := MetaFor(opts)
	meta.Version = 2
	meta.Scheds = ""
	var buf bytes.Buffer
	buf.Write(append(mustJSON(t, meta), '\n'))
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res := campaignOpts()
	res.Checkpoint = ckpt
	res.Resume = true
	_, err := Run(res)
	if err == nil || !strings.Contains(err.Error(), "version 2 not supported") {
		t.Errorf("resume of a v2 checkpoint: err = %v, want the version diagnostic", err)
	}
}

// TestSweepResumeRejectsHeaderlessCheckpoint pins that records without a
// meta header (edited or concatenated files) cannot be spliced in.
func TestSweepResumeRejectsHeaderlessCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	first := campaignOpts()
	first.Checkpoint = ckpt
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	// Strip the meta header, keeping the records.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	if err := os.WriteFile(ckpt, []byte(lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	res := campaignOpts()
	res.Checkpoint = ckpt
	res.Resume = true
	if _, err := Run(res); err == nil || !strings.Contains(err.Error(), "has records but no meta header") {
		t.Fatalf("resume of a headerless checkpoint with records: err = %v, want it refused", err)
	}
}

// TestSweepCheckpointSkipsFailures pins that failed records are not
// checkpointed, so a resume retries them.
func TestSweepCheckpointSkipsFailures(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	opts := Options{
		Configs:    []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}},
		Kernels:    []string{"vecadd", "nope"},
		Scale:      0.05,
		Seed:       7,
		Workers:    1,
		Checkpoint: ckpt,
	}
	if _, err := Run(opts); err == nil {
		t.Fatal("sweep with unknown kernel did not fail")
	}
	_, seen, err := ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 { // vecadd x 3 mappers; the "nope" tasks must be absent
		t.Fatalf("checkpointed %d records, want 3 successful ones", len(seen))
	}
	retry := opts
	retry.Resume = true
	executed := 0
	retry.OnRecord = func(Record) { executed++ }
	if _, err := Run(retry); err == nil {
		t.Fatal("resume did not retry (and re-fail) the failed tasks")
	}
	if executed != 3 {
		t.Errorf("resume re-executed %d tasks, want the 3 failed ones", executed)
	}
}

// TestSweepResumeRepairsTornTail pins the kill-9 append path: a SIGKILL
// mid-write leaves an unterminated partial line, and the resumed run must
// cut it before appending — otherwise the retried record concatenates onto
// the torn bytes and the checkpoint is permanently corrupt. After the
// resume, the file must parse cleanly and splice fully.
func TestSweepResumeRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	full := campaignOpts()
	full.Checkpoint = ckpt
	cold, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record: keep meta + 2 records + half of the next.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	res := campaignOpts()
	res.Checkpoint = ckpt
	res.Resume = true
	resumed, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Cache.Resumed != 2 {
		t.Errorf("resumed %d records, want the 2 before the torn line", resumed.Cache.Resumed)
	}
	if !bytes.Equal(mustJSON(t, cold.Records), mustJSON(t, resumed.Records)) {
		t.Error("records resumed over a torn tail not byte-identical")
	}
	// The repaired checkpoint is fully parseable and complete.
	meta, seen, err := ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint corrupt after torn-tail resume: %v", err)
	}
	if meta == nil || len(seen) != len(cold.Records) {
		t.Errorf("repaired checkpoint holds %d records, want %d", len(seen), len(cold.Records))
	}

	// A torn META header (no newline anywhere) is discarded and rewritten.
	if err := os.WriteFile(ckpt, []byte(lines[0][:len(lines[0])/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(res); err != nil {
		t.Fatal(err)
	}
	if meta, seen, err := ReadCheckpointFile(ckpt); err != nil || meta == nil || len(seen) != len(cold.Records) {
		t.Errorf("torn-meta resume left meta=%v records=%d err=%v", meta, len(seen), err)
	}

	// A kill between a record's bytes and its newline leaves a COMPLETE
	// unterminated line, which the reader keeps and splices — the repair
	// must finish that line, not cut it, or the spliced record silently
	// vanishes from the repaired checkpoint.
	fullFile := strings.Join(lines, "")
	if err := os.WriteFile(ckpt, []byte(strings.TrimSuffix(fullFile, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	executed := 0
	res.OnRecord = func(Record) { executed++ }
	kept, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 || kept.Cache.Resumed != len(cold.Records) {
		t.Errorf("flush-edge resume re-ran %d tasks (resumed %d), want a full splice", executed, kept.Cache.Resumed)
	}
	if meta, seen, err := ReadCheckpointFile(ckpt); err != nil || meta == nil || len(seen) != len(cold.Records) {
		t.Errorf("flush-edge repair lost records: meta=%v records=%d want=%d err=%v", meta, len(seen), len(cold.Records), err)
	}
}

// TestReadCheckpointCorruptLine pins the error path.
func TestReadCheckpointCorruptLine(t *testing.T) {
	if _, _, err := ReadCheckpoint(strings.NewReader("{\"checkpoint_version\":3}\nnot json\n")); err == nil {
		t.Error("corrupt line accepted")
	}
	if _, _, err := ReadCheckpoint(strings.NewReader("{\"checkpoint_version\":1}\n")); err == nil {
		t.Error("pre-shard version-1 checkpoint accepted")
	}
	// v2 files predate the warp-scheduler grid axis; their records carry no
	// policy identity, so they are refused with a version diagnostic.
	if _, _, err := ReadCheckpoint(strings.NewReader("{\"checkpoint_version\":2}\n")); err == nil ||
		!strings.Contains(err.Error(), "version 2 not supported") {
		t.Errorf("pre-sched-axis version-2 checkpoint: err = %v, want the version diagnostic", err)
	}
	if _, _, err := ReadCheckpoint(strings.NewReader("{\"Cycles\":12}\n")); err == nil {
		t.Error("record without task identity accepted")
	}
	// A v5 meta names the columns its records carry; one this build does
	// not know is refused by name.
	alien := MetaFor(campaignOpts())
	alien.Columns += ",bound"
	if _, _, err := ReadCheckpoint(bytes.NewReader(mustJSON(t, alien))); err == nil || !strings.Contains(err.Error(), `column "bound"`) {
		t.Errorf("meta with an unknown column: err = %v, want a refusal naming it", err)
	}
	meta, recs, err := ReadCheckpoint(strings.NewReader(""))
	if err != nil || meta != nil || len(recs) != 0 {
		t.Errorf("empty checkpoint: meta=%v recs=%v err=%v", meta, recs, err)
	}
	// A grotesquely long line (with or without newline) is corruption, not
	// a torn tail: refuse it instead of buffering the whole stream.
	long := strings.Repeat("x", maxCheckpointLine+1)
	if _, _, err := ReadCheckpoint(strings.NewReader(long)); err == nil {
		t.Error("over-long unterminated line accepted")
	}
	if _, _, err := ReadCheckpoint(strings.NewReader("{\"checkpoint_version\":2}\n" + long + "\n")); err == nil {
		t.Error("over-long terminated line accepted")
	}
}

// TestV4CheckpointReadsResumesMerges holds the v4 reader. The frozen v4
// golden reads to the meta and records of its v5 rewrite. A real
// campaign's checkpoint, rewritten in the golden's v4 form (its meta line,
// each record with the two since-deleted fields), merges to a fresh v5
// run's records and checkpoint bytes, and resumes from half its records to
// the fresh run's records.
func TestV4CheckpointReadsResumesMerges(t *testing.T) {
	v4golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	meta, recs, err := ReadCheckpoint(bytes.NewReader(v4golden))
	if err != nil || meta == nil || *meta != MetaFor(goldenGridOpts()) {
		t.Fatalf("v4 golden reads as meta %+v, err %v", meta, err)
	}
	if want := goldenResults().Records; !slices.Equal(recs, want) {
		t.Errorf("v4 golden records read as %+v, want %+v", recs, want)
	}
	toV4 := func(v5 []byte) string {
		lines := strings.SplitAfter(string(v5), "\n")
		lines[0] = strings.Replace(lines[0], `"checkpoint_version":5`, `"checkpoint_version":4`, 1)
		lines[0] = strings.Replace(lines[0], `,"columns":"`+columnNames()+`"`, "", 1)
		for i := 1; i < len(lines); i++ {
			lines[i] = strings.Replace(lines[i], `,"Err":`, `,"EnergyPJ":12500,"Boundedness":0,"Err":`, 1)
		}
		return strings.Join(lines, "")
	}
	v5golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if v4 := toV4(v5golden); v4[:strings.Index(v4, "\n")] != string(v4golden[:bytes.IndexByte(v4golden, '\n')]) {
		t.Fatalf("the v4 rewrite of the v5 golden's meta line differs from the v4 golden's")
	}

	dir := t.TempDir()
	opts := campaignOpts()
	opts.Workers = 1
	opts.Checkpoint = filepath.Join(dir, "fresh.jsonl")
	fresh, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	v5, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	v4Path, out := filepath.Join(dir, "v4.jsonl"), filepath.Join(dir, "merged.jsonl")
	if err := os.WriteFile(v4Path, []byte(toV4(v5)), 0o644); err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(out, []string{v4Path})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(merged.Records, fresh.Records) {
		t.Error("merge of the v4 checkpoint: records differ from the fresh run's")
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, v5) {
		t.Errorf("merged v4 checkpoint differs from the fresh v5 checkpoint (err %v)", err)
	}

	truncateCheckpoint(t, v4Path, len(fresh.Records)/2)
	opts.Checkpoint, opts.Resume = v4Path, true
	resumed, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resumed.Records, fresh.Records) || resumed.Cache.Resumed != len(fresh.Records)/2 {
		t.Errorf("resume from half a v4 checkpoint: %d resumed, records equal to the fresh run's: %v",
			resumed.Cache.Resumed, slices.Equal(resumed.Records, fresh.Records))
	}
}

// TestFillRecordEmptyLaunches pins the satellite guard: a case result with
// no launches becomes a Record.Err, not an index panic in a sweep worker.
func TestFillRecordEmptyLaunches(t *testing.T) {
	rec := Record{Kernel: "k", Mapper: "m"}
	fillRecord(&rec, &kernels.Result{Case: "k"})
	if rec.Err == "" {
		t.Fatal("empty-launch result not recorded as an error")
	}
	if rec.Cycles != 0 || rec.LWS != 0 {
		t.Errorf("empty-launch result filled counters: %+v", rec)
	}
}

// TestFillRecordFoldsLaunches pins every column's fold: cycles is the
// case total, the other columns sum their launch counter over every
// launch, and LWS is the first launch's.
func TestFillRecordFoldsLaunches(t *testing.T) {
	rec := Record{Kernel: "k", Mapper: "m"}
	fillRecord(&rec, &kernels.Result{Case: "k", Cycles: 1000, Launches: []ocl.LaunchResult{
		{LWS: 4, Stats: sim.CoreStats{Issued: 10, LaneOps: 99, MemStall: 20, ExecStall: 30}},
		{LWS: 8, Stats: sim.CoreStats{Issued: 1, LaneOps: 99, MemStall: 2, ExecStall: 3}},
	}})
	if want := (Record{Kernel: "k", Mapper: "m", LWS: 4, Cycles: 1000, Instrs: 11, MemStall: 22, ExecStall: 33}); rec != want {
		t.Errorf("fillRecord = %+v, want %+v", rec, want)
	}
}
