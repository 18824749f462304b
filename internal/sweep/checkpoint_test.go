package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
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
	if _, err := Run(other); err == nil {
		t.Fatal("resume accepted a checkpoint written with a different seed")
	}
}

// TestSweepCheckpointRequiresConfigTag pins that an unnamed ConfigTemplate
// cannot be checkpointed (a function can't be fingerprinted, so a resume
// could not detect a changed simulator configuration), while a tagged one
// can — and the tag must match on resume.
func TestSweepCheckpointRequiresConfigTag(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	tmpl := func(hw core.HWInfo) sim.Config {
		cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
		cfg.Mem.DRAM.Latency *= 2
		return cfg
	}

	opts := campaignOpts()
	opts.Checkpoint = ckpt
	opts.ConfigTemplate = tmpl
	if _, err := Run(opts); err == nil {
		t.Fatal("checkpointing an unnamed ConfigTemplate was accepted")
	}

	opts.ConfigTag = "slow-dram"
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}

	// Resuming under a different tag must be refused.
	other := opts
	other.Resume = true
	other.ConfigTag = "default"
	if _, err := Run(other); err == nil {
		t.Fatal("resume accepted a checkpoint from a different config tag")
	}

	// Same tag resumes cleanly with nothing left to simulate.
	same := opts
	same.Resume = true
	executed := 0
	same.OnRecord = func(Record) { executed++ }
	res, err := Run(same)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 || res.Cache.Resumed != len(res.Records) {
		t.Errorf("tagged resume re-ran %d tasks (resumed %d)", executed, res.Cache.Resumed)
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
	if _, err := Run(res); err == nil {
		t.Fatal("resume accepted a headerless checkpoint with records")
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

// TestFillRecordEmptyLaunches pins the satellite guard: a case result with
// no launches becomes a Record.Err, not an index panic in a sweep worker.
func TestFillRecordEmptyLaunches(t *testing.T) {
	rec := Record{Kernel: "k", Mapper: "m"}
	fillRecord(&rec, &kernels.Result{Case: "k"}, core.HWInfo{Cores: 1, Warps: 2, Threads: 2})
	if rec.Err == "" {
		t.Fatal("empty-launch result not recorded as an error")
	}
	if rec.Cycles != 0 || rec.LWS != 0 {
		t.Errorf("empty-launch result filled counters: %+v", rec)
	}
}
