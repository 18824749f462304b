package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// CLI surface of the memory-axis harness: the acceptance sweep over
// -mshrs/-l1/-prefetch (checkpoint meta v5, shard+merge, CSV columns), the
// checkpoint-diff identity of the explicit default point against a run
// that never mentions the memory flags, the v3 version refusal, and the
// per-flag validation diagnostics.

// memAxisArgs is the acceptance-criterion grid: every memory axis
// multi-valued on a small config/kernel base.
var memAxisArgs = []string{
	"-grid", "1c2w2t,2c2w4t",
	"-kernels", "vecadd",
	"-mshrs", "0,4",
	"-l1", "16k4w,32k8w",
	"-prefetch", "off,nextline",
	"-scale", "0.05", "-seed", "7", "-workers", "1",
}

// TestMemAxisSweepCLI drives the acceptance sweep through the command:
// the checkpoint carries the v5 meta with the three memory axes, the CSV
// grows the mshrs/l1/prefetch columns, and a two-shard split of the same
// grid merges back byte-identical to the single-process run.
func TestMemAxisSweepCLI(t *testing.T) {
	dir := t.TempDir()

	refCkpt := filepath.Join(dir, "ref.jsonl")
	refCSV := filepath.Join(dir, "ref.csv")
	out := runSweep(t, append(append([]string{}, memAxisArgs...),
		"-checkpoint", refCkpt, "-csv", refCSV)...)
	if !strings.Contains(out, "x 8 grid points (mshrs=0,4 l1=16k4w,32k8w prefetch=off,nextline)") {
		t.Errorf("campaign banner does not announce the memory grid:\n%s", out)
	}

	ckpt, err := os.ReadFile(refCkpt)
	if err != nil {
		t.Fatal(err)
	}
	meta := string(bytes.SplitN(ckpt, []byte("\n"), 2)[0])
	for _, want := range []string{
		`"checkpoint_version":5`,
		`"mshrs":"0,4"`,
		`"l1_geoms":"16k4w,32k8w"`,
		`"prefetch":"off,nextline"`,
	} {
		if !strings.Contains(meta, want) {
			t.Errorf("checkpoint meta missing %s:\n%s", want, meta)
		}
	}

	csv, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	header := string(bytes.SplitN(csv, []byte("\n"), 2)[0])
	if !strings.Contains(header, ",mshrs,l1,prefetch,") {
		t.Errorf("CSV header missing the memory columns: %s", header)
	}
	for _, cell := range []string{",4,16k4w,off,", ",0,32k8w,nextline,"} {
		if !bytes.Contains(csv, []byte(cell)) {
			t.Errorf("CSV missing a %s grid point:\n%s", cell, csv)
		}
	}

	shardPaths := make([]string, 2)
	for i := range shardPaths {
		shardPaths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".jsonl")
		runSweep(t, append(append([]string{}, memAxisArgs...),
			"-shard", string(rune('0'+i))+"/2", "-checkpoint", shardPaths[i])...)
	}
	mergedCkpt := filepath.Join(dir, "merged.jsonl")
	mergedCSV := filepath.Join(dir, "merged.csv")
	runSweep(t, "merge", "-out", mergedCkpt, "-csv", mergedCSV, shardPaths[0], shardPaths[1])
	for _, pair := range [][2]string{{refCkpt, mergedCkpt}, {refCSV, mergedCSV}} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs from %s:\n--- want ---\n%s\n--- got ---\n%s",
				pair[1], pair[0], want, got)
		}
	}
}

// TestMemAxisDefaultPointCheckpointDiff is the CLI half of the
// differential oracle: spelling out the default memory point explicitly
// (-mshrs 0 -l1 16k4w -prefetch off) must produce a checkpoint and CSV
// byte-identical to a run that never mentions the memory flags.
func TestMemAxisDefaultPointCheckpointDiff(t *testing.T) {
	dir := t.TempDir()

	plainCkpt := filepath.Join(dir, "plain.jsonl")
	plainCSV := filepath.Join(dir, "plain.csv")
	runSweep(t, append(append([]string{}, campaignArgs...),
		"-checkpoint", plainCkpt, "-csv", plainCSV)...)

	explicitCkpt := filepath.Join(dir, "explicit.jsonl")
	explicitCSV := filepath.Join(dir, "explicit.csv")
	runSweep(t, append(append([]string{}, campaignArgs...),
		"-mshrs", "0", "-l1", "16k4w", "-prefetch", "off",
		"-checkpoint", explicitCkpt, "-csv", explicitCSV)...)

	for _, pair := range [][2]string{{plainCkpt, explicitCkpt}, {plainCSV, explicitCSV}} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs from %s: the explicit default point is not the oracle",
				pair[1], pair[0])
		}
	}
}

// TestMemAxisResumeRejectsV3CheckpointCLI pins the version guard at the
// CLI: resuming a v3 (pre-memory-axes) checkpoint fails up front with the
// version diagnostic.
func TestMemAxisResumeRejectsV3CheckpointCLI(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "old.jsonl")
	v3meta := `{"checkpoint_version":3,"scale":0.05,"seed":7,"verify":false,` +
		`"dispatch_overhead":0,"no_coalesce":false,"shard_index":0,"shard_count":1,` +
		`"configs":"1c2w2t","kernels":"vecadd","mappers":"ours,lws=1,lws=32","scheds":"rr"}` + "\n"
	if err := os.WriteFile(ckpt, []byte(v3meta), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := vortex("sweep", "-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05",
		"-seed", "7", "-checkpoint", ckpt, "-resume")
	if code == 0 {
		t.Fatalf("resume of a v3 checkpoint succeeded:\n%s", out)
	}
	if !strings.Contains(out, "version 3 not supported") {
		t.Errorf("v3 refusal not diagnosable:\n%s", out)
	}
}

// TestMemAxisFlagRefusals pins the CLI-boundary diagnostics of the three
// memory flags.
func TestMemAxisFlagRefusals(t *testing.T) {
	base := []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05"}
	sweepRefusals(t, []refusal{
		{"negative mshrs", append(append([]string{}, base...), "-mshrs", "-1"),
			1, `bad mshrs value "-1"`},
		{"garbage mshrs", append(append([]string{}, base...), "-mshrs", "four"),
			1, `bad mshrs value "four"`},
		{"dup mshrs", append(append([]string{}, base...), "-mshrs", "0,4,0"),
			1, "duplicate mshrs entry 0"},
		{"bad l1", append(append([]string{}, base...), "-l1", "16kb4w"),
			1, "bad L1 geometry"},
		{"dup l1", append(append([]string{}, base...), "-l1", "16k4w,16k4w"),
			1, "duplicate l1 entry 16k4w"},
		{"bad prefetch", append(append([]string{}, base...), "-prefetch", "banana"),
			1, "unknown prefetch policy"},
		{"dup prefetch", append(append([]string{}, base...), "-prefetch", "off,off"),
			1, "duplicate prefetch entry off"},
	})
}
