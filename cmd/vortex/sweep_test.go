package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// campaignArgs is the tiny fixed campaign every sweep test drives: explicit
// grid so shard runs and the reference run agree on the canonical task
// order, Workers=1 so the reference checkpoint is written in that order.
var campaignArgs = []string{
	"-grid", "1c2w2t,2c2w4t,4c4w4t",
	"-kernels", "vecadd,saxpy",
	"-scale", "0.05", "-seed", "7", "-workers", "1",
}

// runSweep runs vortex sweep with args in-process and returns its stdout,
// failing the test on a non-zero exit.
func runSweep(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := cli(append([]string{"sweep"}, args...), &out, &errb); code != 0 {
		t.Fatalf("vortex sweep %s: exit %d\nstderr: %s", strings.Join(args, " "), code, errb.String())
	}
	return out.String()
}

// runSweepProcess runs vortex sweep with args as a subprocess and returns
// its stdout, failing the test on a non-zero exit.
func runSweepProcess(t *testing.T, args ...string) string {
	t.Helper()
	cmd := vortexProcess(t, append([]string{"sweep"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("vortex sweep %s: %v\nstderr: %s", strings.Join(args, " "), err, errb.String())
	}
	return out.String()
}

// refusal is one vortex sweep command line that must fail: with exit 2 for
// a command-line error (a flag clash, a missing required flag) and exit 1
// for a value the run cannot take.
type refusal struct {
	name string
	args []string
	code int
	want string
}

// sweepRefusals runs each case's vortex sweep args in-process and requires
// its exit code and an output that names want.
func sweepRefusals(t *testing.T, cases []refusal) {
	t.Helper()
	for _, tc := range cases {
		code, out := vortex(append([]string{"sweep"}, tc.args...)...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d:\n%s", tc.name, code, tc.code, out)
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: diagnostic %q missing %q", tc.name, out, tc.want)
		}
	}
}

// countLines returns the number of complete (newline-terminated) lines.
func countLines(b []byte) int { return bytes.Count(b, []byte("\n")) }

// truncateToLines keeps the first n complete lines of path.
func truncateToLines(t *testing.T, path string, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	for i := 0; i < n; i++ {
		next := bytes.IndexByte(raw[idx:], '\n')
		if next < 0 {
			t.Fatalf("%s has fewer than %d lines", path, n)
		}
		idx += next + 1
	}
	if err := os.WriteFile(path, raw[:idx], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardKillResumeMergeCLI drives the full sharded-campaign lifecycle as
// real subprocesses: three shards, one of them SIGKILLed mid-campaign and
// resumed from whatever its checkpoint holds, then merged — and the merged
// checkpoint and CSV must be byte-identical to a clean single-process run.
func TestShardKillResumeMergeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	refCkpt := filepath.Join(dir, "ref.jsonl")
	refCSV := filepath.Join(dir, "ref.csv")
	runSweepProcess(t, append(append([]string{}, campaignArgs...),
		"-checkpoint", refCkpt, "-csv", refCSV)...)

	shardPaths := make([]string, 3)
	for i := range shardPaths {
		shardPaths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".jsonl")
	}

	// Shards 0 and 2 run clean.
	for _, i := range []int{0, 2} {
		runSweepProcess(t, append(append([]string{}, campaignArgs...),
			"-shard", string(rune('0'+i))+"/3", "-checkpoint", shardPaths[i])...)
	}

	// Shard 1 is SIGKILLed as soon as its checkpoint holds at least one
	// record (the meta line plus one). If the campaign finishes first the
	// kill is a no-op; the truncation below re-creates the mid-campaign
	// state deterministically either way.
	killCmd := vortexProcess(t, append(append([]string{"sweep"}, campaignArgs...),
		"-shard", "1/3", "-checkpoint", shardPaths[1])...)
	if err := killCmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { killCmd.Wait(); close(done) }()
	deadline := time.After(30 * time.Second)
poll:
	for {
		select {
		case <-done:
			break poll
		case <-deadline:
			killCmd.Process.Kill()
			<-done
			t.Fatal("shard 1 did not produce a record within 30s")
		default:
		}
		if raw, err := os.ReadFile(shardPaths[1]); err == nil && countLines(raw) >= 2 {
			killCmd.Process.Kill() // SIGKILL, no cleanup
			<-done
			break poll
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Force a mid-campaign checkpoint regardless of kill timing: keep the
	// meta header and exactly one record, then re-tear the tail the way a
	// SIGKILL mid-write does — the resume must repair it, not append onto it.
	truncateToLines(t, shardPaths[1], 2)
	f, err := os.OpenFile(shardPaths[1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Config":{"Cores":2,"Wa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume shard 1 to completion, then merge.
	runSweepProcess(t, append(append([]string{}, campaignArgs...),
		"-shard", "1/3", "-checkpoint", shardPaths[1], "-resume")...)

	mergedCkpt := filepath.Join(dir, "merged.jsonl")
	mergedCSV := filepath.Join(dir, "merged.csv")
	mergeOut := runSweepProcess(t, "merge", "-out", mergedCkpt, "-csv", mergedCSV,
		shardPaths[0], shardPaths[1], shardPaths[2])
	if !strings.Contains(mergeOut, "merged 3 shards") {
		t.Errorf("merge output missing summary:\n%s", mergeOut)
	}

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

// TestCampaignFlagRefusals pins the CLI-boundary validation diagnostics:
// numeric nonsense, duplicated sched axis entries, an unknown kernel,
// -replot combined with simulation-only flags, and the deleted serve and
// work modes all fail up front with the offending flag or argument named,
// before any task runs or any file is written.
func TestCampaignFlagRefusals(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05"}
	sweepRefusals(t, []refusal{
		{"dup sched", append(append([]string{}, base...), "-sched", "rr,gto,rr"),
			2, "duplicate sched entry rr"},
		{"zero scale", []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0"},
			2, "-scale must be positive and finite"},
		{"negative scale", []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "-0.5"},
			2, "-scale must be positive and finite"},
		{"NaN scale", []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "NaN",
			"-checkpoint", filepath.Join(dir, "nan.jsonl")}, 2, "-scale must be positive and finite (got NaN)"},
		{"infinite scale", []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "Inf"},
			2, "-scale must be positive and finite (got +Inf)"},
		{"bad grid name", []string{"-grid", "1c2w2t,2c2w4tX", "-kernels", "vecadd", "-scale", "0.05",
			"-checkpoint", filepath.Join(dir, "g.jsonl")}, 2, "core: bad config"},
		{"zero configs", []string{"-kernels", "vecadd", "-scale", "0.05", "-configs", "0"},
			2, "-configs must be >= 1"},
		{"negative configs", []string{"-kernels", "vecadd", "-scale", "0.05", "-configs", "-3"},
			2, "-configs must be >= 1"},
		{"negative workers", append(append([]string{}, base...), "-workers", "-3"),
			2, "-workers must be >= 0 (got -3)"},
		{"resume without checkpoint", append(append([]string{}, base...), "-resume"),
			2, "-resume requires -checkpoint"},
		{"replot with checkpoint", []string{"-replot", "x.csv", "-checkpoint", "y.jsonl"},
			2, "cannot be combined with -checkpoint"},
		{"replot with resume+verify", []string{"-replot", "x.csv", "-resume", "-verify"},
			2, "cannot be combined with -resume, -verify"},
		{"replot with shard+csv", []string{"-replot", "x.csv", "-shard", "0/2", "-csv", "z.csv"},
			2, "cannot be combined with -csv, -shard"},
		{"replot with scale+grid+oracle", []string{"-replot", "x.csv", "-scale", "0.25", "-grid", "1c2w2t", "-oracle"},
			2, "cannot be combined with -grid, -oracle, -scale"},
		{"replot with a default-valued flag", []string{"-replot", "x.csv", "-verify=false", "-workers", "0"},
			2, "cannot be combined with -verify, -workers"},
		{"unknown kernel", append(append([]string{}, base...), "-kernels", "vecadd,nosuch",
			"-checkpoint", filepath.Join(dir, "k.jsonl")), 2, `unknown kernel "nosuch"`},
		{"serve", append([]string{"serve", "-checkpoint", filepath.Join(dir, "s.jsonl")}, base...),
			2, `unexpected argument "serve"`},
		{"work", append([]string{"work", "-coordinator", "127.0.0.1:1"}, base...),
			2, `unexpected argument "work"`},
	})
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		t.Errorf("a refused campaign wrote %s", files[0].Name())
	}
}

// TestReplotTakesRenderFlags pins the other side of the -replot refusal:
// the render flags -violins and -cpuprofile still combine with it.
func TestReplotTakesRenderFlags(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "records.csv")
	var out, errb bytes.Buffer
	if code := cli([]string{"sweep", "-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05", "-csv", csvPath}, &out, &errb); code != 0 {
		t.Fatalf("sweep: exit %d: %s", code, errb.String())
	}
	out.Reset()
	if code := cli([]string{"sweep", "-replot", csvPath, "-violins", "-cpuprofile", filepath.Join(dir, "cpu.prof")}, &out, &errb); code != 0 ||
		!strings.Contains(out.String(), "=== vecadd ===") {
		t.Errorf("-replot -violins -cpuprofile: exit %d, stderr %q, stdout:\n%s", code, errb.String(), out.String())
	}
}

// TestReplotReadsLegacyCSV pins -replot of a CSV written before the energy
// estimate and the boundedness label were deleted: it prints the current
// CSV's tables, byte for byte.
func TestReplotReadsLegacyCSV(t *testing.T) {
	var outs []string
	for _, name := range []string{"records_csv.golden", "records_csv_energy.golden"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"sweep", "-replot", filepath.Join("..", "..", "internal", "sweep", "testdata", name), "-violins"}, &out, &errb); code != 0 {
			t.Fatalf("-replot %s: exit %d: %s", name, code, errb.String())
		}
		outs = append(outs, out.String())
	}
	if outs[0] != outs[1] || !strings.Contains(outs[0], "=== vecadd ===") {
		t.Errorf("-replot of the legacy CSV printed\n%s\nthe current CSV\n%s", outs[1], outs[0])
	}
}

// TestRemovedHostModeFlagsRejected pins that the host-mode flags deleted
// with the parallel engine are command-line errors (exit status 2), not
// silently accepted no-ops.
func TestRemovedHostModeFlagsRejected(t *testing.T) {
	for _, removed := range [][]string{
		{"-sim-workers", "2"}, {"-commit-workers", "1"}, {"-tick-engine"},
		{"-batch-exec=false"}, {"-batch-mem=false"},
	} {
		args := append([]string{"sweep"}, removed...)
		code, out := vortex(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want exit status 2:\n%s", args, code, out)
		}
		if !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%v: output does not name the undefined flag:\n%s", args, out)
		}
	}
}

// TestShardFlagRejected pins strict -shard parsing: trailing garbage,
// out-of-range indexes and zero counts must be refused up front, not run
// as a silently different shard.
func TestShardFlagRejected(t *testing.T) {
	for _, bad := range []string{"bogus", "1/3o", "1/3/4", "3/3", "-1/3", "0/0", "1/"} {
		code, out := vortex("sweep", "-shard", bad, "-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05")
		if code != 2 {
			t.Errorf("-shard %q: exit %d, want 2:\n%s", bad, code, out)
		} else if !strings.Contains(out, "bad -shard") {
			t.Errorf("-shard %q: unexpected error:\n%s", bad, out)
		}
	}
	// -grid names must round-trip exactly: Sscanf-based parsing would
	// otherwise accept trailing garbage and run a different grid.
	for _, bad := range []string{"4c4w4t99", "4c4w4tt", "1c2w2t x"} {
		code, out := vortex("sweep", "-grid", bad, "-kernels", "vecadd", "-scale", "0.05")
		if code == 0 {
			t.Errorf("-grid %q accepted:\n%s", bad, out)
		}
	}
}

// TestMergeCLIRefusesBadShardSet pins the CLI surface of the merge
// validation: a missing shard is refused with a diagnosable error.
func TestMergeCLIRefusesBadShardSet(t *testing.T) {
	dir := t.TempDir()
	shard0 := filepath.Join(dir, "shard0.jsonl")
	runSweep(t, append(append([]string{}, campaignArgs...),
		"-shard", "0/2", "-checkpoint", shard0)...)
	code, out := vortex("sweep", "merge", "-out", filepath.Join(dir, "m.jsonl"), shard0)
	if code == 0 {
		t.Fatalf("merge of 1 of 2 shards succeeded:\n%s", out)
	}
	if !strings.Contains(out, "missing shard 1/2") {
		t.Errorf("merge error not diagnosable:\n%s", out)
	}
}

// TestRefusedResumePrintsNoHint pins the resume hint to runs that did
// work: a -resume refused before any task ran (here, against a checkpoint
// written with another seed) names the differing field and does not tell
// the user to restart with -resume, which is what just failed.
func TestRefusedResumePrintsNoHint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	runSweep(t, append(append([]string{}, campaignArgs...), "-checkpoint", ckpt)...)
	args := append(append([]string{"sweep"}, campaignArgs...), "-seed", "8", "-checkpoint", ckpt, "-resume")
	code, out := vortex(args...)
	if code != 1 || !strings.Contains(out, "seed 7 vs 8") {
		t.Fatalf("resume against another seed's checkpoint: exit %d, want 1 and a refusal naming the seed:\n%s", code, out)
	}
	if strings.Contains(out, "restart with -resume") {
		t.Errorf("refused resume printed the resume hint:\n%s", out)
	}
}

// TestSweepCPUProfileFlag checks that -cpuprofile writes a non-empty
// profile of a completed campaign.
func TestSweepCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	runSweep(t, append([]string{"-cpuprofile", path}, campaignArgs...)...)
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s not written (%v)", path, err)
	}
}
