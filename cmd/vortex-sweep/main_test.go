package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildSweep compiles the vortex-sweep binary into dir.
func buildSweep(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "vortex-sweep")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// campaignArgs is the tiny fixed campaign every CLI test drives: explicit
// grid so shard runs and the reference run agree on the canonical task
// order, Workers=1 so the reference checkpoint is written in that order.
var campaignArgs = []string{
	"-grid", "1c2w2t,2c2w4t,4c4w4t",
	"-kernels", "vecadd,saxpy",
	"-scale", "0.05", "-seed", "7", "-workers", "1",
}

func runSweep(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr: %s", bin, strings.Join(args, " "), err, errb.String())
	}
	return out.String()
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
		t.Skip("spawns subprocesses and builds the binary")
	}
	dir := t.TempDir()
	bin := buildSweep(t, dir)

	refCkpt := filepath.Join(dir, "ref.jsonl")
	refCSV := filepath.Join(dir, "ref.csv")
	runSweep(t, bin, append(append([]string{}, campaignArgs...),
		"-checkpoint", refCkpt, "-csv", refCSV)...)

	shardPaths := make([]string, 3)
	for i := range shardPaths {
		shardPaths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".jsonl")
	}

	// Shards 0 and 2 run clean.
	for _, i := range []int{0, 2} {
		runSweep(t, bin, append(append([]string{}, campaignArgs...),
			"-shard", string(rune('0'+i))+"/3", "-checkpoint", shardPaths[i])...)
	}

	// Shard 1 is SIGKILLed as soon as its checkpoint holds at least one
	// record (the meta line plus one). If the campaign finishes first the
	// kill is a no-op; the truncation below re-creates the mid-campaign
	// state deterministically either way.
	killCmd := exec.Command(bin, append(append([]string{}, campaignArgs...),
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
	runSweep(t, bin, append(append([]string{}, campaignArgs...),
		"-shard", "1/3", "-checkpoint", shardPaths[1], "-resume")...)

	mergedCkpt := filepath.Join(dir, "merged.jsonl")
	mergedCSV := filepath.Join(dir, "merged.csv")
	mergeOut := runSweep(t, bin, "merge", "-out", mergedCkpt, "-csv", mergedCSV,
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

// pollStatus fetches the coordinator's /status JSON.
func pollStatus(t *testing.T, addr string) (st struct {
	Total     int  `json:"total"`
	Completed int  `json:"completed"`
	Leased    int  `json:"leased"`
	Pending   int  `json:"pending"`
	Reissued  int  `json:"leases_reissued"`
	Done      bool `json:"done"`
}) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /status: %v", err)
	}
	return st
}

// TestServeWorkKillRecoveryCLI drives the work-stealing campaign service as
// real subprocesses: a coordinator on a kernel-picked port, one worker that
// is SIGKILLed while it provably holds an unfinished lease, and a second
// worker that triggers the lease re-issue and finishes the grid. The
// coordinator's canonical -out checkpoint and CSV must be byte-identical to
// a clean single-process run — a worker dying mid-lease must not perturb a
// single record.
func TestServeWorkKillRecoveryCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the binary")
	}
	dir := t.TempDir()
	bin := buildSweep(t, dir)
	// The kill needs a campaign no worker can finish between two status
	// polls. The 18 tasks of campaignArgs take a few milliseconds in all
	// now that a worker reshapes one device instead of building one per
	// task, so this drive runs them at full scale under every scheduler:
	// 72 tasks of a few milliseconds each.
	campaignArgs := []string{
		"-grid", "1c2w2t,2c2w4t,4c4w4t",
		"-kernels", "vecadd,saxpy",
		"-sched", "rr,gto,oldest,2lev",
		"-scale", "1", "-seed", "7", "-workers", "1",
	}

	refCkpt := filepath.Join(dir, "ref.jsonl")
	refCSV := filepath.Join(dir, "ref.csv")
	runSweep(t, bin, append(append([]string{}, campaignArgs...),
		"-checkpoint", refCkpt, "-csv", refCSV)...)

	finalCkpt := filepath.Join(dir, "final.jsonl")
	finalCSV := filepath.Join(dir, "final.csv")
	serveCmd := exec.Command(bin, append([]string{"serve",
		"-addr", "127.0.0.1:0", "-checkpoint", filepath.Join(dir, "served.jsonl"),
		"-out", finalCkpt, "-csv", finalCSV,
		"-lease-ttl", "2s", "-batch", "3", "-linger", "200ms"},
		campaignArgs...)...)
	servePipe, err := serveCmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serveCmd.Stderr = os.Stderr
	if err := serveCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer serveCmd.Process.Kill()
	serveOut := bufio.NewScanner(servePipe)
	if !serveOut.Scan() {
		t.Fatal("serve produced no output")
	}
	banner := serveOut.Text()
	// "serving campaign on 127.0.0.1:PORT (N tasks, 0 resumed)" is the
	// scrape contract for :0 listeners.
	fields := strings.Fields(banner)
	if len(fields) < 4 || !strings.HasPrefix(banner, "serving campaign on ") {
		t.Fatalf("unexpected serve banner %q", banner)
	}
	addr := fields[3]
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		b.WriteString(banner + "\n")
		for serveOut.Scan() {
			b.WriteString(serveOut.Text() + "\n")
		}
		rest <- b.String()
	}()

	// A worker describing a different campaign must be refused at
	// enrollment, permanently — not retried into the grid.
	alien := exec.Command(bin, append(append([]string{"work", "-coordinator", addr},
		campaignArgs...), "-seed", "9")...)
	if out, err := alien.CombinedOutput(); err == nil {
		t.Fatalf("meta-mismatched worker accepted:\n%s", out)
	} else if !strings.Contains(string(out), "meta mismatch") || !strings.Contains(string(out), "Seed") {
		t.Errorf("meta-mismatch refusal not diagnosable:\n%s", out)
	}

	// Start victim workers until one is SIGKILLed while status shows tasks
	// still leased — after the kill lands, nothing can submit them, so
	// those leases MUST expire and be re-issued. (A victim that submits its
	// whole batch in the poll-to-kill window is retried; each victim holds
	// a 3-task lease for ~hundreds of ms, so the first try all but always
	// sticks.)
	killedHoldingLease := false
	for attempt := 0; attempt < 10 && !killedHoldingLease; attempt++ {
		st := pollStatus(t, addr)
		if st.Pending+st.Leased < 6 {
			t.Fatalf("campaign nearly done (status %+v) before a victim could be killed mid-lease", st)
		}
		victim := exec.Command(bin, append([]string{"work", "-coordinator", addr, "-worker",
			fmt.Sprintf("victim%d", attempt), "-batch", "3"}, campaignArgs...)...)
		if err := victim.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if pollStatus(t, addr).Leased > 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		victim.Process.Kill() // SIGKILL, no cleanup, no farewell submit
		victim.Wait()
		killedHoldingLease = pollStatus(t, addr).Leased > 0
	}
	if !killedHoldingLease {
		t.Fatal("never caught a victim holding a lease at kill time")
	}

	// A clean worker finishes the grid: it polls, the dead victim's lease
	// expires (2s TTL), and the freed tasks are re-issued to it.
	finisher := runSweep(t, bin, append([]string{"work", "-coordinator", addr,
		"-worker", "finisher"}, campaignArgs...)...)
	if !strings.Contains(finisher, "campaign complete: this worker ran") {
		t.Errorf("finisher output missing summary:\n%s", finisher)
	}

	if err := serveCmd.Wait(); err != nil {
		t.Fatalf("serve exited with %v", err)
	}
	serveLog := <-rest
	m := regexp.MustCompile(`(\d+) leases reissued`).FindStringSubmatch(serveLog)
	if m == nil {
		t.Fatalf("serve output missing reissue count:\n%s", serveLog)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("killed worker's lease was never reissued:\n%s", serveLog)
	}

	for _, pair := range [][2]string{{refCkpt, finalCkpt}, {refCSV, finalCSV}} {
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
// numeric nonsense, duplicated sched axis entries, -replot combined with
// simulation-only flags, and serve/work missing their required flags all
// fail up front with the offending flag named.
func TestCampaignFlagRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the binary")
	}
	dir := t.TempDir()
	bin := buildSweep(t, dir)
	base := []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"dup sched", append(append([]string{}, base...), "-sched", "rr,gto,rr"),
			"duplicate sched entry rr"},
		{"zero scale", []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0"},
			"-scale must be > 0"},
		{"negative scale", []string{"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "-0.5"},
			"-scale must be > 0"},
		{"zero configs", []string{"-kernels", "vecadd", "-scale", "0.05", "-configs", "0"},
			"-configs must be >= 1"},
		{"negative configs", []string{"-kernels", "vecadd", "-scale", "0.05", "-configs", "-3"},
			"-configs must be >= 1"},
		{"replot with checkpoint", []string{"-replot", "x.csv", "-checkpoint", "y.jsonl"},
			"cannot be combined with -checkpoint"},
		{"replot with resume+verify", []string{"-replot", "x.csv", "-resume", "-verify"},
			"cannot be combined with -resume, -verify"},
		{"replot with shard+csv", []string{"-replot", "x.csv", "-shard", "0/2", "-csv", "z.csv"},
			"cannot be combined with -shard, -csv"},
		{"serve without checkpoint", append([]string{"serve"}, base...),
			"serve requires -checkpoint"},
		{"serve with zero scale", []string{"serve", "-checkpoint", "c.jsonl",
			"-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0"},
			"-scale must be > 0"},
		{"serve with dup sched", append([]string{"serve", "-checkpoint", filepath.Join(dir, "c.jsonl"),
			"-sched", "gto,gto"}, base...), "duplicate sched entry gto"},
		{"work without coordinator", append([]string{"work"}, base...),
			"work requires -coordinator"},
		{"work with dup sched", append([]string{"work", "-coordinator", "127.0.0.1:1",
			"-sched", "rr,rr"}, base...), "duplicate sched entry rr"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: diagnostic %q missing %q", tc.name, out, tc.want)
		}
	}
}

// TestRemovedHostModeFlagsRejected pins that the host-mode flags deleted
// with the parallel engine are command-line errors (exit status 2) in every
// simulating mode, not silently accepted no-ops.
func TestRemovedHostModeFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the binary")
	}
	bin := buildSweep(t, t.TempDir())
	for _, mode := range [][]string{nil, {"serve"}, {"work"}} {
		for _, removed := range [][]string{
			{"-sim-workers", "2"}, {"-commit-workers", "1"}, {"-tick-engine"},
			{"-batch-exec=false"}, {"-batch-mem=false"},
		} {
			args := append(append([]string{}, mode...), removed...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("%v: err %v, want exit status 2:\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined") {
				t.Errorf("%v: output does not name the undefined flag:\n%s", args, out)
			}
		}
	}
}

// TestShardFlagRejected pins strict -shard parsing: trailing garbage,
// out-of-range indexes and zero counts must be refused up front, not run
// as a silently different shard.
func TestShardFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the binary")
	}
	dir := t.TempDir()
	bin := buildSweep(t, dir)
	for _, bad := range []string{"bogus", "1/3o", "1/3/4", "3/3", "-1/3", "0/0", "1/"} {
		cmd := exec.Command(bin, "-shard", bad, "-grid", "1c2w2t", "-kernels", "vecadd", "-scale", "0.05")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("-shard %q accepted:\n%s", bad, out)
		} else if !strings.Contains(string(out), "bad -shard") {
			t.Errorf("-shard %q: unexpected error:\n%s", bad, out)
		}
	}
	// -grid names must round-trip exactly: Sscanf-based parsing would
	// otherwise accept trailing garbage and run a different grid.
	for _, bad := range []string{"4c4w4t99", "4c4w4tt", "1c2w2t x"} {
		cmd := exec.Command(bin, "-grid", bad, "-kernels", "vecadd", "-scale", "0.05")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("-grid %q accepted:\n%s", bad, out)
		}
	}
}

// TestMergeCLIRefusesBadShardSet pins the CLI surface of the merge
// validation: a missing shard is refused with a diagnosable error.
func TestMergeCLIRefusesBadShardSet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the binary")
	}
	dir := t.TempDir()
	bin := buildSweep(t, dir)
	shard0 := filepath.Join(dir, "shard0.jsonl")
	runSweep(t, bin, append(append([]string{}, campaignArgs...),
		"-shard", "0/2", "-checkpoint", shard0)...)
	cmd := exec.Command(bin, "merge", "-out", filepath.Join(dir, "m.jsonl"), shard0)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("merge of 1 of 2 shards succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "missing shard 1/2") {
		t.Errorf("merge error not diagnosable:\n%s", out)
	}
}

// TestCPUProfileFlag checks that -cpuprofile writes a non-empty profile of
// a completed campaign.
func TestCPUProfileFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the binary")
	}
	dir := t.TempDir()
	bin := buildSweep(t, dir)
	path := filepath.Join(dir, "cpu.prof")
	runSweep(t, bin, append([]string{"-cpuprofile", path}, campaignArgs...)...)
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s not written (%v)", path, err)
	}
}
