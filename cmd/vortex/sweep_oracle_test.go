package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGoldenOracleSweep pins the one-point search: Figure 2's table, then
// Eq. 1's regret over the 14 candidates. The cache line counts the
// process's shared caches, which earlier tests warm, so it is masked.
func TestGoldenOracleSweep(t *testing.T) {
	out := runSweep(t, "-grid", "2c2w4t", "-kernels", "saxpy", "-scale", "0.05", "-oracle")
	out = regexp.MustCompile(`(?m)^campaign caches: .*$`).ReplaceAllString(out, "campaign caches: (masked)")
	checkGolden(t, "sweep/oracle_saxpy_2c2w4t.golden", []byte(out))
}

// TestMergeCrossoverBaseline pins that merge -crossover draws only a
// baseline the records ran: an unknown one fails naming the mappers they
// carry, and an oracle campaign makes every power of two a baseline.
func TestMergeCrossoverBaseline(t *testing.T) {
	dir := t.TempDir()
	paper := filepath.Join(dir, "paper.jsonl")
	runSweep(t, append(append([]string{}, campaignArgs...), "-checkpoint", paper)...)
	for _, bad := range []string{"lws=7", "lws32", "lws=16"} {
		code, out := vortex("sweep", "merge", "-crossover", bad, paper)
		if code != 1 || !strings.Contains(out, `crossover baseline "`+bad+`"`) ||
			!strings.Contains(out, "the records carry lws=1, lws=32, ours") {
			t.Errorf("-crossover %s: exit %d, want 1 naming the records' mappers:\n%s", bad, code, out)
		}
	}
	oracle := filepath.Join(dir, "oracle.jsonl")
	runSweep(t, "-grid", "1c2w2t,2c2w4t", "-kernels", "vecadd", "-scale", "0.05", "-oracle", "-checkpoint", oracle)
	code, out := vortex("sweep", "merge", "-crossover", "lws=16", oracle)
	if code != 0 || !strings.Contains(out, "vecadd vs lws=16:\n  hp=4 ") || !strings.Contains(out, "Eq. 1's regret") {
		t.Errorf("oracle -crossover lws=16: exit %d, want the curve and the regret table:\n%s", code, out)
	}
}

// TestShardsRefuseOtherMapperSet pins that -oracle is campaign identity: a
// paper-mapper -resume of an -oracle checkpoint, and a merge of an -oracle
// shard with a paper shard, are refused with the mapper lists named.
func TestShardsRefuseOtherMapperSet(t *testing.T) {
	dir := t.TempDir()
	oracleArgs := append(append([]string{}, campaignArgs...), "-oracle")
	oracle := filepath.Join(dir, "oracle.jsonl")
	runSweep(t, append(append([]string{}, oracleArgs...), "-checkpoint", oracle)...)
	var stdout, stderr bytes.Buffer
	code := cli(append(append([]string{"sweep"}, campaignArgs...), "-checkpoint", oracle, "-resume"), &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "(checkpoint vs this run: mappers ") {
		t.Errorf("paper -resume of an -oracle checkpoint: exit %d, want 1 refused on mappers:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("refused -resume wrote to stdout, for a campaign that never started:\n%s", stdout.String())
	}

	shard0, shard1 := filepath.Join(dir, "shard0.jsonl"), filepath.Join(dir, "shard1.jsonl")
	runSweep(t, append(append([]string{}, oracleArgs...), "-shard", "0/2", "-checkpoint", shard0)...)
	runSweep(t, append(append([]string{}, campaignArgs...), "-shard", "1/2", "-checkpoint", shard1)...)
	code, out := vortex("sweep", "merge", shard0, shard1)
	if code != 1 || !strings.Contains(out, "written with different sweep options (mappers ") {
		t.Errorf("merge of an -oracle shard with a paper shard: exit %d, want 1 refused on mappers:\n%s", code, out)
	}
}
