package main

import (
	"flag"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sweep/service"
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

// TestWorkRefusesOtherMapperSet pins that -oracle is campaign identity: a
// worker whose -oracle differs from its coordinator's is refused at
// enrollment, with the mapper lists named.
func TestWorkRefusesOtherMapperSet(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		coordArgs := append([]string{}, campaignArgs...)
		workArgs := append([]string{}, campaignArgs...)
		if oracle {
			coordArgs = append(coordArgs, "-oracle")
		} else {
			workArgs = append(workArgs, "-oracle")
		}
		fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
		cf := addCampaignFlags(fs)
		if err := fs.Parse(coordArgs); err != nil {
			t.Fatal(err)
		}
		opts, err := cf.options()
		if err != nil {
			t.Fatal(err)
		}
		opts.Checkpoint = filepath.Join(t.TempDir(), "served.jsonl")
		srv, err := service.New(opts, service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		code, out := vortex(append([]string{"sweep", "work", "-coordinator", ts.URL}, workArgs...)...)
		ts.Close()
		srv.Close()
		if code != 1 || !strings.Contains(out, "meta mismatch (worker vs campaign: mappers ") {
			t.Errorf("coordinator -oracle=%v: worker exit %d, want 1 refused on Mappers:\n%s", oracle, code, out)
		}
	}
}
