package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenReport pins the launch report of one small verified run —
// cycle counts and statistics included, so it also catches a model change
// that reaches the CLI.
func TestGoldenReport(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"-config", "2c2w4t", "-kernel", "vecadd", "-scale", "0.05"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	path := filepath.Join("testdata", "vecadd_2c2w4t.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestRemovedFlagsRejected pins that the host-mode flags deleted with the
// parallel engine are command-line errors, not silently accepted no-ops.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{"-workers=2", "-commit-workers=1", "-tick-engine", "-batch-exec=false", "-batch-mem=false"} {
		var out, errb bytes.Buffer
		if code := cli([]string{name}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming the undefined flag", name, code, out.String(), errb.String())
		}
	}
}

// TestAxisFlagRefusals pins that each grid-axis flag takes exactly one
// value the axis table accepts: a bad value or a list fails the run.
func TestAxisFlagRefusals(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-sched", "rr,gto", `bad sched value "rr,gto"`},
		{"-mshrs", "-1", `bad mshrs value "-1"`},
		{"-l1", "16kb4w", "bad L1 geometry"},
		{"-prefetch", "banana", "unknown prefetch policy"},
	} {
		var out, errb bytes.Buffer
		if code := cli([]string{"-config", "2c2w4t", "-scale", "0.05", tc.flag, tc.value}, &out, &errb); code != 1 ||
			!strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 1 naming %q", tc.flag, tc.value, code, errb.String(), tc.want)
		}
	}
}

// TestCPUProfileFlag checks that -cpuprofile writes a non-empty profile
// and leaves the report unchanged.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var out, errb bytes.Buffer
	if code := cli([]string{"-config", "2c2w4t", "-kernel", "vecadd", "-scale", "0.05", "-cpuprofile", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s not written (%v)", path, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "vecadd_2c2w4t.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("report differs from the golden report when profiling")
	}
}
