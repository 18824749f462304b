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

// TestGoldenSearch pins the report of one small hill-climb search: the
// probes, the searched best and the Eq. 1 comparison.
func TestGoldenSearch(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"-config", "2c2w4t", "-kernel", "saxpy", "-scale", "0.05", "-strategy", "hillclimb"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	path := filepath.Join("testdata", "saxpy_2c2w4t_hillclimb.golden")
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
