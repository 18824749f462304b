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

// TestGoldenTrace pins the Figure 1 rendering of one small kernel under two
// local work sizes: waveforms, section summaries and the issue table all
// come from the per-issue observer, so this also catches an observer that
// misses, repeats or reorders events.
func TestGoldenTrace(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-config", "2c2w4t", "-kernel", "vecadd", "-gws", "64", "-lws", "1,8", "-width", "60", "-table", "4"}
	if code := cli(args, &out, &errb); code != 0 {
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
		t.Errorf("trace differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestCommandLineErrors pins the exit statuses: 2 for an unknown flag, 1
// for a run that cannot start.
func TestCommandLineErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"-no-such-flag"}, &out, &errb); code != 2 || out.Len() != 0 ||
		!strings.Contains(errb.String(), "flag provided but not defined") {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q; want exit 2 naming the undefined flag", code, out.String(), errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := cli([]string{"-config", "bogus"}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "vortex-trace:") {
		t.Errorf("bad config: exit %d, stderr %q; want exit 1", code, errb.String())
	}
}
