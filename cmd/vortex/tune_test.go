package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestGoldenSearch pins the report of one small hill-climb search: the
// probes, the searched best and the Eq. 1 comparison.
func TestGoldenSearch(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"tune", "-config", "2c2w4t", "-kernel", "saxpy", "-scale", "0.05", "-strategy", "hillclimb"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	checkGolden(t, "tune/saxpy_2c2w4t_hillclimb.golden", out.Bytes())
}

// TestTuneRemovedFlagsRejected pins that the host-mode flags deleted with
// the parallel engine are command-line errors, not silently accepted no-ops.
func TestTuneRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{"-workers=2", "-commit-workers=1", "-tick-engine", "-batch-exec=false", "-batch-mem=false"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"tune", name}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming the undefined flag", name, code, out.String(), errb.String())
		}
	}
}

// TestTuneScaleRefusals pins that a scale no workload can be built at fails
// the run (exit 1) instead of running at minimum or paper size.
func TestTuneScaleRefusals(t *testing.T) {
	for _, scale := range []string{"0", "-0.5", "NaN", "Inf", "-Inf"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"tune", "-config", "2c2w4t", "-scale", scale}, &out, &errb); code != 1 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "-scale must be positive and finite") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 1 refusing the scale", scale, code, out.String(), errb.String())
		}
	}
}
