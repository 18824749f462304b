package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestGoldenReport pins the launch report of one small verified run —
// cycle counts and statistics included, so it also catches a model change
// that reaches the CLI.
func TestGoldenReport(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"run", "-config", "2c2w4t", "-kernel", "vecadd", "-scale", "0.05"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	checkGolden(t, "run/vecadd_2c2w4t.golden", out.Bytes())
}

// TestRunRemovedFlagsRejected pins that the host-mode flags deleted with
// the parallel engine are command-line errors, not silently accepted no-ops.
func TestRunRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{"-workers=2", "-commit-workers=1", "-tick-engine", "-batch-exec=false", "-batch-mem=false"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"run", name}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming the undefined flag", name, code, out.String(), errb.String())
		}
	}
}

// TestAxisFlagRefusals pins that each grid-axis flag takes exactly one
// value the axis table accepts: a bad value or a list is a command-line
// error (exit 2, nothing on stdout).
func TestAxisFlagRefusals(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-sched", "rr,gto", `bad sched value "rr,gto"`},
		{"-mshrs", "-1", `bad mshrs value "-1"`},
		{"-l1", "16kb4w", "bad L1 geometry"},
		{"-prefetch", "banana", "unknown prefetch policy"},
	} {
		var out, errb bytes.Buffer
		if code := cli([]string{"run", "-config", "2c2w4t", "-scale", "0.05", tc.flag, tc.value}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.flag, tc.value, code, out.String(), errb.String(), tc.want)
		}
	}
}

// TestRunCPUProfileFlag checks that -cpuprofile writes a non-empty profile
// and leaves the report unchanged.
func TestRunCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var out, errb bytes.Buffer
	if code := cli([]string{"run", "-config", "2c2w4t", "-kernel", "vecadd", "-scale", "0.05", "-cpuprofile", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s not written (%v)", path, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "run", "vecadd_2c2w4t.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("report differs from the golden report when profiling")
	}
}

// TestRunScaleRefusals pins that a scale no workload can be built at is a
// command-line error (exit 2) instead of running at minimum or paper size.
func TestRunScaleRefusals(t *testing.T) {
	for _, scale := range []string{"0", "-0.5", "NaN", "Inf", "-Inf"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"run", "-config", "2c2w4t", "-scale", scale}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "-scale must be positive and finite") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2 refusing the scale", scale, code, out.String(), errb.String())
		}
	}
}

// TestRunConfigRefusals pins that -config takes only the canonical
// spelling of a configuration (a list or trailing input used to run the
// first configuration silently) and -kernel only a registry name. Each
// refusal, like a negative -lws, is a command-line error refused before
// any report line (a negative -lws used to print the kernel and advice
// lines and then fail the launch).
func TestRunConfigRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-config", "4c8w16t,2c2w2t"}, 2, "core: bad config"},
		{[]string{"-config", "2c2w4tXYZ"}, 2, "core: bad config"},
		{[]string{"-config", "02c2w4t"}, 2, "core: bad config"},
		{[]string{"-config", "bogus"}, 2, "core: bad config"},
		{[]string{"-config", "2c2w4t", "-kernel", "nosuch"}, 2, `unknown kernel "nosuch"`},
		{[]string{"-config", "2c2w4t", "-lws", "-1"}, 2, "-lws -1: the local work size must be positive"},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"run", "-scale", "0.05"}, tc.args...)
		if code := cli(args, &out, &errb); code != tc.code || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit %d and %q", tc.args, code, out.String(), errb.String(), tc.code, tc.want)
		}
	}
}

// TestRunMapperNames pins the -mapper names: each alias runs the same
// launch as the name it stands for, each name the mapping it names, and an
// unknown name is a command-line error.
func TestRunMapperNames(t *testing.T) {
	for _, tc := range []struct{ name, alias, want string }{
		{"ours", "auto", "regime=exact"}, // hp = 1: Eq. 1 gives one task
		{"lws=1", "naive", " lws=1 "},
		{"lws=32", "fixed", " lws=32 "},
	} {
		var reports []string
		for _, m := range []string{tc.name, tc.alias} {
			var out, errb bytes.Buffer
			if code := cli([]string{"run", "-config", "1c1w1t", "-scale", "0.05", "-mapper", m}, &out, &errb); code != 0 ||
				!strings.Contains(out.String(), tc.want) {
				t.Errorf("-mapper %s: exit %d, stderr %q, report:\n%s\nwant %q", m, code, errb.String(), out.String(), tc.want)
			}
			reports = append(reports, out.String())
		}
		if reports[0] != reports[1] {
			t.Errorf("-mapper %s and -mapper %s report different launches", tc.name, tc.alias)
		}
	}
	var out, errb bytes.Buffer
	if code := cli([]string{"run", "-scale", "0.05", "-mapper", "lws=16"}, &out, &errb); code != 2 || out.Len() != 0 ||
		!strings.Contains(errb.String(), `unknown mapper "lws=16"`) {
		t.Errorf("-mapper lws=16: exit %d, stdout %q, stderr %q; want exit 2 naming the mapper", code, out.String(), errb.String())
	}
}

// TestRunCompareMatchesCampaign pins that run -compare reads the same
// cycles a one-point vortex sweep records for that cell: both charge the
// same driver cost per launch (gcn_layer has two launches), so the ratio
// table is the campaign's.
func TestRunCompareMatchesCampaign(t *testing.T) {
	for _, kernel := range []string{"vecadd", "gcn_layer"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"run", "-config", "2c2w4t", "-kernel", kernel, "-scale", "0.05", "-compare"}, &out, &errb); code != 0 {
			t.Fatalf("%s: run -compare: exit %d: %s", kernel, code, errb.String())
		}
		csvPath := filepath.Join(t.TempDir(), "one.csv")
		var sweepOut bytes.Buffer
		if code := cli([]string{"sweep", "-grid", "2c2w4t", "-kernels", kernel, "-scale", "0.05", "-csv", csvPath}, &sweepOut, &errb); code != 0 {
			t.Fatalf("%s: sweep: exit %d: %s", kernel, code, errb.String())
		}
		f, err := os.Open(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sweep.ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 3 {
			t.Fatalf("%s: one-point sweep wrote %d records, want 3", kernel, len(res.Records))
		}
		for _, rec := range res.Records {
			row := fmt.Sprintf("\n%-8s %-6d %-12d ", rec.Mapper, rec.LWS, rec.Cycles)
			if !strings.Contains(out.String(), row) {
				t.Errorf("%s: run -compare lacks the campaign's row %q:\n%s", kernel, strings.TrimSpace(row), out.String())
			}
		}
	}
}

// TestRunCompareRefusesMapperFlags pins that -compare, which always runs
// the paper's three mappings, refuses an explicit -lws or -mapper instead
// of ignoring it.
func TestRunCompareRefusesMapperFlags(t *testing.T) {
	for _, flag := range [][]string{{"-lws", "4"}, {"-mapper", "ours"}, {"-lws", "0"}} {
		var out, errb bytes.Buffer
		args := append([]string{"run", "-config", "2c2w4t", "-scale", "0.05", "-compare"}, flag...)
		if code := cli(args, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "cannot be combined with "+flag[0]) {
			t.Errorf("-compare %s: exit %d, stdout %q, stderr %q; want exit 2 naming %s", strings.Join(flag, " "), code, out.String(), errb.String(), flag[0])
		}
	}
}

// TestRunRefusesMapperWithLWS pins that an explicit -mapper next to a
// non-zero -lws, which fixes the local work size and leaves no mapper to
// run, is refused instead of ignored; -lws 0 still means "use the mapper".
func TestRunRefusesMapperWithLWS(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"run", "-config", "2c2w4t", "-kernel", "vecadd", "-scale", "0.05", "-lws", "4", "-mapper", "lws=32"}
	if code := cli(args, &out, &errb); code != 2 || out.Len() != 0 ||
		!strings.Contains(errb.String(), "cannot be combined with -mapper") {
		t.Errorf("-lws 4 -mapper lws=32: exit %d, stdout %q, stderr %q; want exit 2 naming -mapper", code, out.String(), errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := cli([]string{"run", "-config", "2c2w4t", "-kernel", "vecadd", "-scale", "0.05", "-lws", "0", "-mapper", "lws=32"}, &out, &errb); code != 0 ||
		!strings.Contains(out.String(), " lws=32 ") {
		t.Errorf("-lws 0 -mapper lws=32: exit %d, stderr %q, report:\n%s", code, errb.String(), out.String())
	}
}
