package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runAsCLI names the environment variable under which the test binary runs
// the command instead of the tests: the subprocess tests re-execute the
// test binary as the vortex binary, so no test builds one.
const runAsCLI = "VORTEX_TEST_RUN_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCLI) != "" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// vortexProcess returns an unstarted subprocess running vortex with args.
func vortexProcess(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), runAsCLI+"=1")
	return cmd
}

// vortex runs the command in-process and returns its exit status and its
// stdout and stderr together.
func vortex(args ...string) (int, string) {
	var out bytes.Buffer
	code := cli(args, &out, &out)
	return code, out.String()
}

// checkGolden compares got with the golden file testdata/name, which
// -update rewrites.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestHelp pins the front door: a bare vortex, vortex help and an unknown
// subcommand list the four subcommands and exit 2. tune is unknown: the
// lws search is vortex sweep -oracle.
func TestHelp(t *testing.T) {
	for _, args := range [][]string{nil, {"help"}, {"bogus"}, {"-h"}, {"tune"}} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("vortex %v: exit %d, stdout %q; want exit 2 and the listing on stderr", args, code, out.String())
		}
		for _, sub := range []string{"run", "sweep", "trace", "asm"} {
			if !strings.Contains(errb.String(), "\n  "+sub+" ") {
				t.Errorf("vortex %v: listing misses %s:\n%s", args, sub, errb.String())
			}
		}
		if n := strings.Count(errb.String(), "\n  "); n != 4 {
			t.Errorf("vortex %v: listing has %d subcommands, want 4:\n%s", args, n, errb.String())
		}
		unknown := len(args) > 0 && (args[0] == "bogus" || args[0] == "tune")
		if unknown != strings.Contains(errb.String(), "unknown subcommand") {
			t.Errorf("vortex %v: stderr %q", args, errb.String())
		}
	}
}

// TestSubcommandFlags pins every subcommand's flags — names, types,
// defaults and help — to testdata/flags.golden, the -h listings in one
// file, and counts them: a flag added or dropped is a reviewed change.
func TestSubcommandFlags(t *testing.T) {
	var all bytes.Buffer
	for _, tc := range []struct {
		args  []string
		flags int
	}{
		{[]string{"run"}, 13},
		{[]string{"sweep"}, 20},
		{[]string{"sweep", "serve"}, 22},
		{[]string{"sweep", "work"}, 16},
		{[]string{"sweep", "merge"}, 4},
		{[]string{"trace"}, 8},
		{[]string{"asm"}, 3},
	} {
		var out, errb bytes.Buffer
		if code := cli(append(tc.args, "-h"), &out, &errb); code != 0 || out.Len() != 0 {
			t.Errorf("vortex %v -h: exit %d, stdout %q; want exit 0 and the listing on stderr", tc.args, code, out.String())
		}
		if n := strings.Count(errb.String(), "\n  -"); n != tc.flags {
			t.Errorf("vortex %v takes %d flags, want %d", tc.args, n, tc.flags)
		}
		all.WriteString("$ vortex " + strings.Join(tc.args, " ") + " -h\n")
		all.Write(errb.Bytes())
	}
	checkGolden(t, "flags.golden", all.Bytes())
}
