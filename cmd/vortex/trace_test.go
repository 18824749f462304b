package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestGoldenTrace pins the Figure 1 rendering of one small kernel under two
// local work sizes: waveforms, section summaries and the issue table all
// come from the per-issue observer, so this also catches an observer that
// misses, repeats or reorders events.
func TestGoldenTrace(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"trace", "-config", "2c2w4t", "-kernel", "vecadd", "-gws", "64", "-lws", "1,8", "-width", "60", "-table", "4"}
	if code := cli(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	checkGolden(t, "trace/vecadd_2c2w4t.golden", out.Bytes())
}

// TestTraceCommandLineErrors pins exit 2, with nothing on stdout, for an
// unknown flag or a flag value no trace can take (a bad or negative -lws
// and a bad -config used to exit 1, a negative -table or -width was
// accepted silently).
func TestTraceCommandLineErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-lws", "-1"}, 2, `-lws "-1": want comma-separated local work sizes`},
		{[]string{"-lws", "x"}, 2, `-lws "x": want comma-separated local work sizes`},
		{[]string{"-lws", "1,,8"}, 2, `-lws "1,,8": want comma-separated local work sizes`},
		{[]string{"-table", "-1"}, 2, "-table -1: want a row count"},
		{[]string{"-width", "-3"}, 2, "-width -3: want a positive column count"},
		{[]string{"-config", "bogus"}, 2, "core: bad config"},
		{[]string{"-kernel", "nosuch"}, 2, `unknown kernel "nosuch"`},
	} {
		var out, errb bytes.Buffer
		if code := cli(append([]string{"trace"}, tc.args...), &out, &errb); code != tc.code || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit %d and %q", tc.args, code, out.String(), errb.String(), tc.code, tc.want)
		}
	}
}

// TestTraceRefusesNonPositiveGWS pins that a work size no kernel can be
// built at is a command-line error (exit 2, before any build) instead of
// panicking in the input generator or failing inside the runtime.
func TestTraceRefusesNonPositiveGWS(t *testing.T) {
	for _, gws := range []string{"-5", "0"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"trace", "-gws", gws}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "-gws "+gws+": want a positive work size") {
			t.Errorf("-gws %s: exit %d, stdout %q, stderr %q; want exit 2 refusing the size", gws, code, out.String(), errb.String())
		}
	}
}

// TestTraceGWSIsTheLaunchedSize pins that the header and the Eq. 1 line
// name the work size the first launch runs: a kernel without a sized
// builder runs its registry size, so an explicit -gws for it is a
// command-line error, and without one the header reads the launched gws
// rather than the flag's default.
func TestTraceGWSIsTheLaunchedSize(t *testing.T) {
	for _, kernel := range []string{"sgemm", "gauss", "gcn_aggr", "gcn_layer", "resnet20_layer"} {
		var out, errb bytes.Buffer
		if code := cli([]string{"trace", "-kernel", kernel, "-gws", "128", "-lws", "1"}, &out, &errb); code != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "-gws sizes only") {
			t.Errorf("%s -gws 128: exit %d, stdout %q, stderr %q; want exit 2 refusing -gws", kernel, code, out.String(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := cli([]string{"trace", "-config", "16c8w16t", "-kernel", "sgemm", "-lws", "0", "-width", "10"}, &out, &errb); code != 0 {
		t.Fatalf("sgemm trace: exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"sgemm (gws=4096) on 16c8w16t", "Eq. 1 optimal lws = 2\n", "tasks=2048,"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sgemm trace lacks %q:\n%s", want, out.String())
		}
	}
}
