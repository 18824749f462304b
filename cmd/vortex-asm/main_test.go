package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

var sumArgs = []string{"-D", "N=8", "-D", "BUF=0x20000", filepath.Join("testdata", "sum.s")}

// TestGoldenListing pins the listing of one small source: addresses,
// machine words, disassembly, section markers and the summary line.
func TestGoldenListing(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli(sumArgs, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	path := filepath.Join("testdata", "sum.golden")
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
		t.Errorf("listing differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestDisassembleRoundTrip feeds the assembled words back through -d and
// requires the instruction lines of the golden listing.
func TestDisassembleRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "sum.s"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src), 0x1000, map[string]int64{"N": 8, "BUF": 0x20000})
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 4*len(prog.Words))
	for i, w := range prog.Words {
		binary.LittleEndian.PutUint32(raw[i*4:], w)
	}
	bin := filepath.Join(t.TempDir(), "sum.bin")
	if err := os.WriteFile(bin, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := cli([]string{"-d", bin}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "sum.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if got := strings.TrimSpace(out.String()); got != strings.Join(want, "\n") {
		t.Errorf("-d output:\n%s\nwant the golden listing's instruction lines:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestCommandLineErrors pins the exit statuses: 2 for an unknown flag or a
// missing file argument, 1 for a source that does not assemble.
func TestCommandLineErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"-no-such-flag"}, &out, &errb); code != 2 || out.Len() != 0 ||
		!strings.Contains(errb.String(), "flag provided but not defined") {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q; want exit 2 naming the undefined flag", code, out.String(), errb.String())
	}
	errb.Reset()
	if code := cli(nil, &out, &errb); code != 2 || !strings.Contains(errb.String(), "usage:") {
		t.Errorf("no file: exit %d, stderr %q; want exit 2 and the usage line", code, errb.String())
	}
	errb.Reset()
	// Without its -D defines the source references undefined symbols.
	if code := cli(sumArgs[len(sumArgs)-1:], &out, &errb); code != 1 || !strings.Contains(errb.String(), "vortex-asm:") {
		t.Errorf("undefined symbols: exit %d, stderr %q; want exit 1", code, errb.String())
	}
}
