package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
)

var sumArgs = []string{"asm", "-D", "N=8", "-D", "BUF=0x20000", filepath.Join("testdata", "asm", "sum.s")}

// TestGoldenListing pins the listing of one small source: addresses,
// machine words, disassembly, section markers and the summary line.
func TestGoldenListing(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli(sumArgs, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	checkGolden(t, "asm/sum.golden", out.Bytes())
}

// TestDisassembleRoundTrip feeds the assembled words back through -d and
// requires the instruction lines of the golden listing.
func TestDisassembleRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "asm", "sum.s"))
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
	if code := cli([]string{"asm", "-d", bin}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "asm", "sum.golden"))
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

// TestAsmCommandLineErrors pins the exit statuses: 2 for an unknown flag or
// a missing file argument, 1 for a source that does not assemble.
func TestAsmCommandLineErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli([]string{"asm", "-no-such-flag"}, &out, &errb); code != 2 || out.Len() != 0 ||
		!strings.Contains(errb.String(), "flag provided but not defined") {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q; want exit 2 naming the undefined flag", code, out.String(), errb.String())
	}
	errb.Reset()
	if code := cli([]string{"asm"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "usage:") {
		t.Errorf("no file: exit %d, stderr %q; want exit 2 and the usage line", code, errb.String())
	}
	errb.Reset()
	// Without its -D defines the source references undefined symbols.
	if code := cli([]string{"asm", sumArgs[len(sumArgs)-1]}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "vortex asm:") {
		t.Errorf("undefined symbols: exit %d, stderr %q; want exit 1", code, errb.String())
	}
}
