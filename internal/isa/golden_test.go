package isa

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenDisasm pins, for every op, the Disasm text of four randomized
// instances at pc 0x1000 and a digest of Decode(Encode(in)) over 256
// randomized instances. The instances come from randInst, which does not
// read the specs table.
func TestGoldenDisasm(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	var b bytes.Buffer
	for _, op := range Ops() {
		h := sha256.New()
		for i := 0; i < 256; i++ {
			in := randInst(r, op)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", op, in, err)
			}
			got, err := Decode(w)
			if err != nil {
				t.Fatalf("%s: decode %#08x: %v", op, w, err)
			}
			fmt.Fprintf(h, "%08x %+v\n", w, got)
			if i < 4 {
				fmt.Fprintf(&b, "%-9s %08x  %s\n", op, w, Disasm(got, 0x1000))
			}
		}
		fmt.Fprintf(&b, "%-9s digest %x\n", op, h.Sum(nil)[:8])
	}
	path := filepath.Join("testdata", "disasm.golden")
	if *updateGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("Disasm/round-trip output differs from %s:\n--- got ---\n%s", path, b.Bytes())
	}
}
