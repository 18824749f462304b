package asm

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// liSrc loads the define V between a tag, a label and other statements, so
// that a re-encoded program has every field of Program to compare.
const liSrc = ".tag body\n\tnop\n\tli a0, V\nend:\n\tecall\n"

// FuzzSetLI assembles `li a0, V` at one value and re-encodes it at
// another: SetLI must refuse exactly when Assemble refuses the new value
// or lays it out in another number of words, and otherwise give the
// program Assemble gives at the new value.
func FuzzSetLI(f *testing.F) {
	pairs := [][2]int64{{-2049, -2048}, {2047, 2048}, {0x7ff, 0x800}, {0x123457ff, 0x12345800},
		{1<<31 - 1, -1 << 31}, {1<<32 - 1, 1 << 32}, {0, -1}}
	for _, p := range pairs {
		f.Add(p[0], p[1])
		f.Add(p[1], p[0])
	}
	f.Fuzz(func(t *testing.T, v0, v1 int64) {
		p, err := Assemble(liSrc, 0x1000, map[string]int64{"V": v0})
		if err != nil {
			return // v0 is outside li's range
		}
		want, werr := Assemble(liSrc, 0x1000, map[string]int64{"V": v1})
		err = p.SetLI(0x1004, v1)
		switch {
		case werr != nil || len(want.Words) != len(p.Words):
			if err == nil {
				t.Fatalf("li %d re-encoded at %d, which Assemble refuses or lays out anew", v0, v1)
			}
		case err != nil:
			t.Fatalf("li %d refused %d: %v", v0, v1, err)
		default:
			if d := programDiff(p, want); d != "" {
				t.Fatalf("li %d re-encoded at %d: %s differ from Assemble", v0, v1, d)
			}
		}
	})
}

// TestSetLIRefusals pins what SetLI refuses, and that a refusal leaves the
// program as it was.
func TestSetLIRefusals(t *testing.T) {
	const src = "\tnop\n\tli a0, 5\n\tli a1, 0x12345\n\tli a2, end\nend:\n\tecall\n"
	for _, c := range []struct {
		name string
		pc   uint32
		v    int64
	}{
		{"not an li", 0x1000, 1},
		{"second word of an li", 0x100c, 1},
		{"below the program", 0xffc, 1},
		{"past the program", 0x101c, 1},
		{"misaligned", 0x1006, 1},
		{"above the 32-bit range", 0x1004, 1 << 32},
		{"below the 32-bit range", 0x1004, -1<<31 - 1},
		{"one word to two", 0x1004, 2048},
		{"two words to one", 0x1008, 7},
		{"li of a label, always two words", 0x1010, 7},
	} {
		p := MustAssemble(src, 0x1000, nil)
		if err := p.SetLI(c.pc, c.v); err == nil {
			t.Errorf("%s: SetLI(%#x, %d) accepted", c.name, c.pc, c.v)
		}
		if d := programDiff(p, MustAssemble(src, 0x1000, nil)); d != "" {
			t.Errorf("%s: refused SetLI changed %s", c.name, d)
		}
	}
}

// programDiff names the first field in which two programs differ.
func programDiff(got, want *Program) string {
	switch {
	case got.Base != want.Base:
		return "Base"
	case !slices.Equal(got.Words, want.Words):
		return "Words"
	case !slices.Equal(got.Insts, want.Insts):
		return "Insts"
	case !maps.Equal(got.Symbols, want.Symbols):
		return "Symbols"
	case !reflect.DeepEqual(got.Tags, want.Tags):
		return "Tags"
	case !slices.Equal(got.Lines, want.Lines):
		return "Lines"
	}
	return ""
}
