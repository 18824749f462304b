package asm

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

var launchNames = []string{"X", "Y"}

// templateSrc wraps a body in statements that read both launch symbols:
// the li whose width is the usual shape, and a data word.
func templateSrc(body string) string {
	return "\tli t0, X\n\tli t1, Y\n" + body + "\n__end:\n\t.word X ^ Y\n\tecall\n"
}

func launchDefs(defs map[string]int64, x, y int64) map[string]int64 {
	out := maps.Clone(defs)
	if out == nil {
		out = map[string]int64{}
	}
	out["X"], out["Y"] = x, y
	return out
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

// checkInstance holds the template contract at one pair of values: an
// instance equals Assemble at those values, and a refusal means Assemble
// fails there or lays the program out differently (a new shape).
func checkInstance(t *testing.T, tm *Template, src string, defs map[string]int64, x, y int64) bool {
	t.Helper()
	var p Program
	ok := tm.Instance(&p, []int64{x, y})
	want, err := Assemble(src, tm.Base, launchDefs(defs, x, y))
	switch {
	case ok && err != nil:
		t.Fatalf("X=%d Y=%d: instance accepted values Assemble refuses: %v", x, y, err)
	case ok:
		if d := programDiff(&p, want); d != "" {
			t.Fatalf("X=%d Y=%d: instance %s differ from Assemble", x, y, d)
		}
	case err == nil && slices.Equal(want.Lines, tm.Lines):
		t.Fatalf("X=%d Y=%d: instance refused values of the template's own layout", x, y)
	}
	return ok
}

// TestTemplateInstance walks launch values across every layout boundary
// of li: one word in [-2048, 2047], lui+addi outside, with the lui
// rounding at low 12 bits 0x7ff / 0x800, up to the 32-bit extremes.
func TestTemplateInstance(t *testing.T) {
	values := []int64{0, 1, -1, 2047, 2048, -2048, -2049, 0x7ff, 0x800, 0x12345_7ff, 0x12345_800,
		0xfffff_7ff, 0xfffff_800, 1<<31 - 1, -1 << 31, 1<<32 - 1}
	bodies := map[string]string{
		"plain":      "\tadd t2, t0, t1\n",
		"expression": "\tli t2, X*4 + Y\n\taddi t3, t3, X & 0x7ff\n\tlw t4, (Y & 0x3fc)(t3)\n",
		"equ":        ".equ Z, X + D\n.equ W, Z >> 4\n\tli t2, W\n\taddi t3, t3, Z & 1023\n",
		"space":      "\t.space (X & 3) * 4\n\tli t2, Y\n\t.align 16\n",
		"redefine":   ".equ Z, 5\n.equ V, Z + X\n.equ Z, Y\n\tli t2, Z\n\tli t3, V\n",
		"branch":     "\tbeq t0, t1, __end - (X & 4)\n\tj __end\n",
	}
	defs := map[string]int64{"D": 9}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			src := templateSrc(body)
			tm, err := NewTemplate(src, 0x1000, defs, launchNames, []int64{3, 5})
			if err != nil {
				t.Fatal(err)
			}
			want := MustAssemble(src, 0x1000, launchDefs(defs, 3, 5))
			if d := programDiff(&tm.Program, want); d != "" {
				t.Fatalf("template %s differ from Assemble", d)
			}
			accepted := 0
			for _, x := range values {
				for _, y := range values {
					if checkInstance(t, tm, src, defs, x, y) {
						accepted++
					}
				}
			}
			if accepted == 0 {
				t.Error("the template accepted no values at all")
			}
		})
	}
}

// TestTemplateRefusals pins what NewTemplate refuses beyond Assemble's
// own errors, and that it reports those errors.
func TestTemplateRefusals(t *testing.T) {
	if _, err := NewTemplate("nop\n", 0x1000, map[string]int64{"X": 1}, launchNames, []int64{1, 2}); err == nil {
		t.Error("launch symbol that is also a define accepted")
	}
	if _, err := NewTemplate("nop\n", 0x1000, nil, []string{"X", "X"}, []int64{1, 2}); err == nil {
		t.Error("launch symbol named twice accepted")
	}
	if _, err := NewTemplate("nop\n", 0x1000, nil, launchNames, []int64{1}); err == nil {
		t.Error("value count mismatch accepted")
	}
	if _, err := NewTemplate("\tli t0, X / (Y - 2)\n", 0x1000, nil, launchNames, []int64{1, 2}); err == nil {
		t.Error("Assemble's error not reported")
	}
	tm, err := NewTemplate("\tli t0, X / Y\n", 0x1000, nil, launchNames, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var p Program
	if tm.Instance(&p, []int64{1, 0}) {
		t.Error("instance accepted a division by zero")
	}
	if tm.Instance(&p, []int64{1}) {
		t.Error("instance accepted too few values")
	}
}

// TestTemplateInstanceZeroAllocs pins that an instance written into
// arrays large enough allocates nothing when it re-encodes instructions.
func TestTemplateInstanceZeroAllocs(t *testing.T) {
	src := "\tli t0, X\n\tli t1, Y\n.equ Z, X + 1\n\tli t2, Z*4\n\taddi t3, t3, Y & 7\n\tecall\n"
	tm, err := NewTemplate(src, 0x1000, nil, launchNames, []int64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	var p Program
	x := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		x = (x + 1) % 512
		if !tm.Instance(&p, []int64{x, 5}) {
			t.Fatal("instance refused a value of the template's shape")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per instance, want 0", allocs)
	}
}

// hugeData reports whether a .space or .align of src would reserve more
// than a megabyte at defs: the fuzz target skips such inputs rather than
// allocate them.
func hugeData(src string, defs map[string]int64) bool {
	a := &assembler{syms: maps.Clone(defs), labels: map[string]int{}}
	if a.parse(src) != nil {
		return false
	}
	for _, it := range a.items {
		if (it.op == ".space" || it.op == ".align") && len(it.args) == 1 {
			if n, err := evalExpr(it.args[0], a.lookup); err == nil && (n > 1<<20 || n < -1<<20) {
				return true
			}
		}
	}
	return false
}

// FuzzTemplateInstance builds a template at one pair of launch values and
// instances it at another: the instance must equal Assemble at the second
// pair, or be refused because Assemble fails or lays the program out
// differently there. The seeds straddle every li layout boundary and name
// the launch symbols inside expressions, .equ definitions and a .space.
func FuzzTemplateInstance(f *testing.F) {
	bodies := []string{
		"",
		"\tli t2, X*4 + Y\n",
		"\taddi t3, t3, X & 0x7ff\n",
		".equ Z, X + 1\n\tli t4, Z\n",
		"\t.space (X & 12)\n\tli t2, Y\n",
		".equ Z, 5\n.equ V, Z + X\n.equ Z, Y\n\tli t2, V\n",
		"\t.word X, Y\n\t.half Y & 0xff\n\t.byte X & 0x7f\n",
		"\tbeq t0, t1, __end\n\t.align 8\n",
	}
	pairs := [][2]int64{{-2049, -2048}, {2047, 2048}, {0x7ff, 0x800}, {0x123457ff, 0x12345800}, {1<<31 - 1, 1<<32 - 1}, {0, -1}}
	for i, body := range bodies {
		a, b := pairs[i%len(pairs)], pairs[(i+1)%len(pairs)]
		f.Add(body, a[0], a[1], b[0], b[1])
		f.Add(body, a[0], a[0], a[1], a[1])
	}
	f.Fuzz(func(t *testing.T, body string, x0, y0, x1, y1 int64) {
		if len(body) > 512 {
			return
		}
		src := templateSrc(body)
		if hugeData(src, launchDefs(nil, x0, y0)) || hugeData(src, launchDefs(nil, x1, y1)) {
			return
		}
		tm, err := NewTemplate(src, 0x1000, nil, launchNames, []int64{x0, y0})
		want, werr := Assemble(src, 0x1000, launchDefs(nil, x0, y0))
		if (err == nil) != (werr == nil) {
			t.Fatalf("NewTemplate error %v, Assemble error %v", err, werr)
		}
		if err != nil {
			return
		}
		if d := programDiff(&tm.Program, want); d != "" {
			t.Fatalf("template %s differ from Assemble", d)
		}
		checkInstance(t, tm, src, nil, x1, y1)
		checkInstance(t, tm, src, nil, x0, y0)
	})
}
