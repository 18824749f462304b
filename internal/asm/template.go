package asm

import "fmt"

// Template is a program assembled once with a named set of launch symbols,
// from which Instance writes the program Assemble gives for other values of
// those symbols without assembling again. It records every statement whose
// size or encoding reads a launch symbol or an .equ name (an .equ may be
// defined from a launch symbol); an instance replays the .equ definitions
// with its own values and re-encodes only the recorded statements, so every
// other word, the layout and the Symbols, Tags and Lines are the
// template's. That holds only while no recorded statement changes size —
// `li` is one word for a value in [-2048, 2047] and lui+addi otherwise, and
// a .space or .align may resize — so each combination of those sizes (a
// shape) needs a template of its own.
type Template struct {
	Program // as assembled at the values the template was built with

	a       assembler // parse and layout, read-only after NewTemplate
	init    []int64   // slot values before the first .equ
	nlaunch int
	patches []int // items whose size or encoding reads a slot
}

// equ is one .equ statement, replayed by every instance.
type equ struct {
	slot int
	expr string
}

// NewTemplate assembles src like Assemble with defs plus the launch symbols
// names[i] = vals[i], and records what an Instance for other values must
// re-encode. A launch symbol may not also be a define.
func NewTemplate(src string, base uint32, defs map[string]int64, names []string, vals []int64) (*Template, error) {
	if len(names) != len(vals) {
		return nil, fmt.Errorf("asm: %d launch symbols, %d values", len(names), len(vals))
	}
	t := &Template{nlaunch: len(names)}
	a := &t.a
	a.slot = make(map[string]int, len(names))
	for i, name := range names {
		if _, dup := defs[name]; dup {
			return nil, fmt.Errorf("asm: launch symbol %q is also a define", name)
		}
		if _, dup := a.slot[name]; dup {
			return nil, fmt.Errorf("asm: launch symbol %q named twice", name)
		}
		a.slot[name] = i
		a.vals = append(a.vals, vals[i])
	}
	if err := a.assemble(src, base, defs); err != nil {
		return nil, err
	}
	t.init = make([]int64, len(a.vals))
	copy(t.init, vals)
	for name, i := range a.slot {
		if v, ok := defs[name]; ok { // an .equ redefining a define
			t.init[i] = v
		}
	}
	for i := range a.items {
		if a.items[i].varies {
			t.patches = append(t.patches, i)
		}
	}
	t.Program = *a.prog
	a.prog = nil
	return t, nil
}

// Instance writes into p the program that Assemble gives for the launch
// values vals (in the template's order), byte-identical by construction:
// p's Words and Insts arrays are reused and overwritten, and its Symbols,
// Tags and Lines are the template's, shared and read-only. It reports false,
// leaving p unspecified, when the values change the size of a statement or
// fail to assemble: they need a template of their own, which NewTemplate
// builds (or refuses with Assemble's error). Re-encoding instructions
// allocates nothing once p's arrays are large enough (a data word that
// reads a launch symbol costs isa.Decode's error), and Instance is safe
// for concurrent use.
func (t *Template) Instance(p *Program, vals []int64) bool {
	if len(vals) != t.nlaunch {
		return false
	}
	a := t.a // the copy evaluates with its own slot values
	var buf [16]int64
	a.vals = append(buf[:0], t.init...)
	copy(a.vals, vals)
	for _, e := range t.a.equs {
		v, err := evalExpr(e.expr, a.lookup)
		if err != nil {
			return false
		}
		a.vals[e.slot] = v
	}
	for _, i := range t.patches {
		it := &t.a.items[i]
		if n, err := a.sizeOf(it); err != nil || n != it.nwords {
			return false
		}
	}
	p.Base, p.Symbols, p.Tags, p.Lines = t.Base, t.Symbols, t.Tags, t.Lines
	p.Words = append(p.Words[:0], t.Words...)
	p.Insts = append(p.Insts[:0], t.Insts...)
	for _, i := range t.patches {
		it := &t.a.items[i]
		at := int(it.pc-t.Base) / 4
		words, err := a.encodeItem(it, p.Words[at:at])
		if err != nil || len(words) != it.nwords {
			return false
		}
		for j, w := range words {
			p.Insts[at+j] = decodeWord(w)
		}
	}
	return true
}
