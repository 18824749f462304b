// Package asm implements a two-pass assembler for the project's
// RV32IMF + Vortex instruction set (see internal/isa). It supports labels,
// constant definitions, integer expressions, the usual RISC-V
// pseudo-instructions, and `.tag` directives that attach semantic section
// names to address ranges (used by the trace subsystem to reproduce the
// tagged wavefronts of the paper's Figure 1).
package asm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Program is the output of Assemble: a contiguous block of instruction
// words starting at Base, with pre-decoded instructions, a symbol table and
// semantic tag ranges.
type Program struct {
	Base    uint32
	Words   []uint32
	Insts   []isa.Inst // Insts[i] decodes Words[i]; data words hold Op = OpInvalid
	Symbols map[string]uint32
	Tags    []TagRange
	Lines   []LineInfo
}

// TagRange names the half-open address interval [Start, End).
type TagRange struct {
	Start, End uint32
	Name       string
}

// LineInfo maps one emitted word back to its source line.
type LineInfo struct {
	PC   uint32
	Line int
	Src  string
}

// Size returns the program size in bytes.
func (p *Program) Size() uint32 { return uint32(len(p.Words)) * 4 }

// End returns the first address past the program.
func (p *Program) End() uint32 { return p.Base + p.Size() }

// TagAt returns the semantic tag covering pc, or "".
func (p *Program) TagAt(pc uint32) string {
	i := sort.Search(len(p.Tags), func(i int) bool { return p.Tags[i].End > pc })
	if i < len(p.Tags) && pc >= p.Tags[i].Start {
		return p.Tags[i].Name
	}
	return ""
}

// InstAt returns the decoded instruction at pc.
func (p *Program) InstAt(pc uint32) (isa.Inst, bool) {
	if pc < p.Base || pc >= p.End() || pc%4 != 0 {
		return isa.Inst{}, false
	}
	return p.Insts[(pc-p.Base)/4], true
}

// SourceAt returns the source line that emitted the word at pc, or "".
func (p *Program) SourceAt(pc uint32) string {
	i := sort.Search(len(p.Lines), func(i int) bool { return p.Lines[i].PC >= pc })
	if i < len(p.Lines) && p.Lines[i].PC == pc {
		return p.Lines[i].Src
	}
	return ""
}

// SetLI re-encodes the `li` statement that starts at pc to load v, giving
// the words Assemble gives `li` of v there. It refuses a pc that does not
// start an li, a v outside li's 32-bit range and a v whose li takes another
// number of words than the statement's (a value only known after layout,
// such as a label, always takes two): such a program must be assembled
// again. Words and Insts are written in place; nothing is allocated.
func (p *Program) SetLI(pc uint32, v int64) error {
	i := int(pc-p.Base) / 4 // past the end for a pc below Base
	if pc%4 != 0 || i >= len(p.Lines) || i > 0 && p.Lines[i-1].Line == p.Lines[i].Line ||
		len(p.Lines[i].Src) < 3 || !strings.EqualFold(p.Lines[i].Src[:3], "li ") {
		return fmt.Errorf("asm: no li starts at pc %#x", pc)
	}
	n := 1
	if i+1 < len(p.Lines) && p.Lines[i+1].Line == p.Lines[i].Line {
		n = 2
	}
	v32, size, ok := liValue(v)
	if !ok || size != n {
		return fmt.Errorf("asm: the %d-word li at pc %#x cannot load %d", n, pc, v)
	}
	ins := liInsts(p.Insts[i].Rd, v32, n)
	for j, in := range ins[:n] {
		w, err := isa.Encode(in)
		if err != nil {
			return fmt.Errorf("asm: li at pc %#x: %w", pc, err)
		}
		p.Words[i+j], p.Insts[i+j] = w, decodeWord(w)
	}
	return nil
}

// Error is an assembly error annotated with its 1-based source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// item is one parsed source statement scheduled for emission.
type item struct {
	line   int
	src    string
	op     string   // lower-case mnemonic or directive (".word" etc.)
	args   []string // raw operand strings
	pc     uint32
	nwords int
}

// Assemble translates source into a Program based at base. defs provides
// pre-defined symbols (in addition to labels and .equ definitions).
func Assemble(src string, base uint32, defs map[string]int64) (*Program, error) {
	if base%4 != 0 {
		return nil, fmt.Errorf("asm: base address %#x not word aligned", base)
	}
	a := &assembler{prog: &Program{Base: base, Symbols: map[string]uint32{}}, syms: make(map[string]int64, len(defs))}
	for k, v := range defs {
		a.syms[k] = v
	}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	if err := a.emit(); err != nil {
		return nil, err
	}
	return a.prog, nil
}

// MustAssemble is Assemble for known-good sources; it panics on error.
func MustAssemble(src string, base uint32, defs map[string]int64) *Program {
	p, err := Assemble(src, base, defs)
	if err != nil {
		panic(err)
	}
	return p
}

type tagMark struct {
	index int // item index the tag starts at
	name  string
}

type assembler struct {
	prog   *Program
	items  []item
	tags   []tagMark
	syms   map[string]int64 // defines, .equ values and (after layout) labels
	labels map[string]int   // label name -> item index, resolved to pc in layout
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// parse splits the source into labeled items and directives.
func (a *assembler) parse(src string) error {
	a.labels = map[string]int{}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		// Labels: one or more "name:" prefixes. A comment cannot hide in a
		// label, which is all identifier characters.
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			name := strings.TrimSpace(line[:i])
			if !isIdent(name) {
				break
			}
			if _, dup := a.labels[name]; dup {
				return a.errf(lineNo+1, "duplicate label %q", name)
			}
			if _, dup := a.syms[name]; dup {
				return a.errf(lineNo+1, "label %q collides with a defined symbol", name)
			}
			a.labels[name] = len(a.items)
			line = strings.TrimSpace(line[i+1:])
		}
		line = strings.TrimSpace(line[:commentAt(line)])
		if line == "" {
			continue
		}
		op, rest, _ := strings.Cut(line, " ")
		op = strings.ToLower(strings.TrimSpace(op))
		var args []string
		rest = strings.TrimSpace(rest)
		if op == ".ascii" || op == ".asciz" {
			args = []string{rest} // keep quoted strings intact
		} else if rest != "" {
			for _, f := range splitArgs(rest) {
				args = append(args, strings.TrimSpace(f))
			}
		}
		switch op {
		case ".equ":
			if len(args) != 2 {
				return a.errf(lineNo+1, ".equ needs name, value")
			}
			if !isIdent(args[0]) {
				return a.errf(lineNo+1, ".equ: bad name %q", args[0])
			}
			if _, dup := a.labels[args[0]]; dup {
				return a.errf(lineNo+1, ".equ %q collides with a label", args[0])
			}
			v, err := evalExpr(args[1], a.lookup)
			if err != nil {
				return a.errf(lineNo+1, ".equ %s: %v", args[0], err)
			}
			a.syms[args[0]] = v
			continue
		case ".tag":
			if len(args) != 1 {
				return a.errf(lineNo+1, ".tag needs one name")
			}
			a.tags = append(a.tags, tagMark{index: len(a.items), name: args[0]})
			continue
		}
		a.items = append(a.items, item{line: lineNo + 1, src: line, op: op, args: args})
	}
	return nil
}

// commentAt returns where the trailing comment (# or //) of a statement
// starts, or len(s). In an .ascii/.asciz statement a comment marker inside
// the quoted string is text.
func commentAt(s string) int {
	op, _, _ := strings.Cut(s, " ")
	op = strings.ToLower(op)
	quoted := op == ".ascii" || op == ".asciz"
	in := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case in && c == '\\':
			i++
		case quoted && c == '"':
			in = !in
		case in:
		case c == '#' || c == '/' && strings.HasPrefix(s[i:], "//"):
			return i
		}
	}
	return len(s)
}

// splitArgs splits on commas that are not inside parentheses.
func splitArgs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func isIdent(s string) bool {
	if s == "" || !isSymStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isSymChar(s[i]) {
			return false
		}
	}
	return true
}

// lookup resolves a symbol: a define or .equ value, or (after layout) a
// label.
func (a *assembler) lookup(name string) (int64, bool) {
	v, ok := a.syms[name]
	return v, ok
}

// layout (pass 1) assigns a pc to every item, sizing multi-word
// pseudo-instructions, then resolves labels into the symbol table.
func (a *assembler) layout() error {
	pc := a.prog.Base
	for i := range a.items {
		it := &a.items[i]
		it.pc = pc // sizeOf needs the pc for .align
		n, err := a.sizeOf(it)
		if err != nil {
			return err
		}
		it.nwords = n
		pc += uint32(n) * 4
	}
	for name, idx := range a.labels {
		addr := pc // labels at end of program
		if idx < len(a.items) {
			addr = a.items[idx].pc
		}
		a.syms[name] = int64(addr)
		a.prog.Symbols[name] = addr
	}
	// Materialize tag ranges.
	end := func(idx int) uint32 {
		if idx < len(a.items) {
			return a.items[idx].pc
		}
		return pc
	}
	for i, tm := range a.tags {
		stop := pc
		if i+1 < len(a.tags) {
			stop = end(a.tags[i+1].index)
		}
		start := end(tm.index)
		if start == stop {
			continue
		}
		a.prog.Tags = append(a.prog.Tags, TagRange{Start: start, End: stop, Name: tm.name})
	}
	return nil
}

// sizeOf returns the number of words an item expands to.
func (a *assembler) sizeOf(it *item) (int, error) {
	switch it.op {
	case ".word":
		if len(it.args) == 0 {
			return 0, a.errf(it.line, ".word needs at least one value")
		}
		return len(it.args), nil
	case ".byte":
		if len(it.args) == 0 {
			return 0, a.errf(it.line, ".byte needs at least one value")
		}
		return (len(it.args) + 3) / 4, nil
	case ".half":
		if len(it.args) == 0 {
			return 0, a.errf(it.line, ".half needs at least one value")
		}
		return (len(it.args) + 1) / 2, nil
	case ".ascii", ".asciz":
		str, err := parseStringLit(it.args[0])
		if err != nil {
			return 0, a.errf(it.line, "%s: %v", it.op, err)
		}
		n := len(str)
		if it.op == ".asciz" {
			n++
		}
		return (n + 3) / 4, nil
	case ".align":
		if len(it.args) != 1 {
			return 0, a.errf(it.line, ".align needs a byte alignment")
		}
		n, err := evalExpr(it.args[0], a.lookup)
		if err != nil {
			return 0, a.errf(it.line, ".align: %v", err)
		}
		if n < 4 || n%4 != 0 || n&(n-1) != 0 {
			return 0, a.errf(it.line, ".align %d must be a power-of-two multiple of 4", n)
		}
		pad := (uint32(n) - it.pc%uint32(n)) % uint32(n)
		return int(pad / 4), nil
	case ".space":
		if len(it.args) != 1 {
			return 0, a.errf(it.line, ".space needs a byte count")
		}
		n, err := evalExpr(it.args[0], a.lookup)
		if err != nil {
			return 0, a.errf(it.line, ".space: %v", err)
		}
		if n < 0 || n%4 != 0 {
			return 0, a.errf(it.line, ".space size %d must be a non-negative multiple of 4", n)
		}
		return int(n / 4), nil
	case "li", "la":
		if len(it.args) != 2 {
			return 0, a.errf(it.line, "%s needs rd, value", it.op)
		}
		// A value resolvable now takes the words liValue gives it; one that
		// is not (a label) takes two.
		if v, err := evalExpr(it.args[1], a.lookup); err == nil {
			if _, n, ok := liValue(v); ok {
				return n, nil
			}
		}
		return 2, nil
	}
	return 1, nil
}

// emit (pass 2) encodes every item.
func (a *assembler) emit() error {
	p := a.prog
	for i := range a.items {
		it := &a.items[i]
		at := len(p.Words)
		words, err := a.encodeItem(it, p.Words)
		if err != nil {
			return err
		}
		if len(words)-at != it.nwords {
			return a.errf(it.line, "internal: size mismatch for %q (%d != %d)", it.src, len(words)-at, it.nwords)
		}
		p.Words = words
		for _, w := range words[at:] {
			p.Lines = append(p.Lines, LineInfo{PC: p.Base + uint32(len(p.Insts))*4, Line: it.line, Src: it.src})
			p.Insts = append(p.Insts, decodeWord(w))
		}
	}
	return nil
}

// decodeWord decodes an emitted word; a data word decodes to Op = OpInvalid.
func decodeWord(w uint32) isa.Inst {
	in, err := isa.Decode(w)
	if err != nil {
		return isa.Inst{}
	}
	return in
}

// evalImm evaluates an operand expression with all symbols visible.
func (a *assembler) evalImm(it *item, s string) (int64, error) {
	v, err := evalExpr(s, a.lookup)
	if err != nil {
		return 0, a.errf(it.line, "%v", err)
	}
	return v, nil
}

func (a *assembler) intReg(it *item, s string) (uint8, error) {
	r, ok := isa.IntRegByName(strings.TrimSpace(s))
	if !ok {
		return 0, a.errf(it.line, "bad integer register %q", s)
	}
	return r, nil
}

func (a *assembler) floatReg(it *item, s string) (uint8, error) {
	r, ok := isa.FloatRegByName(strings.TrimSpace(s))
	if !ok {
		return 0, a.errf(it.line, "bad float register %q", s)
	}
	return r, nil
}

// parseMem parses "imm(rs1)" or "(rs1)" into offset and base register.
func (a *assembler) parseMem(it *item, s string) (int32, uint8, error) {
	s = strings.TrimSpace(s)
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf(it.line, "bad memory operand %q (want imm(reg))", s)
	}
	base, err := a.intReg(it, s[open+1:len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	offStr := strings.TrimSpace(s[:open])
	var off int64
	if offStr != "" {
		off, err = a.evalImm(it, offStr)
		if err != nil {
			return 0, 0, err
		}
	}
	if off < -2048 || off > 2047 {
		return 0, 0, a.errf(it.line, "memory offset %d out of range", off)
	}
	return int32(off), base, nil
}

// enc appends the encoded instructions to dst, reporting an Encode error
// at the item's line.
func (a *assembler) enc(dst []uint32, it *item, ins ...isa.Inst) ([]uint32, error) {
	for _, in := range ins {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, a.errf(it.line, "%v", err)
		}
		dst = append(dst, w)
	}
	return dst, nil
}
