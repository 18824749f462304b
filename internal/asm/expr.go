package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// evalExpr evaluates an integer expression with symbols. Supported syntax:
// decimal/hex/binary/char literals, symbol names, unary - and ~, binary
// + - * / % << >> & | ^, and parentheses. Symbols resolve through syms; a
// reference to an unknown symbol returns errUndefined wrapping the name.
func evalExpr(src string, syms func(string) (int64, bool)) (int64, error) {
	p := &exprParser{src: src}
	v, err := p.parseLevel(0, syms)
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("unexpected %q in expression %q", p.src[p.pos:], src)
	}
	return v, nil
}

// errUndefined reports an expression referencing a symbol that is not (yet)
// defined. Pass 1 treats it as "size conservatively"; pass 2 as an error.
type errUndefined struct{ name string }

func (e errUndefined) Error() string { return "undefined symbol " + e.name }

// exprParser holds the scan position. The symbol resolver is passed down
// the calls instead of stored here: error text read from the parser
// escapes, and a resolver stored beside it would escape with it, so every
// caller's closure would cost an allocation.
type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *exprParser) eat(s string) bool {
	if p.peek(s) {
		p.pos += len(s)
		return true
	}
	return false
}

// levels lists the binary operators by precedence, loosest first; the
// operators of one level associate left to right.
var levels = [][]string{{"|"}, {"^"}, {"&"}, {"<<", ">>"}, {"+", "-"}, {"*", "/", "%"}}

// parseLevel parses a run of operands joined by the operators of levels[l]
// and tighter; past the last level an operand is a unary expression.
func (p *exprParser) parseLevel(l int, syms func(string) (int64, bool)) (int64, error) {
	if l == len(levels) {
		return p.parseUnary(syms)
	}
	v, err := p.parseLevel(l+1, syms)
	for err == nil {
		var op string
		for _, o := range levels[l] {
			if (o == "|" || o == "&") && p.peek(o+o) {
				return 0, fmt.Errorf("unsupported operator %s%s in %q", o, o, p.src)
			}
			if p.eat(o) {
				op = o
				break
			}
		}
		if op == "" {
			return v, nil
		}
		var r int64
		if r, err = p.parseLevel(l+1, syms); err == nil {
			v, err = p.apply(op, v, r)
		}
	}
	return 0, err
}

// apply evaluates one binary operation.
func (p *exprParser) apply(op string, v, r int64) (int64, error) {
	switch op {
	case "|":
		return v | r, nil
	case "^":
		return v ^ r, nil
	case "&":
		return v & r, nil
	case "+":
		return v + r, nil
	case "-":
		return v - r, nil
	case "*":
		return v * r, nil
	case "<<", ">>":
		if r < 0 || r > 63 {
			return 0, fmt.Errorf("shift amount %d out of range", r)
		}
		if op == "<<" {
			return v << uint(r), nil
		}
		return v >> uint(r), nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("division by zero in %q", p.src)
		}
		return v / r, nil
	}
	if r == 0 {
		return 0, fmt.Errorf("modulo by zero in %q", p.src)
	}
	return v % r, nil
}

func (p *exprParser) parseUnary(syms func(string) (int64, bool)) (int64, error) {
	switch {
	case p.eat("-"):
		v, err := p.parseUnary(syms)
		return -v, err
	case p.eat("~"):
		v, err := p.parseUnary(syms)
		return ^v, err
	case p.eat("("):
		v, err := p.parseLevel(0, syms)
		if err != nil {
			return 0, err
		}
		if !p.eat(")") {
			return 0, fmt.Errorf("missing ) in %q", p.src)
		}
		return v, nil
	}
	return p.parseAtom(syms)
}

func (p *exprParser) parseAtom(syms func(string) (int64, bool)) (int64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("unexpected end of expression %q", p.src)
	}
	c := p.src[p.pos]
	switch {
	case c == '\'': // character literal
		rest := p.src[p.pos:]
		if len(rest) >= 3 && rest[2] == '\'' {
			p.pos += 3
			return int64(rest[1]), nil
		}
		return 0, fmt.Errorf("bad character literal in %q", p.src)
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && isSymChar(p.src[p.pos]) {
			p.pos++
		}
		lit := p.src[start:p.pos]
		v, err := strconv.ParseInt(lit, 0, 64)
		if err != nil {
			// Allow unsigned hex that overflows int64 range.
			u, uerr := strconv.ParseUint(lit, 0, 64)
			if uerr != nil {
				return 0, fmt.Errorf("bad number %q", lit)
			}
			return int64(u), nil
		}
		return v, nil
	case isSymStart(c):
		start := p.pos
		for p.pos < len(p.src) && isSymChar(p.src[p.pos]) {
			p.pos++
		}
		name := p.src[start:p.pos]
		v, ok := syms(name)
		if !ok {
			return 0, errUndefined{name}
		}
		return v, nil
	}
	return 0, fmt.Errorf("unexpected character %q in %q", c, p.src)
}

func isSymStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSymChar(c byte) bool {
	return isSymStart(c) || (c >= '0' && c <= '9') || c == 'x' || c == 'X'
}
