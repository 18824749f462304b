package sweep

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
)

// The checkpoint record codec. A campaign writes, merges and resumes from
// thousands of record lines, and encoding/json's reflection dominated that
// path, so record lines have one hand-written form: exactly the bytes
// json.Marshal(Record) produces — the fields in declaration order, compact,
// floats in encoding/json's notation, strings quoted as encoding/json quotes
// them. appendRecord writes that form; parseRecord reads only that form.
// encoding/json stays the reference: every line parseRecord does not
// recognize (reordered or escaped keys, whitespace, hand edits, torn or
// corrupt bytes) goes to json.Unmarshal, so what the reader accepts, and the
// errors it reports, are encoding/json's.

// appendRecord appends json.Marshal(rec) to b, or refuses rec as
// json.Marshal does (a NaN or infinite EnergyPJ).
func appendRecord(b []byte, rec Record) ([]byte, error) {
	if math.IsNaN(rec.EnergyPJ) || math.IsInf(rec.EnergyPJ, 0) {
		_, err := json.Marshal(rec)
		return b, err
	}
	b = append(b, `{"Config":{"Cores":`...)
	b = strconv.AppendInt(b, int64(rec.Config.Cores), 10)
	b = append(b, `,"Warps":`...)
	b = strconv.AppendInt(b, int64(rec.Config.Warps), 10)
	b = append(b, `,"Threads":`...)
	b = strconv.AppendInt(b, int64(rec.Config.Threads), 10)
	b = append(b, `},"Kernel":`...)
	b = appendJSONString(b, rec.Kernel)
	b = append(b, `,"Mapper":`...)
	b = appendJSONString(b, rec.Mapper)
	b = append(b, `,"Sched":`...)
	b = appendJSONString(b, rec.Sched)
	b = append(b, `,"MSHRs":`...)
	b = strconv.AppendInt(b, int64(rec.MSHRs), 10)
	b = append(b, `,"L1":`...)
	b = appendJSONString(b, rec.L1)
	b = append(b, `,"Prefetch":`...)
	b = appendJSONString(b, rec.Prefetch)
	b = append(b, `,"LWS":`...)
	b = strconv.AppendInt(b, int64(rec.LWS), 10)
	b = append(b, `,"Cycles":`...)
	b = strconv.AppendUint(b, rec.Cycles, 10)
	b = append(b, `,"Instrs":`...)
	b = strconv.AppendUint(b, rec.Instrs, 10)
	b = append(b, `,"MemStall":`...)
	b = strconv.AppendUint(b, rec.MemStall, 10)
	b = append(b, `,"ExecStall":`...)
	b = strconv.AppendUint(b, rec.ExecStall, 10)
	b = append(b, `,"EnergyPJ":`...)
	b = appendJSONFloat(b, rec.EnergyPJ)
	b = append(b, `,"Boundedness":`...)
	b = strconv.AppendUint(b, uint64(rec.Boundedness), 10)
	b = append(b, `,"Err":`...)
	b = appendJSONString(b, rec.Err)
	return append(b, '}'), nil
}

// plainByte reports whether c stands for itself inside a string
// json.Marshal quotes: printable ASCII other than the quote, the backslash
// and the three characters it escapes for HTML.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendJSONString appends s quoted as json.Marshal quotes it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends finite f in encoding/json's notation: the
// shortest round-trip decimal, in exponent form (with a one-digit negative
// exponent unpadded) only for magnitudes below 1e-6 or from 1e21 up.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeRecord decodes one record line: the canonical form directly, any
// other line through encoding/json.
func decodeRecord(line []byte, names map[string]string) (Record, error) {
	if rec, ok := parseRecord(line, names); ok {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// parseRecord decodes a line in exactly the form appendRecord writes,
// reporting false for any other line. It accepts only lines json.Unmarshal
// decodes to the same Record: JSON-grammar numbers in range for their
// field, and strings of plain bytes. Strings are interned in names (which
// may be nil), since a campaign repeats few kernel, mapper and axis values
// across many records.
func parseRecord(line []byte, names map[string]string) (Record, bool) {
	p := recordParser{b: line, ok: true, names: names}
	var rec Record
	p.lit(`{"Config":{"Cores":`)
	rec.Config.Cores = p.int()
	p.lit(`,"Warps":`)
	rec.Config.Warps = p.int()
	p.lit(`,"Threads":`)
	rec.Config.Threads = p.int()
	p.lit(`},"Kernel":`)
	rec.Kernel = p.str()
	p.lit(`,"Mapper":`)
	rec.Mapper = p.str()
	p.lit(`,"Sched":`)
	rec.Sched = p.str()
	p.lit(`,"MSHRs":`)
	rec.MSHRs = p.int()
	p.lit(`,"L1":`)
	rec.L1 = p.str()
	p.lit(`,"Prefetch":`)
	rec.Prefetch = p.str()
	p.lit(`,"LWS":`)
	rec.LWS = p.int()
	p.lit(`,"Cycles":`)
	rec.Cycles = p.uint(math.MaxUint64)
	p.lit(`,"Instrs":`)
	rec.Instrs = p.uint(math.MaxUint64)
	p.lit(`,"MemStall":`)
	rec.MemStall = p.uint(math.MaxUint64)
	p.lit(`,"ExecStall":`)
	rec.ExecStall = p.uint(math.MaxUint64)
	p.lit(`,"EnergyPJ":`)
	rec.EnergyPJ = p.float()
	p.lit(`,"Boundedness":`)
	rec.Boundedness = core.Boundedness(p.uint(math.MaxUint8))
	p.lit(`,"Err":`)
	rec.Err = p.str()
	p.lit(`}`)
	return rec, p.ok && len(p.b) == 0
}

// recordParser consumes a canonical record line from the front of b. The
// first mismatch clears ok, after which every step is a no-op.
type recordParser struct {
	b     []byte
	ok    bool
	names map[string]string
}

func (p *recordParser) lit(s string) {
	if !p.ok || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		p.ok = false
		return
	}
	p.b = p.b[len(s):]
}

// uint consumes an unsigned JSON integer — "0" or a non-zero digit and its
// followers — and returns its value, refusing one past limit.
func (p *recordParser) uint(limit uint64) uint64 {
	if !p.ok || len(p.b) == 0 || p.b[0] < '0' || p.b[0] > '9' {
		p.ok = false
		return 0
	}
	if p.b[0] == '0' {
		p.b = p.b[1:]
		return 0
	}
	var n uint64
	i := 0
	for ; i < len(p.b) && p.b[i] >= '0' && p.b[i] <= '9'; i++ {
		d := uint64(p.b[i] - '0')
		if n > (limit-d)/10 {
			p.ok = false
			return 0
		}
		n = n*10 + d
	}
	p.b = p.b[i:]
	return n
}

// int consumes a signed integer in int's range.
func (p *recordParser) int() int {
	if p.ok && len(p.b) > 0 && p.b[0] == '-' {
		p.b = p.b[1:]
		return int(-p.uint(-math.MinInt))
	}
	return int(p.uint(math.MaxInt))
}

// float consumes a JSON number and parses it as encoding/json does.
func (p *recordParser) float() float64 {
	if !p.ok {
		return 0
	}
	b := p.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		p.ok = false
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			p.ok = false
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			p.ok = false
			return 0
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	p.b = b[i:]
	return f
}

// skipDigits returns the index of the first non-digit of b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// str consumes a quoted string of plain bytes.
func (p *recordParser) str() string {
	if !p.ok || len(p.b) == 0 || p.b[0] != '"' {
		p.ok = false
		return ""
	}
	i := 1
	for i < len(p.b) && plainByte(p.b[i]) {
		i++
	}
	if i == len(p.b) || p.b[i] != '"' {
		p.ok = false
		return ""
	}
	raw := p.b[1:i]
	p.b = p.b[i+1:]
	s, ok := p.names[string(raw)]
	if !ok {
		s = string(raw)
		if p.names != nil {
			p.names[s] = s
		}
	}
	return s
}
