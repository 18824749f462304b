package sweep

import (
	"encoding/json"
	"math"
	"strconv"
)

// The checkpoint record codec. A campaign writes, merges and resumes from
// thousands of record lines, and encoding/json's reflection dominated that
// path, so record lines have one hand-written form: exactly the bytes
// json.Marshal(Record) produces — the fields in declaration order, compact,
// strings quoted as encoding/json quotes them. appendRecord writes that
// form; parseRecord reads only that form.
// encoding/json stays the reference: every line parseRecord does not
// recognize (reordered or escaped keys, whitespace, hand edits, torn or
// corrupt bytes, and the lines of v4 checkpoints, whose records carry two
// since-deleted fields) goes to json.Unmarshal, so what the reader accepts,
// and the errors it reports, are encoding/json's.

// appendRecord appends json.Marshal(rec) to b.
func appendRecord(b []byte, rec Record) []byte {
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
	for _, c := range columns {
		b = append(append(append(b, `,"`...), c.key...), `":`...)
		b = strconv.AppendUint(b, c.get(rec), 10)
	}
	b = append(b, `,"Err":`...)
	b = appendJSONString(b, rec.Err)
	return append(b, '}')
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
	for _, c := range columns {
		p.lit(`,"`)
		p.lit(c.key)
		p.lit(`":`)
		rec = c.set(rec, p.uint(math.MaxUint64))
	}
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
