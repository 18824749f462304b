package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// codecRecord is a record every field of which is set; its json.Marshal
// line is the base the recordLineRows edit.
var codecRecord = Record{Config: core.HWInfo{Cores: 4, Warps: 8, Threads: 16}, Kernel: "vecadd", Mapper: "lws=32",
	Sched: "gto", MSHRs: 4, L1: "16k4w", Prefetch: "nextline", LWS: 32, Cycles: 123456, Instrs: 7890,
	MemStall: 100, ExecStall: 200}

// recordLineRows edit codecRecord's line, replacing field with value: fast
// says whether the fast decoder takes the result, json whether
// encoding/json accepts it.
var recordLineRows = []struct {
	name, field, value string
	fast, json         bool
}{
	{"uint leading plus", `"Cycles":123456`, `"Cycles":+1`, false, false},
	{"uint negative zero", `"Cycles":123456`, `"Cycles":-0`, false, false},
	{"uint leading zero", `"Cycles":123456`, `"Cycles":0123`, false, false},
	{"uint max", `"Cycles":123456`, `"Cycles":18446744073709551615`, true, true},
	{"uint overflow", `"Cycles":123456`, `"Cycles":18446744073709551616`, false, false},
	{"uint fraction", `"Cycles":123456`, `"Cycles":1.5`, false, false},
	{"int exponent", `"LWS":32`, `"LWS":1e3`, false, false},
	{"int fraction", `"LWS":32`, `"LWS":32.0`, false, false},
	{"int negative zero", `"LWS":32`, `"LWS":-0`, true, true},
	{"int min", `"LWS":32`, `"LWS":-9223372036854775808`, true, true},
	{"int below min", `"LWS":32`, `"LWS":-9223372036854775809`, false, false},
	{"int above max", `"LWS":32`, `"LWS":9223372036854775808`, false, false},
	{"int bare minus", `"LWS":32`, `"LWS":-`, false, false},
	{"v4 fields", `"Err"`, `"EnergyPJ":1.5,"Boundedness":1,"Err"`, false, true},
	{"non-ASCII string", `"Kernel":"vecadd"`, `"Kernel":"vécadd"`, false, true},
	{"escaped string", `"Kernel":"vecadd"`, `"Kernel":"vec\u0061dd"`, false, true},
	{"raw HTML byte", `"Kernel":"vecadd"`, `"Kernel":"a<b"`, false, true},
	{"raw control byte", `"Kernel":"vecadd"`, "\"Kernel\":\"a\tb\"", false, false},
	{"null string", `"Err":""`, `"Err":null`, false, true},
	{"lower-case key", `"Kernel"`, `"kernel"`, false, true},
	{"whitespace", `"LWS":32`, `"LWS": 32`, false, true},
	{"reordered keys", `"Cores":4,"Warps":8`, `"Warps":8,"Cores":4`, false, true},
	{"missing field", `"Sched":"gto",`, ``, false, true},
	{"trailing space", `"Err":""}`, `"Err":""} `, false, true},
	{"trailing garbage", `"Err":""}`, `"Err":""}x`, false, false},
	{"torn", `"Err":""}`, `"Err":"`, false, false},
}

// TestRecordLineRows pins the fast decoder's refusals: every edit of a
// canonical line the fast path takes, encoding/json decodes identically,
// and every line it refuses is decided by encoding/json.
func TestRecordLineRows(t *testing.T) {
	line := string(bytes.TrimSuffix(jsonLine(t, codecRecord), []byte("\n")))
	if rec, ok := parseRecord([]byte(line), nil); !ok || rec != codecRecord {
		t.Fatalf("canonical line %s: fast path ok=%v, decodes %+v", line, ok, rec)
	}
	for _, row := range recordLineRows {
		t.Run(row.name, func(t *testing.T) {
			if !strings.Contains(line, row.field) {
				t.Fatalf("%q is not in %s", row.field, line)
			}
			edited := []byte(strings.Replace(line, row.field, row.value, 1))
			fast, ok := parseRecord(edited, nil)
			var ref Record
			refErr := json.Unmarshal(edited, &ref)
			if ok != row.fast || (refErr == nil) != row.json {
				t.Fatalf("%s: fast path ok=%v, encoding/json err=%v; want fast %v, json %v", edited, ok, refErr, row.fast, row.json)
			}
			if ok && fast != ref {
				t.Fatalf("%s: fast path decodes %+v, encoding/json %+v", edited, fast, ref)
			}
			got, err := decodeRecord(edited, nil)
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() || got != ref {
				t.Fatalf("%s: decodeRecord = %+v, %v; encoding/json %+v, %v", edited, got, err, ref, refErr)
			}
		})
	}
}

// TestAppendRecordMatchesJSON pins the encoder to json.Marshal on the
// values where encoding/json's notation has a rule: integer extremes and
// strings it escapes.
func TestAppendRecordMatchesJSON(t *testing.T) {
	strs := []string{"", "vecadd", "a<b>&c", `quote " and \ backslash`, "tab\tnewline\n", "\x00\x1f\x7f",
		"vécadd", "\xff\xfe", "line\u2028sep\u2029", "emoji 😀"}
	var recs []Record
	for _, s := range strs {
		r := codecRecord
		r.Kernel, r.Err = s, s
		recs = append(recs, r)
	}
	r := codecRecord
	r.Config = core.HWInfo{Cores: math.MinInt, Warps: math.MaxInt, Threads: 0}
	r.MSHRs, r.LWS, r.Cycles = -1, math.MinInt, math.MaxUint64
	recs = append(recs, r, Record{})
	for _, rec := range recs {
		if got, want := appendRecord([]byte("prefix"), rec), jsonLine(t, rec); string(got)+"\n" != "prefix"+string(want) {
			t.Errorf("encoder wrote\n%s\njson.Marshal writes\nprefix%s", got, want)
		}
	}
}

// TestColumnsRoundTrip holds every entry of the column table to its Record
// field: for each column and each value — the extremes and one apart from
// every other field — set writes the field its JSON key names and get
// reads it back, and the record survives the codec (as json.Marshal's
// bytes, back on the fast path) and WriteCSV/ReadCSV.
func TestColumnsRoundTrip(t *testing.T) {
	var recs []Record
	for _, c := range columns {
		for _, v := range []uint64{0, 1, math.MaxUint64, 4242} {
			rec := c.set(codecRecord, v)
			if f := reflect.ValueOf(rec).FieldByName(c.key); !f.IsValid() || f.Uint() != v || c.get(rec) != v {
				t.Fatalf("column %s: set %d does not land in Record.%s, or get does not read it", c.name, v, c.key)
			}
			recs = append(recs, rec)
		}
	}
	var csv bytes.Buffer
	if err := (&Results{Records: recs}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		line := appendRecord(nil, rec)
		if want := jsonLine(t, rec); string(line)+"\n" != string(want) {
			t.Errorf("encoder wrote\n%s\njson.Marshal writes\n%s", line, want)
		}
		if got, ok := parseRecord(line, nil); !ok || got != rec {
			t.Errorf("codec round trip of %+v: fast path ok=%v, %+v", rec, ok, got)
		}
		if back.Records[i] != rec {
			t.Errorf("CSV round trip of %+v: %+v", rec, back.Records[i])
		}
	}
}

// TestRecordLinesTakeFastPath keeps encoding/json the exception: every
// record line of the golden checkpoint, and of a fresh checkpointed Run,
// must decode on the fast path, so a drift between encoder and decoder
// cannot quietly send every line through the fallback.
func TestRecordLinesTakeFastPath(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Configs:    []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 2, Warps: 4, Threads: 4}},
		Kernels:    []string{"vecadd", "saxpy"},
		Scale:      0.05,
		Workers:    1,
		Axes:       map[string][]string{"sched": {"rr", "gto"}},
		Checkpoint: filepath.Join(t.TempDir(), "run.jsonl"),
	}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"checkpoint_v5.golden": golden, "fresh run": fresh} {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Scan() // the meta header
		n := 0
		for sc.Scan() {
			n++
			rec, ok := parseRecord(sc.Bytes(), nil)
			if !ok {
				t.Errorf("%s: record line %d misses the fast path: %s", name, n, sc.Bytes())
				continue
			}
			var ref Record
			if err := json.Unmarshal(sc.Bytes(), &ref); err != nil || rec != ref {
				t.Errorf("%s: record line %d: fast path %+v, encoding/json %+v (%v)", name, n, rec, ref, err)
			}
		}
		if n == 0 {
			t.Errorf("%s holds no record lines", name)
		}
	}
}
