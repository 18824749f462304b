package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// codecRecord is a record every field of which is set; its json.Marshal
// line is the base the recordLineRows edit.
var codecRecord = Record{Config: core.HWInfo{Cores: 4, Warps: 8, Threads: 16}, Kernel: "vecadd", Mapper: "lws=32",
	Sched: "gto", MSHRs: 4, L1: "16k4w", Prefetch: "nextline", LWS: 32, Cycles: 123456, Instrs: 7890,
	MemStall: 100, ExecStall: 200, EnergyPJ: 1234.5678, Boundedness: core.MemoryBound}

// recordLineRows edit codecRecord's line, replacing field with value: fast
// says whether the fast decoder takes the result, json whether
// encoding/json accepts it.
var recordLineRows = []struct {
	name, field, value string
	fast, json         bool
}{
	{"energy leading plus", `"EnergyPJ":1234.5678`, `"EnergyPJ":+1`, false, false},
	{"energy bare fraction", `"EnergyPJ":1234.5678`, `"EnergyPJ":.5`, false, false},
	{"energy bare point", `"EnergyPJ":1234.5678`, `"EnergyPJ":1.`, false, false},
	{"energy leading zero", `"EnergyPJ":1234.5678`, `"EnergyPJ":01`, false, false},
	{"energy exponent", `"EnergyPJ":1234.5678`, `"EnergyPJ":1E+2`, true, true},
	{"energy negative zero", `"EnergyPJ":1234.5678`, `"EnergyPJ":-0`, true, true},
	{"energy tiny", `"EnergyPJ":1234.5678`, `"EnergyPJ":5e-324`, true, true},
	{"energy overflow", `"EnergyPJ":1234.5678`, `"EnergyPJ":1e400`, false, false},
	{"energy empty exponent", `"EnergyPJ":1234.5678`, `"EnergyPJ":1e`, false, false},
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
	{"boundedness 255", `"Boundedness":1`, `"Boundedness":255`, true, true},
	{"boundedness 256", `"Boundedness":1`, `"Boundedness":256`, false, false},
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
	if rec, ok := parseRecord([]byte(line), nil); !ok || !sameRecord(rec, codecRecord) {
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
			if ok && !sameRecord(fast, ref) {
				t.Fatalf("%s: fast path decodes %+v, encoding/json %+v", edited, fast, ref)
			}
			got, err := decodeRecord(edited, nil)
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() || !sameRecord(got, ref) {
				t.Fatalf("%s: decodeRecord = %+v, %v; encoding/json %+v, %v", edited, got, err, ref, refErr)
			}
		})
	}
}

// TestAppendRecordMatchesJSON pins the encoder to json.Marshal on the
// values where encoding/json's notation has a rule: float exponent
// switches, negative zero, integer extremes, and strings it escapes.
func TestAppendRecordMatchesJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1234.5678, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 5e-324,
		1e20, 1e21, 9.99e20, 1.2e300, math.MaxFloat64, -2.5e-8, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "vecadd", "a<b>&c", `quote " and \ backslash`, "tab\tnewline\n", "\x00\x1f\x7f",
		"vécadd", "\xff\xfe", "line\u2028sep\u2029", "emoji 😀"}
	var recs []Record
	for _, f := range floats {
		r := codecRecord
		r.EnergyPJ = f
		recs = append(recs, r)
	}
	for _, s := range strs {
		r := codecRecord
		r.Kernel, r.Err = s, s
		recs = append(recs, r)
	}
	r := codecRecord
	r.Config = core.HWInfo{Cores: math.MinInt, Warps: math.MaxInt, Threads: 0}
	r.MSHRs, r.LWS, r.Cycles, r.Boundedness = -1, math.MinInt, math.MaxUint64, 255
	recs = append(recs, r, Record{})
	for _, rec := range recs {
		got, gotErr := appendRecord([]byte("prefix"), rec)
		want, wantErr := json.Marshal(rec)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%+v: encoder error %v, json.Marshal error %v", rec, gotErr, wantErr)
			continue
		}
		if gotErr == nil && string(got) != "prefix"+string(want) {
			t.Errorf("encoder wrote\n%s\njson.Marshal writes\nprefix%s", got, want)
		}
	}
}

// TestRecordLinesTakeFastPath keeps encoding/json the exception: every
// record line of the golden checkpoint, and of a fresh checkpointed Run,
// must decode on the fast path, so a drift between encoder and decoder
// cannot quietly send every line through the fallback.
func TestRecordLinesTakeFastPath(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v4.golden"))
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
	for name, data := range map[string][]byte{"checkpoint_v4.golden": golden, "fresh run": fresh} {
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
			if err := json.Unmarshal(sc.Bytes(), &ref); err != nil || !sameRecord(rec, ref) {
				t.Errorf("%s: record line %d: fast path %+v, encoding/json %+v (%v)", name, n, rec, ref, err)
			}
		}
		if n == 0 {
			t.Errorf("%s holds no record lines", name)
		}
	}
}
