package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzReadCheckpoint pins the checkpoint parser's crash-safety contract:
// for ANY byte stream — real checkpoints, truncated or torn lines,
// duplicated keys, corrupt or alien meta headers, binary garbage — it must
// never panic, and must either return an error or parse cleanly into
// records that all carry a task identity. The seeds cover the states real
// campaigns leave behind (complete files, a SIGKILL mid-record, appended
// resumes).
func FuzzReadCheckpoint(f *testing.F) {
	// A real two-record checkpoint, as Run writes it.
	opts := Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}},
		Kernels: []string{"vecadd"},
		Scale:   0.05,
		Seed:    7,
	}
	opts.fill()
	var real bytes.Buffer
	real.Write(jsonLine(f, MetaFor(opts)))
	rec := Record{Config: opts.Configs[0], Kernel: "vecadd", Mapper: "ours", LWS: 1, Cycles: 123, Instrs: 45}
	line := jsonLine(f, rec)
	real.Write(line)
	rec.Mapper = "lws=1"
	line2 := jsonLine(f, rec)
	real.Write(line2)
	f.Add(real.Bytes())

	// Torn tail: killed mid-record write.
	f.Add(real.Bytes()[:real.Len()-len(line2)/2])
	// Duplicated key (appended resume).
	f.Add(append(append([]byte{}, real.Bytes()...), line...))
	// Corrupt meta variants.
	f.Add([]byte(`{"checkpoint_version":99}` + "\n"))
	f.Add([]byte(`{"checkpoint_version":-1}` + "\n"))
	f.Add([]byte(`{"checkpoint_version":2,"configs":",,,"}` + "\n"))
	// Headerless records, missing identity, raw garbage.
	f.Add(line)
	f.Add([]byte(`{"Cycles":12}` + "\n"))
	f.Add([]byte("not json at all\n{{{"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{'})

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, recs, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if meta != nil && meta.Version != checkpointVersion {
			t.Fatalf("accepted meta with version %d", meta.Version)
		}
		for _, r := range recs {
			if r.Kernel == "" || r.Mapper == "" {
				t.Fatalf("accepted record without task identity: %+v", r)
			}
		}
		// A cleanly parsed checkpoint must survive a rewrite round trip:
		// re-serializing the records yields a stream that parses to the
		// same records (the merge writer relies on this).
		if len(recs) > 0 {
			var buf bytes.Buffer
			for _, r := range recs {
				line := jsonLine(t, r)
				if len(line) > maxCheckpointLine {
					// Re-marshaling can expand a line past the reader's
					// bound (raw '<' escapes to 6 bytes); the writer refuses
					// such lines (writeLine), so they never reach a file.
					return
				}
				buf.Write(line)
			}
			_, again, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatalf("re-serialized records do not re-parse: %v", err)
			}
			if !slices.Equal(again, recs) {
				t.Fatalf("round trip changed the records: %+v -> %+v", recs, again)
			}
		}
	})
}

// jsonLine marshals v as one JSONL line.
func jsonLine(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// TestReadCheckpointTornTail pins the kill-9 semantics deterministically
// (the fuzz target explores the space, this documents the contract): a
// final unterminated line that does not parse is dropped and its task is
// simply not recorded; the same corruption mid-file is an error.
func TestReadCheckpointTornTail(t *testing.T) {
	opts := Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}},
		Kernels: []string{"vecadd"},
		Scale:   0.05,
	}
	opts.fill()
	meta := strings.TrimSuffix(string(jsonLine(t, MetaFor(opts))), "\n")
	full := strings.TrimSuffix(string(jsonLine(t, Record{Config: opts.Configs[0], Kernel: "vecadd", Mapper: "ours", Cycles: 9})), "\n")

	torn := meta + "\n" + full + "\n" + full[:len(full)/2]
	m, recs, err := ReadCheckpoint(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if m == nil || len(recs) != 1 {
		t.Fatalf("torn tail parse: meta=%v recs=%d, want meta + 1 record", m, len(recs))
	}

	// The same partial line followed by more data is not a torn tail.
	midCorrupt := meta + "\n" + full[:len(full)/2] + "\n" + full + "\n"
	if _, _, err := ReadCheckpoint(strings.NewReader(midCorrupt)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}

	// An unterminated final line that IS complete JSON is kept: the writer
	// was killed between the record bytes and the newline.
	flushEdge := meta + "\n" + full
	_, recs, err = ReadCheckpoint(strings.NewReader(flushEdge))
	if err != nil || len(recs) != 1 {
		t.Fatalf("unterminated complete record: recs=%d err=%v", len(recs), err)
	}
}

// FuzzRecordLine holds the record codec to encoding/json, its reference, in
// both directions: (a) for any line the fast decoder accepts, json.Unmarshal
// accepts it too and decodes the identical Record — the fallback decides
// every other line, so the reader accepts exactly what encoding/json does;
// (b) for any Record, the encoder's bytes are json.Marshal's.
func FuzzRecordLine(f *testing.F) {
	canon := codecRecord
	add := func(line string, r Record) {
		f.Add([]byte(line), r.Config.Cores, r.Config.Warps, r.Config.Threads, r.Kernel, r.Mapper, r.Sched,
			r.MSHRs, r.L1, r.Prefetch, r.LWS, r.Cycles, r.Instrs, r.MemStall, r.ExecStall, r.Err)
	}
	line := string(bytes.TrimSuffix(jsonLine(f, canon), []byte("\n")))
	add(line, canon)
	for _, row := range recordLineRows {
		add(strings.Replace(line, row.field, row.value, 1), canon)
	}
	odd := canon
	odd.Kernel, odd.Err, odd.LWS = "a<b&c>", "bad \"dims\"\n\xff", -1
	add("", odd)
	for _, c := range columns {
		for _, v := range []uint64{0, 1, math.MaxUint64} {
			r := c.set(canon, v)
			add(string(bytes.TrimSuffix(jsonLine(f, r), []byte("\n"))), r)
		}
	}

	f.Fuzz(func(t *testing.T, line []byte, cores, warps, threads int, kernel, mapper, sched string,
		mshrs int, l1, prefetch string, lws int, cycles, instrs, memStall, execStall uint64, errStr string) {
		// (a) The fast decoder accepts only what encoding/json decodes alike.
		if fast, ok := parseRecord(line, map[string]string{}); ok {
			var ref Record
			if err := json.Unmarshal(line, &ref); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", line, err)
			}
			if fast != ref {
				t.Fatalf("line %q: fast path decodes %+v, encoding/json %+v", line, fast, ref)
			}
		}

		// (b) The encoder writes json.Marshal's bytes.
		rec := Record{Config: core.HWInfo{Cores: cores, Warps: warps, Threads: threads}, Kernel: kernel,
			Mapper: mapper, Sched: sched, MSHRs: mshrs, L1: l1, Prefetch: prefetch, LWS: lws, Cycles: cycles,
			Instrs: instrs, MemStall: memStall, ExecStall: execStall, Err: errStr}
		got := appendRecord(nil, rec)
		if want := jsonLine(t, rec); !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("encoder wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		// Its own output takes the fast path back whenever no string needed
		// escaping, to the record it came from.
		if back, ok := parseRecord(got, nil); ok && back != rec {
			t.Fatalf("round trip of %+v decodes %+v", rec, back)
		}
	})
}
