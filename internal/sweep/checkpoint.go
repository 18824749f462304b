package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
)

// Checkpoint format: a JSONL file. The first line is a meta header binding
// the checkpoint to the sweep options that produced it; every following
// line is one JSON-encoded Record, appended (and flushed) as its simulation
// completes, in completion order. Record lines go through the record codec
// (codec.go), which writes encoding/json's bytes; JSON round-trips every
// Record field exactly (shortest-round-trip floats, full-precision
// integers), so a resumed campaign that splices checkpointed records into
// the task grid is byte-identical to an uninterrupted run. Failed records
// (Record.Err != "") are never checkpointed: a resume retries them.

// checkpointVersion guards the line format. Version 2 added the shard
// identity and the canonical task grid to the meta header; version 3 added
// the warp-scheduler grid axis (meta `scheds`, per-record `Sched`);
// version 4 added the memory-side grid axes (meta `mshrs`, `l1_geoms`,
// `prefetch`, per-record `MSHRs`/`L1`/`Prefetch`); version 5 lists the
// measured columns the records carry (meta `columns`), so a later column
// needs no new version. A v4 file still reads: its records carry the four
// columns of this build plus two since-deleted fields (`EnergyPJ`,
// `Boundedness`) that the reader ignores. Older files are refused rather
// than guessed at: a v3 record carries no memory-axis identity, so
// splicing it into a grid would silently assign it to an arbitrary grid
// cell.
const checkpointVersion = 5

// Meta pins the sweep parameters that determine per-record simulation
// results, the canonical task grid, and which shard of it this checkpoint
// covers. A resume against a checkpoint whose meta differs would silently
// splice records from a different experiment (or from the wrong shard), so
// Run refuses it; Merge requires all shard metas to agree on everything but
// ShardIndex; the campaign service refuses workers whose meta differs from
// the served campaign's. Meta is a comparable value: two campaigns are the
// same experiment exactly when their metas are ==.
type Meta struct {
	Version          int     `json:"checkpoint_version"`
	Scale            float64 `json:"scale"`
	Seed             int64   `json:"seed"`
	Verify           bool    `json:"verify"`
	DispatchOverhead int64   `json:"dispatch_overhead"`
	NoCoalesce       bool    `json:"no_coalesce"`
	ShardIndex       int     `json:"shard_index"`
	ShardCount       int     `json:"shard_count"`
	// Configs, Kernels, Mappers and one field per Axes entry are the
	// comma-joined dimensions of the canonical task grid (Options.grid), in
	// grid order. They let Merge reconstruct the full task list (and verify
	// shard coverage) from shard files alone.
	Configs  string `json:"configs"`
	Kernels  string `json:"kernels"`
	Mappers  string `json:"mappers"`
	Scheds   string `json:"scheds"`
	MSHRs    string `json:"mshrs"`
	L1Geoms  string `json:"l1_geoms"`
	Prefetch string `json:"prefetch"`
	// Columns is the comma-joined names of the measured columns the
	// record lines carry.
	Columns string `json:"columns"`
}

// MetaFor computes the campaign identity of opts (after defaulting). It is
// the value the checkpoint header carries and the campaign service
// validates worker enrollment against.
func MetaFor(opts Options) Meta {
	opts.fill()
	g := opts.grid()
	m := Meta{
		Version:          checkpointVersion,
		Scale:            opts.Scale,
		Seed:             opts.Seed,
		Verify:           opts.Verify,
		DispatchOverhead: opts.DispatchOverhead,
		NoCoalesce:       opts.NoCoalesce,
		ShardIndex:       opts.ShardIndex,
		ShardCount:       opts.ShardCount,
		Configs:          strings.Join(g[0], ","),
		Kernels:          strings.Join(g[1], ","),
		Mappers:          strings.Join(g[2], ","),
		Columns:          columnNames(),
	}
	for i, a := range Axes {
		*a.meta(&m) = strings.Join(g[3+i], ",")
	}
	return m
}

// columnNames is the current column list, as the meta spells it.
func columnNames() string {
	names := make([]string, len(columns))
	for i, c := range columns {
		names[i] = c.name
	}
	return strings.Join(names, ",")
}

// parseMeta decodes a meta header line. ok is false for a line that is no
// meta header; a header this build cannot read is an error. A v4 header
// comes back as the v5 header of the same campaign: its records carry
// every current column.
func parseMeta(line []byte) (m Meta, ok bool, err error) {
	if json.Unmarshal(line, &m) != nil || m.Version <= 0 {
		return m, false, nil
	}
	switch m.Version {
	case 4:
		m.Version, m.Columns = checkpointVersion, columnNames()
	case checkpointVersion:
		for _, name := range splitAxis(m.Columns) {
			if !slices.ContainsFunc(columns, func(c column) bool { return c.name == name }) {
				return m, true, fmt.Errorf("sweep: checkpoint records carry column %q, which this build does not know (it reads %s)", name, columnNames())
			}
		}
	default:
		return m, true, fmt.Errorf("sweep: checkpoint version %d not supported (this build reads v4 and v%d; v3 files predate the memory-side grid axes — MSHRs, L1 geometry, prefetch — and carry no per-record values for them, so they cannot be spliced — re-run the campaign)",
			m.Version, checkpointVersion)
	}
	return m, true, nil
}

// grid splits the meta back into the task grid's dimensions, in the order
// of Options.grid.
func (m Meta) grid() [][]string {
	g := [][]string{splitAxis(m.Configs), splitAxis(m.Kernels), splitAxis(m.Mappers)}
	for _, a := range Axes {
		g = append(g, splitAxis(*a.meta(&m)))
	}
	return g
}

// splitAxis splits one comma-joined grid dimension of the meta; an empty
// string is an empty dimension, not [""].
func splitAxis(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// taskKey is the single definition of a task's identity string — its grid
// cell's values, in Options.grid order — on which Record.Key, Task.Key and
// Merge's diagnostics agree.
func taskKey(cell []string) string { return strings.Join(cell, "/") }

// Key names the record's task: one (config, kernel, mapper, grid point)
// cell of the campaign grid. Resume and Merge place records by grid index
// (gridIndex), so they build a key only for a diagnostic.
func (r Record) Key() string {
	var name [32]byte
	cell := append(make([]string, 0, 8), string(r.Config.AppendName(name[:0])), r.Kernel, r.Mapper)
	for _, a := range Axes {
		cell = append(cell, a.get(r))
	}
	return taskKey(cell)
}

// ReadCheckpoint parses a JSONL checkpoint stream into its meta header (nil
// if the stream is empty or headerless) and its records in file order; a
// checkpoint appended to by several runs may hold a task twice.
func ReadCheckpoint(rd io.Reader) (meta *Meta, recs []Record, err error) {
	err = scanCheckpoint(rd, func(m Meta) error { meta = &m; return nil },
		func(rec Record) error { recs = append(recs, rec); return nil })
	if err != nil {
		return nil, nil, err
	}
	return meta, recs, nil
}

// scanCheckpoint hands a checkpoint stream's meta header (if the first line
// is one) to onMeta, then each record in file order to onRecord, and
// returns the first error. A final unterminated line that does not parse
// is the torn write of a campaign killed mid-record (a strict prefix of a
// JSON object is never valid JSON) and is dropped, so a resume retries its
// task; a corrupt line anywhere else is an error.
func scanCheckpoint(rd io.Reader, onMeta func(Meta) error, onRecord func(Record) error) error {
	names := map[string]string{}
	br := bufio.NewReaderSize(rd, 1<<16)
	first := true
	for {
		line, terminated, rerr := readCheckpointLine(br)
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		if len(line) > 0 {
			m, isMeta, err := Meta{}, false, error(nil)
			if first {
				m, isMeta, err = parseMeta(line)
			}
			first = false
			if isMeta && err == nil {
				err = onMeta(m)
			} else if !isMeta {
				rec, derr := decodeRecord(line, names)
				switch {
				case derr != nil && !terminated:
					return nil // torn tail of a killed writer
				case derr != nil:
					return fmt.Errorf("sweep: corrupt checkpoint line: %w", derr)
				case rec.Kernel == "" || rec.Mapper == "":
					return fmt.Errorf("sweep: checkpoint line missing task identity: %q", line)
				}
				err = onRecord(rec)
			}
			if err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
	}
}

// Diff names the first field on which m and o differ, by its JSON key,
// with both values ("seed 7 vs 8"); a list shows the whole entries that
// fit in 40 bytes from the first entry that differs, and "…" after them
// when more follow. Every refusal of a foreign meta goes through it.
func (m Meta) Diff(o Meta) string {
	va, vb := reflect.ValueOf(m), reflect.ValueOf(o)
	for i := range va.NumField() {
		x, y := fmt.Sprint(va.Field(i)), fmt.Sprint(vb.Field(i))
		if x == y {
			continue
		}
		p := 0
		for p < min(len(x), len(y)) && x[p] == y[p] {
			p++
		}
		p = strings.LastIndexByte(x[:p], ',') + 1
		key, _, _ := strings.Cut(va.Type().Field(i).Tag.Get("json"), ",")
		return fmt.Sprintf("%s %s vs %s", key, clip(x[p:], 40), clip(y[p:], 40))
	}
	return ""
}

// clip cuts the comma-separated list s after its last entry that ends
// within n bytes, keeping at least the first entry whole, and marks an
// elided tail with "…".
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	i := strings.LastIndexByte(s[:n+1], ',')
	if i < 0 {
		i = strings.IndexByte(s, ',')
	}
	if i < 0 {
		return s
	}
	return s[:i+1] + "…"
}

// maxCheckpointLine bounds one checkpoint line: real meta headers are a few
// KiB (450 config names) and records a few hundred bytes, so anything past
// this is a corrupt file, refused instead of read wholesale into memory
// (or mistaken for a benign torn tail).
const maxCheckpointLine = 1 << 20

// readCheckpointLine reads the next line of at most maxCheckpointLine
// bytes, reporting whether its newline terminator was present. The final
// line of a stream comes back with io.EOF (and terminated=false when the
// stream ends mid-line). A line that fits br's buffer is returned in place:
// it is valid only until the next read.
func readCheckpointLine(br *bufio.Reader) (line []byte, terminated bool, err error) {
	for {
		frag, ferr := br.ReadSlice('\n')
		if line == nil && ferr == nil {
			return frag[:len(frag)-1], true, nil
		}
		line = append(line, frag...)
		if len(line) > maxCheckpointLine {
			return nil, false, fmt.Errorf("sweep: checkpoint line exceeds %d bytes", maxCheckpointLine)
		}
		switch ferr {
		case nil:
			return bytes.TrimSuffix(line, []byte("\n")), true, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return line, false, io.EOF
		default:
			return nil, false, ferr
		}
	}
}

// ReadCheckpointFile loads a checkpoint from disk; a missing file is an
// empty checkpoint, not an error (first run of a resumable campaign).
func ReadCheckpointFile(path string) (*Meta, []Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// CheckpointWriter appends records to the JSONL checkpoint as they
// complete, flushing per record so a killed campaign loses at most the
// records in flight. It is not safe for concurrent use: a Campaign
// serializes its appends.
type CheckpointWriter struct {
	f *os.File
	w *bufio.Writer
}

// OpenCheckpoint opens path for streaming. resume appends to an existing
// file; otherwise the file is truncated. A fresh (or empty) file gets the
// meta header for opts first. On resume, an unterminated final line — the
// torn write of a killed campaign, which ReadCheckpoint ignores — is cut
// off first, so the retried record starts on a fresh line instead of
// concatenating onto the torn bytes and corrupting the file.
func OpenCheckpoint(path string, resume bool, opts Options) (*CheckpointWriter, error) {
	flags := os.O_RDWR | os.O_CREATE
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if resume {
		if size, err = repairTornTail(f, size); err != nil {
			f.Close()
			return nil, err
		}
	}
	c := &CheckpointWriter{f: f, w: bufio.NewWriter(f)}
	if size == 0 {
		if err = writeMetaLine(c.w, MetaFor(opts)); err == nil {
			err = c.w.Flush()
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// repairTornTail fixes an unterminated final line of f (size bytes long,
// opened with O_APPEND) and returns the new size; a file ending in a
// newline is left untouched. It must agree with ReadCheckpoint's accept
// decision: a kill between a line's bytes and its newline leaves a line
// the reader KEEPS, so its missing newline is appended (truncating it
// would silently drop a spliced record from the repaired file); a kill
// mid-line leaves unparseable torn bytes the reader drops, so they are
// cut and the retried record starts on a fresh line.
func repairTornTail(f *os.File, size int64) (int64, error) {
	if size == 0 {
		return 0, nil
	}
	// Collect the unterminated tail, scanning backward for the last newline
	// (lastNL stays -1 when the whole file is one line — a torn or
	// newline-less meta header).
	const chunk = 64 << 10
	var tail []byte
	lastNL := int64(-1)
	for end := size; end > 0 && lastNL < 0; {
		start := end - chunk
		if start < 0 {
			start = 0
		}
		buf := make([]byte, end-start)
		if _, err := f.ReadAt(buf, start); err != nil {
			return size, err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			lastNL = start + int64(i)
			buf = buf[i+1:]
		}
		tail = append(append([]byte{}, buf...), tail...)
		if int64(len(tail)) > maxCheckpointLine {
			return size, fmt.Errorf("sweep: checkpoint tail exceeds %d bytes", maxCheckpointLine)
		}
		end = start
	}
	if len(tail) == 0 {
		return size, nil
	}
	if tornLineComplete(tail, lastNL < 0) {
		_, err := f.Write([]byte{'\n'}) // O_APPEND: finish the line in place
		return size + 1, err
	}
	keep := lastNL + 1
	return keep, f.Truncate(keep)
}

// tornLineComplete mirrors ReadCheckpoint's accept decision for a final
// unterminated line: a record carrying its task identity, or — when it is
// the file's only line — a meta header it reads.
func tornLineComplete(line []byte, isFirstLine bool) bool {
	if isFirstLine {
		if _, ok, err := parseMeta(line); ok && err == nil {
			return true
		}
	}
	rec, err := decodeRecord(line, nil)
	return err == nil && rec.Kernel != "" && rec.Mapper != ""
}

// writeMetaLine and writeRecordLine render the checkpoint stream's lines —
// one compact JSON document each, a record's through appendRecord. The
// streaming writer and the merge writer both go through them, so merged
// checkpoints stay byte-identical to the files Run writes, and neither can
// emit a line the reader would refuse.
func writeMetaLine(w *bufio.Writer, m Meta) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeLine(w, b)
}

func writeRecordLine(w *bufio.Writer, rec Record) error {
	return writeLine(w, appendRecord(w.AvailableBuffer(), rec))
}

// writeLine writes one line and its newline.
func writeLine(w *bufio.Writer, b []byte) error {
	if len(b) > maxCheckpointLine {
		return fmt.Errorf("sweep: checkpoint line would exceed %d bytes", maxCheckpointLine)
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

// Append streams one completed record: one compact JSON line, flushed
// before Append returns so a crash never loses an acknowledged record.
func (c *CheckpointWriter) Append(rec Record) error {
	if err := writeRecordLine(c.w, rec); err != nil {
		return err
	}
	return c.w.Flush()
}

// Close flushes and closes the underlying file.
func (c *CheckpointWriter) Close() error {
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}
