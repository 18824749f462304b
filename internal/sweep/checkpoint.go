package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Checkpoint format: a JSONL file. The first line is a meta header binding
// the checkpoint to the sweep options that produced it; every following
// line is one JSON-encoded Record, appended (and flushed) as its simulation
// completes, in completion order. encoding/json round-trips every Record
// field exactly (shortest-round-trip floats, full-precision integers), so a
// resumed campaign that splices checkpointed records into the task grid is
// byte-identical to an uninterrupted run. Failed records (Record.Err != "")
// are never checkpointed: a resume retries them.

// checkpointVersion guards the line format. Version 2 added the shard
// identity and the canonical task grid to the meta header; version 3 added
// the warp-scheduler grid axis (meta `scheds`, per-record `Sched`);
// version 4 added the memory-side grid axes (meta `mshrs`, `l1_geoms`,
// `prefetch`, per-record `MSHRs`/`L1`/`Prefetch`). Older files are refused
// rather than guessed at: a v3 record carries no memory-axis identity, so
// splicing it into a v4 grid would silently assign it to an arbitrary
// grid cell.
const checkpointVersion = 4

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
	ConfigTag        string  `json:"config_tag,omitempty"`
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
		ConfigTag:        opts.ConfigTag,
		ShardIndex:       opts.ShardIndex,
		ShardCount:       opts.ShardCount,
		Configs:          strings.Join(g[0], ","),
		Kernels:          strings.Join(g[1], ","),
		Mappers:          strings.Join(g[2], ","),
	}
	for i, a := range Axes {
		*a.meta(&m) = strings.Join(g[3+i], ",")
	}
	return m
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
// cell's values, in Options.grid order — on which the resume splice,
// Record.Key, Task.Key and Merge's grid reconstruction all agree.
func taskKey(cell []string) string { return strings.Join(cell, "/") }

// Key identifies the record's task: one (config, kernel, mapper, grid
// point) cell of the campaign grid. Resume skips tasks whose key is already
// checkpointed.
func (r Record) Key() string {
	cell := append(make([]string, 0, 8), r.Config.Name(), r.Kernel, r.Mapper)
	for _, a := range Axes {
		cell = append(cell, a.get(r))
	}
	return taskKey(cell)
}

// point returns the record's grid point: one value per Axes entry.
func (r Record) point() []string {
	point := make([]string, len(Axes))
	for i, a := range Axes {
		point[i] = a.get(r)
	}
	return point
}

// ReadCheckpoint parses a JSONL checkpoint stream into its meta header (nil
// if the stream is empty or headerless) and the recorded tasks by Key.
// Later duplicates of a key win, so a checkpoint appended to by several
// partial runs stays usable. A final line that is not newline-terminated
// and does not parse is dropped rather than refused: it is the torn write
// of a campaign killed mid-record (a strict prefix of a JSON object is
// never itself valid JSON, so a torn line cannot be mistaken for a
// complete one), and the resumed campaign simply retries that task.
// Corrupt lines anywhere else in the stream are an error.
func ReadCheckpoint(rd io.Reader) (*Meta, map[string]Record, error) {
	out := map[string]Record{}
	var meta *Meta
	br := bufio.NewReaderSize(rd, 1<<16)
	first := true
	for {
		line, terminated, rerr := readCheckpointLine(br)
		if rerr != nil && rerr != io.EOF {
			return nil, nil, rerr
		}
		if len(line) > 0 {
			isMetaCandidate := first
			first = false
			parsed := false
			if isMetaCandidate {
				var m Meta
				if err := json.Unmarshal(line, &m); err == nil && m.Version > 0 {
					if m.Version != checkpointVersion {
						return nil, nil, fmt.Errorf("sweep: checkpoint version %d not supported (this build reads v%d; v3 files predate the memory-side grid axes — MSHRs, L1 geometry, prefetch — and carry no per-record values for them, so they cannot be spliced — re-run the campaign)",
							m.Version, checkpointVersion)
					}
					meta = &m
					parsed = true
				}
			}
			if !parsed {
				var rec Record
				if err := json.Unmarshal(line, &rec); err != nil {
					if !terminated {
						return meta, out, nil // torn tail of a killed writer
					}
					return nil, nil, fmt.Errorf("sweep: corrupt checkpoint line: %w", err)
				}
				if rec.Kernel == "" || rec.Mapper == "" {
					return nil, nil, fmt.Errorf("sweep: checkpoint line missing task identity: %q", line)
				}
				out[rec.Key()] = rec
			}
		}
		if rerr == io.EOF {
			return meta, out, nil
		}
	}
}

// maxCheckpointLine bounds one checkpoint line: real meta headers are a few
// KiB (450 config names) and records a few hundred bytes, so anything past
// this is a corrupt file, refused instead of read wholesale into memory
// (or mistaken for a benign torn tail).
const maxCheckpointLine = 1 << 20

// readCheckpointLine reads the next line of at most maxCheckpointLine
// bytes, reporting whether its newline terminator was present. The final
// line of a stream comes back with io.EOF (and terminated=false when the
// stream ends mid-line).
func readCheckpointLine(br *bufio.Reader) (line []byte, terminated bool, err error) {
	for {
		frag, ferr := br.ReadSlice('\n')
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
func ReadCheckpointFile(path string) (*Meta, map[string]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, map[string]Record{}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ResumeRecords loads opts.Checkpoint and validates it against opts,
// returning the recorded tasks by Key. It is the single resume gate Run and
// the campaign service share: a checkpoint written by a different
// experiment (or carrying records it cannot bind to options) is refused
// rather than spliced.
func ResumeRecords(opts Options) (map[string]Record, error) {
	opts.fill()
	meta, seen, err := ReadCheckpointFile(opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	if meta == nil && len(seen) > 0 {
		// Records without the meta header cannot be validated against
		// this sweep's options; splicing them in could silently break
		// the byte-identity contract.
		return nil, fmt.Errorf("checkpoint %s has records but no meta header", opts.Checkpoint)
	}
	if meta != nil && *meta != MetaFor(opts) {
		return nil, fmt.Errorf("checkpoint %s was written with different sweep options (%+v)", opts.Checkpoint, *meta)
	}
	return seen, nil
}

// CheckpointWriter appends records to the JSONL checkpoint as they
// complete, flushing per record so a killed campaign loses at most the
// records in flight. It is safe for concurrent use.
type CheckpointWriter struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// OpenCheckpoint opens path for streaming. resume appends to an existing
// file; otherwise the file is truncated. A fresh (or empty) file gets the
// meta header for opts first. On resume, an unterminated final line — the
// torn write of a killed campaign, which ReadCheckpoint ignores — is cut
// off first, so the retried record starts on a fresh line instead of
// concatenating onto the torn bytes and corrupting the file.
func OpenCheckpoint(path string, resume bool, opts Options) (*CheckpointWriter, error) {
	opts.fill()
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
		if err := c.appendJSON(MetaFor(opts)); err != nil {
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
// the file's only line — a current-version meta header.
func tornLineComplete(line []byte, isFirstLine bool) bool {
	if isFirstLine {
		var m Meta
		if err := json.Unmarshal(line, &m); err == nil && m.Version == checkpointVersion {
			return true
		}
	}
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return false
	}
	return rec.Kernel != "" && rec.Mapper != ""
}

// writeJSONLine renders v exactly as the checkpoint stream does — one
// compact JSON document per line. Both the streaming writer and the merge
// writer go through it, so merged checkpoints stay byte-identical to the
// files Run writes, and neither can emit a line the reader would refuse.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(b) > maxCheckpointLine {
		return fmt.Errorf("sweep: checkpoint line would exceed %d bytes", maxCheckpointLine)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func (c *CheckpointWriter) appendJSON(v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeJSONLine(c.w, v); err != nil {
		return err
	}
	return c.w.Flush()
}

// Append streams one completed record: one compact JSON line, flushed
// before Append returns so a crash never loses an acknowledged record.
func (c *CheckpointWriter) Append(rec Record) error { return c.appendJSON(rec) }

// Close flushes and closes the underlying file.
func (c *CheckpointWriter) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}
