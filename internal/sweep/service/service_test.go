package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// protoOpts is a tiny campaign for protocol-level tests: 2 configs x 1
// kernel x 3 default mappers x rr = 6 tasks. No simulation ever runs —
// records are fabricated against the task grid.
func protoOpts() sweep.Options {
	return sweep.Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 2, Warps: 2, Threads: 4}},
		Kernels: []string{"vecadd"},
		Scale:   0.05,
		Seed:    7,
	}
}

// simOpts is the campaign the end-to-end tests actually simulate (same
// shape as the sweep package's campaignOpts).
func simOpts() sweep.Options {
	return sweep.Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},
			{Cores: 2, Warps: 2, Threads: 4},
			{Cores: 4, Warps: 4, Threads: 4},
		},
		Kernels: []string{"vecadd", "saxpy"},
		Scale:   0.05,
		Seed:    7,
		Workers: 2,
	}
}

// fakeClock is a manually advanced Config.Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// doJSON drives one request through the handler, returning the status code
// and decoding a 200 body into out (when non-nil).
func doJSON(t *testing.T, s *Server, method, path string, body, out any) (int, string) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code == http.StatusOK && out != nil {
		if err := json.NewDecoder(w.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
		return w.Code, ""
	}
	var er struct {
		Error string `json:"error"`
	}
	json.NewDecoder(w.Body).Decode(&er)
	return w.Code, er.Error
}

func leaseTasks(t *testing.T, s *Server, worker string, max int, meta sweep.Meta) LeaseResponse {
	t.Helper()
	var lr LeaseResponse
	code, msg := doJSON(t, s, http.MethodPost, "/lease", LeaseRequest{Worker: worker, Proto: ProtocolVersion, Meta: meta, Max: max}, &lr)
	if code != http.StatusOK {
		t.Fatalf("lease for %s: HTTP %d: %s", worker, code, msg)
	}
	return lr
}

// fabricate builds a plausible successful record for one grid task.
func fabricate(task sweep.Task, cycles uint64) sweep.Record {
	rec := task.Record()
	rec.LWS, rec.Cycles, rec.Instrs = 1, cycles, 10
	return rec
}

// TestLeaseExpiryReissue pins the recovery path: a worker that leases
// tasks and dies never submits; once its lease TTL passes, the next
// worker's poll frees the tasks and claims them.
func TestLeaseExpiryReissue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s, err := New(protoOpts(), Config{LeaseTTL: 10 * time.Second, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	meta := sweep.MetaFor(protoOpts())
	grid, err := sweep.TaskGrid(protoOpts())
	if err != nil {
		t.Fatal(err)
	}

	dead := leaseTasks(t, s, "doomed", len(grid), meta)
	if len(dead.Tasks) != len(grid) {
		t.Fatalf("leased %d tasks, want the whole grid (%d)", len(dead.Tasks), len(grid))
	}
	// Everything is leased: a second worker is told to poll, not given work.
	idle := leaseTasks(t, s, "patient", 1, meta)
	if len(idle.Tasks) != 0 || idle.Done || idle.RetryMillis <= 0 {
		t.Fatalf("second worker got %+v, want a retry hint", idle)
	}
	if st := s.Status(); st.Leased != len(grid) || st.Pending != 0 || st.Reissued != 0 {
		t.Fatalf("pre-expiry status %+v", st)
	}

	// The doomed worker dies (never submits). TTL passes; the patient
	// worker's next poll gets the re-issued tasks.
	clk.Advance(11 * time.Second)
	again := leaseTasks(t, s, "patient", len(grid), meta)
	if len(again.Tasks) != len(grid) {
		t.Fatalf("post-expiry lease got %d tasks, want %d", len(again.Tasks), len(grid))
	}
	st := s.Status()
	if st.Reissued != 1 {
		t.Errorf("reissued = %d, want 1", st.Reissued)
	}

	// The patient worker completes the campaign.
	var sr SubmitResponse
	recs := make([]sweep.Record, len(grid))
	for i, task := range grid {
		recs[i] = fabricate(task, uint64(100+i))
	}
	if code, msg := doJSON(t, s, http.MethodPost, "/submit", SubmitRequest{Worker: "patient", LeaseID: again.LeaseID, Records: recs}, &sr); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", code, msg)
	}
	if sr.Accepted != len(grid) || !sr.Done {
		t.Fatalf("submit response %+v", sr)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("campaign not done after full submission")
	}
	if next := leaseTasks(t, s, "patient", 1, meta); !next.Done {
		t.Fatalf("post-completion lease %+v, want Done", next)
	}
}

// TestDuplicateSubmissionLaterWins pins idempotent submission: the same
// task submitted twice (an expired lease racing its re-issue) is counted
// as a duplicate and the later record wins, matching the checkpoint
// reader's rule. The rule itself is tabled in sweep.TestCampaignSubmit;
// this test holds it at the wire.
func TestDuplicateSubmissionLaterWins(t *testing.T) {
	dir := t.TempDir()
	opts := protoOpts()
	opts.Checkpoint = filepath.Join(dir, "served.jsonl")
	s, err := New(opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	meta := sweep.MetaFor(opts)
	grid, err := sweep.TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}

	lr := leaseTasks(t, s, "w1", len(grid), meta)
	var sr SubmitResponse
	recs := make([]sweep.Record, len(grid))
	for i, task := range grid {
		recs[i] = fabricate(task, uint64(100+i))
	}
	doJSON(t, s, http.MethodPost, "/submit", SubmitRequest{Worker: "w1", LeaseID: lr.LeaseID, Records: recs}, &sr)
	if sr.Accepted != len(grid) || sr.Duplicates != 0 {
		t.Fatalf("first submit %+v", sr)
	}
	// Re-submit task 0 with different bytes: duplicate, later wins.
	doJSON(t, s, http.MethodPost, "/submit", SubmitRequest{Worker: "w1", LeaseID: lr.LeaseID, Records: []sweep.Record{fabricate(grid[0], 999)}}, &sr)
	if sr.Accepted != 0 || sr.Duplicates != 1 || !sr.Done {
		t.Fatalf("duplicate submit %+v", sr)
	}
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Cycles != 999 {
		t.Errorf("later duplicate did not win: cycles = %d", res.Records[0].Cycles)
	}
	if st := s.Status(); st.Dupes != 1 {
		t.Errorf("status dupes = %d, want 1", st.Dupes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The streamed checkpoint holds both lines, the later one last, so a
	// replay that lets the later record win agrees with the wire dedup.
	_, seen, err := sweep.ReadCheckpointFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, rec := range seen {
		if rec.Key() == grid[0].Key() {
			got = append(got, rec.Cycles)
		}
	}
	if len(got) != 2 || got[1] != 999 {
		t.Errorf("checkpoint holds cycles %v for the duplicated task, want the later 999 last", got)
	}
}

// TestFailureRecordedNotCheckpointed pins failure semantics: a failed
// record completes its task (campaign can finish, Err surfaces it) but is
// never checkpointed, and a later success supersedes it (the rule itself
// is tabled in sweep.TestCampaignSubmit).
func TestFailureRecordedNotCheckpointed(t *testing.T) {
	dir := t.TempDir()
	opts := protoOpts()
	opts.Checkpoint = filepath.Join(dir, "served.jsonl")
	s, err := New(opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	meta := sweep.MetaFor(opts)
	grid, err := sweep.TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	lr := leaseTasks(t, s, "w1", len(grid), meta)
	bad := fabricate(grid[0], 0)
	bad.Err = "synthetic fault"
	recs := []sweep.Record{bad}
	for i, task := range grid[1:] {
		recs = append(recs, fabricate(task, uint64(200+i)))
	}
	var sr SubmitResponse
	doJSON(t, s, http.MethodPost, "/submit", SubmitRequest{Worker: "w1", LeaseID: lr.LeaseID, Records: recs}, &sr)
	if sr.Failed != 1 || sr.Accepted != len(grid)-1 || !sr.Done {
		t.Fatalf("submit with failure %+v", sr)
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "synthetic fault") {
		t.Fatalf("Err() = %v, want the task failure", err)
	}
	if _, err := s.Results(); err == nil {
		t.Fatal("Results succeeded with a failed task")
	}
	if st := s.Status(); st.Failed != 1 || !st.Done {
		t.Fatalf("status %+v", st)
	}
	// The failure is not in the checkpoint: a resumed serve retries it.
	_, seen, err := sweep.ReadCheckpointFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range seen {
		if rec.Key() == grid[0].Key() {
			t.Error("failed record was checkpointed")
		}
	}
	// A later success (re-run after lease expiry, say) supersedes it.
	doJSON(t, s, http.MethodPost, "/submit", SubmitRequest{Worker: "w1", Records: []sweep.Record{fabricate(grid[0], 321)}}, &sr)
	if sr.Accepted != 1 {
		t.Fatalf("superseding submit %+v", sr)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err() after supersede = %v", err)
	}
	if st := s.Status(); st.Failed != 0 || st.Completed != len(grid) {
		t.Fatalf("status after supersede %+v", st)
	}
}

// TestEnrollmentRefusals pins the permanent 4xx refusals: campaign-meta
// mismatch (with the differing field named), protocol-version skew, and
// submissions from workers that never enrolled.
func TestEnrollmentRefusals(t *testing.T) {
	s, err := New(protoOpts(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sweep.TaskGrid(protoOpts())
	if err != nil {
		t.Fatal(err)
	}

	foreign := protoOpts()
	foreign.Seed = 99
	code, msg := doJSON(t, s, http.MethodPost, "/lease",
		LeaseRequest{Worker: "alien", Proto: ProtocolVersion, Meta: sweep.MetaFor(foreign), Max: 1}, nil)
	if code != http.StatusConflict {
		t.Fatalf("foreign meta: HTTP %d (%s), want 409", code, msg)
	}
	if !strings.Contains(msg, "meta mismatch") || !strings.Contains(msg, "seed 99 vs 7") {
		t.Errorf("foreign-meta diagnostic does not name the differing field: %q", msg)
	}

	code, msg = doJSON(t, s, http.MethodPost, "/lease",
		LeaseRequest{Worker: "old", Proto: ProtocolVersion + 1, Meta: sweep.MetaFor(protoOpts()), Max: 1}, nil)
	if code != http.StatusConflict || !strings.Contains(msg, "protocol") {
		t.Fatalf("protocol skew: HTTP %d (%s), want 409 naming the protocol", code, msg)
	}

	// A worker that never passed the meta gate cannot submit.
	code, msg = doJSON(t, s, http.MethodPost, "/submit",
		SubmitRequest{Worker: "alien", Records: []sweep.Record{fabricate(grid[0], 1)}}, nil)
	if code != http.StatusForbidden || !strings.Contains(msg, "never enrolled") {
		t.Fatalf("unenrolled submit: HTTP %d (%s), want 403", code, msg)
	}

	// An enrolled worker submitting a record outside the grid is refused.
	leaseTasks(t, s, "w1", 1, sweep.MetaFor(protoOpts()))
	aliens := []sweep.Record{{Config: core.HWInfo{Cores: 64, Warps: 32, Threads: 32}, Kernel: "vecadd", Mapper: "ours", Sched: "rr"}}
	code, msg = doJSON(t, s, http.MethodPost, "/submit", SubmitRequest{Worker: "w1", Records: aliens}, nil)
	if code != http.StatusBadRequest || !strings.Contains(msg, "not in the campaign grid") {
		t.Fatalf("alien record: HTTP %d (%s), want 400", code, msg)
	}

	// A misspelled field is refused, not silently dropped.
	for path, body := range map[string]map[string]any{
		"/lease":  {"worker": "w1", "protocol_version": ProtocolVersion, "meta": sweep.MetaFor(protoOpts()), "max_task": 1},
		"/submit": {"worker": "w1", "record": []sweep.Record{fabricate(grid[0], 1)}},
	} {
		code, msg = doJSON(t, s, http.MethodPost, path, body, nil)
		if code != http.StatusBadRequest || !strings.Contains(msg, "unknown field") {
			t.Errorf("%s with a misspelled field: HTTP %d (%s), want 400", path, code, msg)
		}
	}
	if st := s.Status(); st.Completed != 0 || st.Leased != 1 {
		t.Errorf("refused requests changed the campaign state: %+v", st)
	}
}

// TestNewRefusals pins the option sets a coordinator cannot serve.
func TestNewRefusals(t *testing.T) {
	sharded := protoOpts()
	sharded.ShardCount = 2
	if _, err := New(sharded, Config{}); err == nil || !strings.Contains(err.Error(), "cannot be sharded") {
		t.Errorf("sharded serve: err = %v", err)
	}
	dup := protoOpts()
	dup.Configs = append(dup.Configs, dup.Configs[0])
	if _, err := New(dup, Config{}); err == nil || !strings.Contains(err.Error(), "duplicate grid entry") {
		t.Errorf("duplicate grid serve: err = %v", err)
	}
}

// TestServedCampaignByteIdentical is the tentpole contract end to end,
// in-process: a coordinator and two concurrent Work clients produce
// Records and a final canonical checkpoint byte-identical to a
// single-process sweep.Run of the same options.
func TestServedCampaignByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ref, err := sweep.Run(simOpts())
	if err != nil {
		t.Fatal(err)
	}
	refCkpt := filepath.Join(dir, "ref.jsonl")
	refOpts := simOpts()
	refOpts.Workers = 1
	refOpts.Checkpoint = refCkpt
	if _, err := sweep.Run(refOpts); err != nil {
		t.Fatal(err)
	}

	opts := simOpts()
	opts.Checkpoint = filepath.Join(dir, "served.jsonl")
	srv, err := New(opts, Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(context.Background(), hs.URL, simOpts(),
				WorkerConfig{ID: fmt.Sprintf("w%d", i), BatchSize: i + 1})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("workers returned but campaign not done")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref.Records)
	got, _ := json.Marshal(res.Records)
	if !bytes.Equal(want, got) {
		t.Fatal("served records not byte-identical to single-process run")
	}
	final := filepath.Join(dir, "final.jsonl")
	if err := srv.WriteFinal(final); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refCkpt)
	if err != nil {
		t.Fatal(err)
	}
	finalBytes, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, finalBytes) {
		t.Error("final checkpoint not byte-identical to a Workers=1 single-process checkpoint")
	}
}

// TestServeResumeSkipsRecorded pins coordinator resume: tasks already in
// the checkpoint are marked done up front and never handed out, and the
// completed campaign still reproduces the single-process records.
func TestServeResumeSkipsRecorded(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	refOpts := simOpts()
	refOpts.Workers = 1
	refOpts.Checkpoint = ckpt
	ref, err := sweep.Run(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the meta header and the first 4 records: the state a killed
	// coordinator leaves behind.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if err := os.WriteFile(ckpt, bytes.Join(lines[:5], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := simOpts()
	opts.Checkpoint = ckpt
	opts.Resume = true
	srv, err := New(opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); st.Completed != 4 {
		t.Fatalf("resumed %d tasks, want 4", st.Completed)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	executed := 0
	werr := Work(context.Background(), hs.URL, simOpts(), WorkerConfig{ID: "w1", OnRecord: func(sweep.Record) { executed++ }})
	if werr != nil {
		t.Fatal(werr)
	}
	if executed != len(ref.Records)-4 {
		t.Errorf("worker executed %d tasks, want %d", executed, len(ref.Records)-4)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref.Records)
	got, _ := json.Marshal(res.Records)
	if !bytes.Equal(want, got) {
		t.Error("resumed served campaign not byte-identical")
	}
}

// TestWorkerMetaRefusalPermanent pins the worker side of enrollment: a
// meta mismatch is a permanent refusal (no retry loop) with the
// coordinator's diagnostic in the error.
func TestWorkerMetaRefusalPermanent(t *testing.T) {
	srv, err := New(protoOpts(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	foreign := protoOpts()
	foreign.Seed = 99
	start := time.Now()
	werr := Work(context.Background(), hs.URL, foreign, WorkerConfig{ID: "w1", Backoff: time.Second})
	if werr == nil || !strings.Contains(werr.Error(), "meta mismatch") {
		t.Fatalf("mismatched worker: err = %v", werr)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("permanent refusal went through the retry/backoff loop")
	}
}

// TestWorkCanceledStopsBetweenTasks pins worker cancellation: a worker
// whose context is canceled mid-batch finishes the task in flight, runs no
// further one, submits nothing and returns the context's error; its lease
// stays out until the TTL passes and is then re-issued.
func TestWorkCanceledStopsBetweenTasks(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	srv, err := New(simOpts(), Config{LeaseTTL: 10 * time.Second, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	executed := 0
	werr := Work(ctx, hs.URL, simOpts(), WorkerConfig{ID: "w1", BatchSize: 3, OnRecord: func(sweep.Record) {
		executed++
		cancel()
	}})
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("canceled worker: err = %v, want context.Canceled", werr)
	}
	if executed != 1 {
		t.Errorf("worker ran %d tasks after cancellation, want to stop after the one in flight", executed)
	}
	if st := srv.Status(); st.Completed != 0 || st.Leased != 3 || st.Reissued != 0 {
		t.Errorf("status after cancellation %+v, want nothing submitted and the 3-task lease still out", st)
	}
	clk.Advance(11 * time.Second)
	if st := srv.Status(); st.Leased != 0 || st.Pending != st.Total || st.Reissued != 1 {
		t.Errorf("status after the TTL %+v, want the lease returned to pending", st)
	}
}

// TestOversizedBodyRefused pins the request-size bound: a /lease or /submit
// body over maxBodyBytes is answered 413 before anything is decoded, and
// neither the campaign state nor the streamed checkpoint is touched.
func TestOversizedBodyRefused(t *testing.T) {
	opts := protoOpts()
	opts.Checkpoint = filepath.Join(t.TempDir(), "served.jsonl")
	s, err := New(opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	leaseTasks(t, s, "w1", 1, sweep.MetaFor(opts))
	before, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	statusBefore := s.Status()

	huge := []byte(`{"worker":"w1","lease_id":"` + strings.Repeat("x", maxBodyBytes) + `"}`)
	for _, path := range []string{"/lease", "/submit"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(huge)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: HTTP %d, want 413", path, len(huge), w.Code)
		}
	}
	after, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("oversized request changed the checkpoint")
	}
	if st := s.Status(); st != statusBefore {
		t.Errorf("oversized request changed the campaign state: %+v, was %+v", st, statusBefore)
	}
}
