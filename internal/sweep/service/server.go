package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Config tunes the coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a worker owns a handed-out batch before the
	// coordinator re-issues its unfinished tasks to someone else. It should
	// comfortably exceed the cost of the most expensive task times the
	// batch size: an expired-but-alive worker is not a correctness hazard
	// (its late submission deduplicates), just wasted work. Default 60s.
	LeaseTTL time.Duration
	// BatchSize is the default number of tasks per lease when the worker
	// does not ask for a specific amount. Default 4.
	BatchSize int
	// RetryDelay is the poll interval suggested to workers when everything
	// pending is leased elsewhere. Default 200ms.
	RetryDelay time.Duration
	// Progress, if non-nil, is called after every newly completed task.
	Progress func(done, total int)
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
}

func (c *Config) fill() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 200 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

type taskState int8

const (
	statePending taskState = iota // not yet handed out (or returned by an expiry)
	stateLeased                   // owned by a live lease
	stateDone                     // a successful record is held (and checkpointed)
	stateFailed                   // latest submission for the task carried Record.Err
)

// lease is one outstanding batch handed to a worker.
type lease struct {
	id       string
	worker   string
	tasks    map[int]bool // grid indices still unfinished under this lease
	deadline time.Time
}

// Server coordinates one campaign: it owns the canonical task grid, the
// lease state machine and the streamed checkpoint. It implements
// http.Handler (POST /lease, POST /submit, GET /status).
type Server struct {
	opts  sweep.Options
	meta  sweep.Meta
	tasks []sweep.Task
	byKey map[string]int
	cfg   Config

	mu        sync.Mutex
	state     []taskState
	recs      []sweep.Record
	taskLease []string // lease id currently owning each task, "" if none
	leases    map[string]*lease
	workers   map[string]bool // enrolled (meta-validated) worker ids
	ckpt      *sweep.CheckpointWriter
	completed int // done + failed
	failed    int
	reissued  int // leases whose unfinished tasks were returned to pending
	dupes     int // duplicate successful submissions (later wins)
	nextLease int
	sinkErr   error
	done      chan struct{}
	closed    bool
}

// New builds a coordinator for the campaign described by opts. The grid is
// always keyed (tasks cross the wire by index), so duplicated grid axes are
// refused exactly as Run refuses them when checkpointing; sharding is
// meaningless under dynamic work distribution and refused outright. With
// opts.Checkpoint set, every accepted record is appended and flushed before
// its submission is acknowledged; with opts.Resume too, tasks already in
// the checkpoint are marked done up front and never handed out.
func New(opts sweep.Options, cfg Config) (*Server, error) {
	if opts.ShardCount > 1 {
		return nil, fmt.Errorf("service: a served campaign cannot be sharded (leases replace -shard %d/%d)", opts.ShardIndex, opts.ShardCount)
	}
	if opts.ConfigTemplate != nil && opts.ConfigTag == "" {
		return nil, fmt.Errorf("service: serving with a ConfigTemplate requires Options.ConfigTag")
	}
	tasks, err := sweep.TaskGrid(opts)
	if err != nil {
		return nil, err
	}
	opts = opts.Normalized()
	cfg.fill()
	s := &Server{
		opts:      opts,
		meta:      sweep.MetaFor(opts),
		tasks:     tasks,
		byKey:     make(map[string]int, len(tasks)),
		cfg:       cfg,
		state:     make([]taskState, len(tasks)),
		recs:      make([]sweep.Record, len(tasks)),
		taskLease: make([]string, len(tasks)),
		leases:    map[string]*lease{},
		workers:   map[string]bool{},
		done:      make(chan struct{}),
	}
	for _, t := range tasks {
		s.byKey[t.Key()] = t.Index
	}
	if opts.Resume && opts.Checkpoint != "" {
		seen, err := sweep.ResumeRecords(opts)
		if err != nil {
			return nil, fmt.Errorf("service: resume: %w", err)
		}
		for key, rec := range seen {
			if idx, ok := s.byKey[key]; ok {
				s.recs[idx] = rec
				s.state[idx] = stateDone
				s.completed++
			}
		}
	}
	if opts.Checkpoint != "" {
		s.ckpt, err = sweep.OpenCheckpoint(opts.Checkpoint, opts.Resume, opts)
		if err != nil {
			return nil, fmt.Errorf("service: checkpoint: %w", err)
		}
	}
	if s.completed == len(s.tasks) {
		s.closeDoneLocked()
	}
	return s, nil
}

// Done is closed once every task is done or failed.
func (s *Server) Done() <-chan struct{} { return s.done }

func (s *Server) closeDoneLocked() {
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

// Results assembles the completed campaign in canonical grid order — the
// Records (and their rendering) are byte-identical to a single-process
// sweep.Run of the same options. It errors if the campaign is still in
// flight or any task failed.
func (s *Server) Results() (*sweep.Results, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.completed != len(s.tasks) {
		return nil, fmt.Errorf("service: campaign in flight: %d of %d tasks outstanding", len(s.tasks)-s.completed, len(s.tasks))
	}
	if err := s.errLocked(); err != nil {
		return nil, err
	}
	return &sweep.Results{Options: s.opts, Records: append([]sweep.Record(nil), s.recs...)}, nil
}

// WriteFinal writes the completed campaign as a single canonical-order
// checkpoint at path — byte-identical to the file a Workers=1 checkpointed
// sweep.Run of the same options produces (the streamed opts.Checkpoint is
// in submission order and may hold superseded duplicates; this is the
// deliverable artifact).
func (s *Server) WriteFinal(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.completed != len(s.tasks) {
		return fmt.Errorf("service: campaign in flight")
	}
	if err := s.errLocked(); err != nil {
		return err
	}
	return sweep.WriteCheckpoint(path, s.meta, s.recs)
}

// Err reports the first task failure (like Run's end-of-campaign error) or
// a checkpoint write fault; nil while records are clean.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errLocked()
}

func (s *Server) errLocked() error {
	if s.sinkErr != nil {
		return fmt.Errorf("service: checkpoint write: %w", s.sinkErr)
	}
	for i, st := range s.state {
		if st == stateFailed {
			r := s.recs[i]
			return fmt.Errorf("service: %s/%s on %s: %s", r.Kernel, r.Mapper, r.Config.Name(), r.Err)
		}
	}
	return nil
}

// Close releases the streamed checkpoint writer (the http.Server shutdown
// is the caller's).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ckpt == nil {
		return nil
	}
	err := s.ckpt.Close()
	s.ckpt = nil
	return err
}

// Status snapshots campaign progress (expiring dead leases first, so a
// stalled fleet becomes visible as pending work, not phantom leases).
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Clock())
	leased := 0
	for _, st := range s.state {
		if st == stateLeased {
			leased++
		}
	}
	return Status{
		Total:     len(s.tasks),
		Completed: s.completed - s.failed,
		Failed:    s.failed,
		Leased:    leased,
		Pending:   len(s.tasks) - s.completed - leased,
		Workers:   len(s.workers),
		Reissued:  s.reissued,
		Dupes:     s.dupes,
		Done:      s.completed == len(s.tasks),
	}
}

// expireLocked returns every task of every overdue lease to the pending
// pool. Purely lazy: it runs at the head of each request, so re-issue needs
// no background reaper — any surviving worker's next poll frees and then
// claims the dead worker's tasks.
func (s *Server) expireLocked(now time.Time) {
	for id, l := range s.leases {
		if !l.deadline.Before(now) {
			continue
		}
		returned := 0
		for idx := range l.tasks {
			if s.state[idx] == stateLeased && s.taskLease[idx] == id {
				s.state[idx] = statePending
				s.taskLease[idx] = ""
				returned++
			}
		}
		if returned > 0 {
			s.reissued++
		}
		delete(s.leases, id)
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/lease" && r.Method == http.MethodPost:
		s.handleLease(w, r)
	case r.URL.Path == "/submit" && r.Method == http.MethodPost:
		s.handleSubmit(w, r)
	case r.URL.Path == "/status" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.Status())
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("service: no %s %s endpoint", r.Method, r.URL.Path))
	}
}

// maxBodyBytes bounds a /lease or /submit request body. It matches the cap
// the worker puts on responses; a submission of ~50k records still fits.
const maxBodyBytes = 16 << 20

// decodeBody decodes a request body of at most maxBodyBytes into v. On
// failure it answers the request itself (413 when the body is over the
// limit, 400 otherwise) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Sprintf("service: bad %s request: %v", what, err))
	return false
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, "lease", &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "service: lease request carries no worker id")
		return
	}
	if req.Proto != ProtocolVersion {
		writeError(w, http.StatusConflict, fmt.Sprintf("service: worker %s speaks protocol v%d, coordinator v%d", req.Worker, req.Proto, ProtocolVersion))
		return
	}
	if req.Meta != s.meta {
		// A worker running different options would return records for the
		// wrong experiment under the right task keys — refuse enrollment
		// with the first differing meta field named.
		writeError(w, http.StatusConflict, fmt.Sprintf("service: worker %s campaign meta mismatch: %s", req.Worker, metaDiff(req.Meta, s.meta)))
		return
	}
	max := req.Max
	if max <= 0 {
		max = s.cfg.BatchSize
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers[req.Worker] = true
	s.expireLocked(s.cfg.Clock())
	if s.completed == len(s.tasks) {
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
		return
	}
	var batch []int
	for idx, st := range s.state {
		if st == statePending {
			batch = append(batch, idx)
			if len(batch) == max {
				break
			}
		}
	}
	if len(batch) == 0 {
		// Everything unfinished is leased elsewhere; the worker polls
		// again (a lease expiry or failure may free work).
		writeJSON(w, http.StatusOK, LeaseResponse{RetryMillis: s.cfg.RetryDelay.Milliseconds()})
		return
	}
	s.nextLease++
	l := &lease{
		id:       fmt.Sprintf("L%d", s.nextLease),
		worker:   req.Worker,
		tasks:    make(map[int]bool, len(batch)),
		deadline: s.cfg.Clock().Add(s.cfg.LeaseTTL),
	}
	for _, idx := range batch {
		l.tasks[idx] = true
		s.state[idx] = stateLeased
		s.taskLease[idx] = l.id
	}
	s.leases[l.id] = l
	writeJSON(w, http.StatusOK, LeaseResponse{LeaseID: l.id, Tasks: batch, TTLMillis: s.cfg.LeaseTTL.Milliseconds()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, "submit", &req) {
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.workers[req.Worker] {
		// Submissions are only taken from workers whose meta passed the
		// lease gate; anything else could write foreign records under valid
		// keys.
		writeError(w, http.StatusForbidden, fmt.Sprintf("service: worker %q never enrolled via /lease", req.Worker))
		return
	}
	s.expireLocked(s.cfg.Clock())
	var resp SubmitResponse
	for _, rec := range req.Records {
		idx, ok := s.byKey[rec.Key()]
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("service: record %s is not in the campaign grid", rec.Key()))
			return
		}
		if rec.Err != "" {
			// Failures are recorded (for the end-of-campaign error and the
			// status counters) but never checkpointed: a resume retries
			// them, exactly like Run. A success already held wins over a
			// late failure.
			resp.Failed++
			if s.state[idx] != stateDone {
				if s.state[idx] != stateFailed {
					s.completed++
					s.failed++
				}
				s.recs[idx] = rec
				s.state[idx] = stateFailed
				s.finishTaskLocked(idx)
			}
			continue
		}
		// Durable before acknowledged: the record lands in the streamed
		// checkpoint (flushed) before the worker hears "accepted", so a
		// coordinator crash can never lose acknowledged work. Duplicates
		// (an expired lease's late submission racing its re-issue) are
		// appended too — the checkpoint reader keeps the later line, which
		// is exactly the in-memory rule.
		if s.ckpt != nil {
			if err := s.ckpt.Append(rec); err != nil {
				if s.sinkErr == nil {
					s.sinkErr = err
				}
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("service: checkpoint write: %v", err))
				return
			}
		}
		switch s.state[idx] {
		case stateDone:
			resp.Duplicates++
			s.dupes++
			s.recs[idx] = rec // later duplicates win
		case stateFailed:
			s.failed--
			s.recs[idx] = rec
			s.state[idx] = stateDone
			resp.Accepted++
		default:
			s.recs[idx] = rec
			s.state[idx] = stateDone
			s.completed++
			resp.Accepted++
			if s.cfg.Progress != nil {
				s.cfg.Progress(s.completed, len(s.tasks))
			}
		}
		s.finishTaskLocked(idx)
	}
	if s.completed == len(s.tasks) {
		s.closeDoneLocked()
		resp.Done = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// finishTaskLocked removes a finished task from the lease owning it (if
// any), dropping the lease once its last task is in.
func (s *Server) finishTaskLocked(idx int) {
	id := s.taskLease[idx]
	if id == "" {
		return
	}
	s.taskLease[idx] = ""
	if l, ok := s.leases[id]; ok {
		delete(l.tasks, idx)
		if len(l.tasks) == 0 {
			delete(s.leases, id)
		}
	}
}

// metaDiff names the first field on which two campaign metas differ.
func metaDiff(got, want sweep.Meta) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Interface() != wv.Field(i).Interface() {
			return fmt.Sprintf("%s = %v, campaign has %v", gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return "metas identical"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
