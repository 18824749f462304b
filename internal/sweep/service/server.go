package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
}

func (c *Config) fill() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

const (
	// defaultBatch is the number of tasks per lease when the worker does
	// not ask for a specific amount.
	defaultBatch = 4
	// retryDelay is the poll interval suggested to workers when everything
	// pending is leased elsewhere.
	retryDelay = 200 * time.Millisecond
)

// lease is one outstanding batch handed to a worker.
type lease struct {
	id       string
	tasks    map[int]bool // grid indices still unfinished under this lease
	deadline time.Time
}

// Server coordinates one campaign: a lease table over a sweep.Campaign,
// which owns the records, the acceptance rule and the streamed checkpoint.
// It implements http.Handler (POST /lease, POST /submit).
type Server struct {
	camp *sweep.Campaign
	meta sweep.Meta
	cfg  Config

	mu        sync.Mutex
	taskLease []string // lease id currently owning each task, "" if none
	leases    map[string]*lease
	workers   map[string]bool // enrolled (meta-validated) worker ids
	reissued  int             // leases whose unfinished tasks were returned to pending
	dupes     int             // duplicate successful submissions (later wins)
	nextLease int
}

// New builds a coordinator for the campaign described by opts. The grid is
// always keyed (tasks cross the wire by index), so it is opened as a
// handout sweep.Campaign; sharding is meaningless under dynamic work
// distribution and refused outright. With opts.Checkpoint set, every
// accepted record is appended and flushed before its submission is
// acknowledged; with opts.Resume too, tasks already in the checkpoint are
// marked done up front and never handed out.
func New(opts sweep.Options, cfg Config) (*Server, error) {
	if opts.ShardCount > 1 {
		return nil, fmt.Errorf("service: a served campaign cannot be sharded (leases replace -shard %d/%d)", opts.ShardIndex, opts.ShardCount)
	}
	camp, err := sweep.NewCampaign(opts, true)
	if err != nil {
		return nil, err
	}
	cfg.fill()
	total, _, _ := camp.Counts()
	return &Server{
		camp:      camp,
		meta:      sweep.MetaFor(opts),
		cfg:       cfg,
		taskLease: make([]string, total),
		leases:    map[string]*lease{},
		workers:   map[string]bool{},
	}, nil
}

// Results assembles the completed campaign in canonical grid order — the
// Records (and their rendering) are byte-identical to a single-process
// sweep.Run of the same options. It errors if the campaign is still in
// flight or any task failed.
func (s *Server) Results() (*sweep.Results, error) { return s.camp.Results() }

// Err is the campaign's end-of-campaign error (sweep.Campaign.Err): a
// checkpoint write fault, outstanding tasks, or the first task failure.
func (s *Server) Err() error { return s.camp.Err() }

// Close releases the streamed checkpoint writer (the http.Server shutdown
// is the caller's).
func (s *Server) Close() error { return s.camp.Close() }

// Status is the coordinator's progress snapshot.
type Status struct {
	Total     int
	Completed int // tasks holding a success
	Failed    int
	Leased    int
	Pending   int
	Reissued  int // leases whose unfinished tasks were returned to pending
	Dupes     int // duplicate successful submissions
	Done      bool
}

// Status snapshots campaign progress (expiring dead leases first, so a
// stalled fleet becomes visible as pending work, not phantom leases).
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Clock())
	leased := 0 // a task is in at most one live lease's set
	for _, l := range s.leases {
		leased += len(l.tasks)
	}
	total, done, failed := s.camp.Counts()
	return Status{
		Total:     total,
		Completed: done - failed,
		Failed:    failed,
		Leased:    leased,
		Pending:   total - done - leased,
		Reissued:  s.reissued,
		Dupes:     s.dupes,
		Done:      done == total,
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
			if s.taskLease[idx] == id {
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
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("service: no %s %s endpoint", r.Method, r.URL.Path))
	}
}

// maxBodyBytes bounds a /lease or /submit request body. It matches the cap
// the worker puts on responses; a submission of ~50k records still fits.
const maxBodyBytes = 16 << 20

// decodeBody decodes a request body of at most maxBodyBytes into v,
// refusing fields v does not declare (a misspelled field would otherwise be
// dropped silently). On failure it answers the request itself (413 when the
// body is over the limit, 400 otherwise) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
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
		writeError(w, http.StatusConflict, fmt.Sprintf("service: worker %s campaign meta mismatch (worker vs campaign: %s)", req.Worker, req.Meta.Diff(s.meta)))
		return
	}
	max := req.Max
	if max <= 0 {
		max = defaultBatch
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers[req.Worker] = true
	s.expireLocked(s.cfg.Clock())
	if total, done, _ := s.camp.Counts(); done == total {
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
		return
	}
	batch := s.camp.Open(max, func(idx int) bool { return s.taskLease[idx] == "" })
	if len(batch) == 0 {
		// Everything unfinished is leased elsewhere; the worker polls
		// again (a lease expiry or failure may free work).
		writeJSON(w, http.StatusOK, LeaseResponse{RetryMillis: retryDelay.Milliseconds()})
		return
	}
	s.nextLease++
	l := &lease{
		id:       fmt.Sprintf("L%d", s.nextLease),
		tasks:    make(map[int]bool, len(batch)),
		deadline: s.cfg.Clock().Add(s.cfg.LeaseTTL),
	}
	for _, idx := range batch {
		l.tasks[idx] = true
		s.taskLease[idx] = l.id
	}
	s.leases[l.id] = l
	writeJSON(w, http.StatusOK, LeaseResponse{LeaseID: l.id, Tasks: batch})
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
		idx, ok := s.camp.Slot(rec)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("service: record %s is not in the campaign grid", rec.Key()))
			return
		}
		// Durable before acknowledged: Submit appends and flushes a success
		// to the streamed checkpoint before the worker hears "accepted", so
		// a coordinator crash can never lose acknowledged work.
		outcome, err := s.camp.Submit(idx, rec)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("service: checkpoint write: %v", err))
			return
		}
		switch outcome {
		case sweep.Accepted:
			resp.Accepted++
		case sweep.Duplicate:
			resp.Duplicates++
			s.dupes++
		default:
			resp.Failed++
		}
		s.finishTaskLocked(idx)
	}
	total, done, _ := s.camp.Counts()
	resp.Done = done == total
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
