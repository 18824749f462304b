// Package service turns a sweep campaign into a work-stealing
// coordinator/worker fleet over HTTP. A long-lived coordinator
// (vortex sweep serve) enumerates the canonical task grid once and hands
// out leased batches of task indices; workers (vortex sweep work) run the
// tasks through the shared device-pool substrate and stream records back.
// The coordinator appends every accepted record to its JSONL checkpoint
// immediately (crash-safe, resumable with the existing -resume machinery),
// re-issues leases whose worker died mid-batch, and deduplicates double
// submissions by task key — later duplicates win, exactly the checkpoint
// reader's semantics — so a lease raced by its own expiry is benign, not a
// correctness hazard. Static sharding (-shard i/N) balances only
// statistically; the lease loop is dynamic, so one 64-core Sgemm point
// cannot make its worker the straggler for the whole merge.
//
// Protocol: three JSON-over-HTTP endpoints on the coordinator.
//
//	POST /lease  LeaseRequest  -> LeaseResponse  (enroll + draw a batch)
//	POST /submit SubmitRequest -> SubmitResponse (return finished records)
//	GET  /status               -> Status         (progress snapshot)
//
// Mapper objects do not serialize, so tasks cross the wire as canonical
// grid indices; both sides enumerate the same grid from their own options,
// and enrollment is gated on sweep.Meta equality so an index can never
// name different work on the two sides. Errors come back as
// {"error": "..."} with a 4xx status for permanent refusals (meta
// mismatch, unknown worker, malformed request) and 5xx for transient
// faults; the worker client retries only the latter.
package service

import "repro/internal/sweep"

// ProtocolVersion guards the wire format. A coordinator refuses workers
// speaking a different version (the task-index contract is meaningless
// across versions).
const ProtocolVersion = 1

// LeaseRequest enrolls a worker and asks for a batch of tasks.
type LeaseRequest struct {
	// Worker is the worker's self-chosen stable identity (host+pid by
	// default). It names leases for expiry accounting and must accompany
	// submissions.
	Worker string `json:"worker"`
	// Proto is the worker's ProtocolVersion.
	Proto int `json:"protocol_version"`
	// Meta is the campaign identity the worker computed from its own
	// options. It must equal the coordinator's exactly: scale, seed, grid
	// axes, checkpoint version — anything that changes a record's bytes.
	Meta sweep.Meta `json:"meta"`
	// Max bounds the batch size; the coordinator may return fewer.
	Max int `json:"max_tasks"`
}

// LeaseResponse carries a leased batch (or the instruction to wait/stop).
type LeaseResponse struct {
	// LeaseID names the lease for submission; empty when no tasks were
	// granted.
	LeaseID string `json:"lease_id,omitempty"`
	// Tasks are canonical grid indices (sweep.Task.Index) now owned by
	// this lease until it expires.
	Tasks []int `json:"tasks,omitempty"`
	// TTLMillis is how long the coordinator holds the lease open before
	// re-issuing its tasks to another worker.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// Done reports that every task is accounted for: the worker should
	// exit. Never set together with Tasks.
	Done bool `json:"done,omitempty"`
	// RetryMillis, when Tasks is empty and Done is false, asks the worker
	// to poll again after this delay (everything pending is currently
	// leased elsewhere; an expiry may free work).
	RetryMillis int64 `json:"retry_ms,omitempty"`
}

// SubmitRequest returns finished records to the coordinator.
type SubmitRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	// Records are completed simulation outcomes, failures included
	// (Record.Err non-empty). Records are matched to grid cells by task
	// key, not by lease, so a submission that outlived its lease still
	// lands (deduplicated, later wins).
	Records []sweep.Record `json:"records"`
}

// SubmitResponse acknowledges a submission. Records are durable in the
// coordinator's checkpoint before the acknowledgement is sent.
type SubmitResponse struct {
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Failed     int  `json:"failed"`
	Done       bool `json:"done,omitempty"`
}

// Status is the coordinator's progress snapshot.
type Status struct {
	Total     int  `json:"total"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	Leased    int  `json:"leased"`
	Pending   int  `json:"pending"`
	Workers   int  `json:"workers"`
	Reissued  int  `json:"leases_reissued"`
	Dupes     int  `json:"duplicate_submissions"`
	Done      bool `json:"done"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
