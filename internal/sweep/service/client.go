package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/sweep"
)

// WorkerConfig tunes a fleet worker. The zero value is usable.
type WorkerConfig struct {
	// ID is the worker's stable identity; defaults to host-pid.
	ID string
	// BatchSize is the number of tasks requested per lease; 0 accepts the
	// coordinator's default.
	BatchSize int
	// HTTP overrides the transport (tests inject httptest clients).
	HTTP *http.Client
	// MaxAttempts bounds tries per request, transient faults only
	// (network errors, 5xx): attempt n sleeps Backoff*2^(n-1) first.
	// Permanent refusals (4xx: meta mismatch, bad records) never retry.
	// Default 6 attempts, 100ms base — ~3s of cumulative patience.
	MaxAttempts int
	Backoff     time.Duration
	// OnRecord, if non-nil, observes each record after its task runs
	// (before submission).
	OnRecord func(sweep.Record)
}

func (c *WorkerConfig) fill() {
	if c.ID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{Timeout: 60 * time.Second}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
}

// Work runs the worker loop against a coordinator until the campaign is
// done (nil), the context is canceled, or a permanent refusal / exhausted
// retry budget stops it (error). opts must describe the same campaign the
// coordinator serves — same grid axes, scale, seed — which the coordinator
// enforces by meta comparison at enrollment; opts.Workers stays
// worker-local (it shapes how this host runs its batches, not what the
// records hold). Tasks run through the same runOne/device-pool/cache
// substrate as sweep.Run — the process's pool (sweep.ProcessPool), whose
// devices grow in place to whatever leased task needs them — so every
// record is byte-identical to the one a single-process run produces.
func Work(ctx context.Context, coordinator string, opts sweep.Options, cfg WorkerConfig) error {
	if opts.ShardCount > 1 {
		return fmt.Errorf("service: a fleet worker cannot also be sharded (the lease loop replaces -shard)")
	}
	grid, err := sweep.TaskGrid(opts)
	if err != nil {
		return err
	}
	opts = opts.Normalized()
	cfg.fill()
	base, err := normalizeCoordinator(coordinator)
	if err != nil {
		return err
	}
	pool := sweep.ProcessPool()
	meta := sweep.MetaFor(opts)
	for {
		var lr LeaseResponse
		if err := postJSON(ctx, cfg, base+"/lease", LeaseRequest{
			Worker: cfg.ID, Proto: ProtocolVersion, Meta: meta, Max: cfg.BatchSize,
		}, &lr); err != nil {
			return err
		}
		if lr.Done {
			return nil
		}
		if len(lr.Tasks) == 0 {
			delay := time.Duration(lr.RetryMillis) * time.Millisecond
			if delay <= 0 {
				delay = 200 * time.Millisecond
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return err
			}
			continue
		}
		recs := make([]sweep.Record, 0, len(lr.Tasks))
		for _, idx := range lr.Tasks {
			if idx < 0 || idx >= len(grid) {
				// Meta equality makes this unreachable against an honest
				// coordinator; refuse rather than run arbitrary cells.
				return fmt.Errorf("service: leased task %d outside the %d-task grid", idx, len(grid))
			}
			// A canceled worker stops between tasks and submits nothing: the
			// coordinator re-issues the whole lease once it expires.
			if err := ctx.Err(); err != nil {
				return err
			}
			rec := sweep.RunTask(opts, pool, grid[idx])
			if cfg.OnRecord != nil {
				cfg.OnRecord(rec)
			}
			recs = append(recs, rec)
		}
		var sr SubmitResponse
		if err := postJSON(ctx, cfg, base+"/submit", SubmitRequest{
			Worker: cfg.ID, LeaseID: lr.LeaseID, Records: recs,
		}, &sr); err != nil {
			return err
		}
		if sr.Done {
			return nil
		}
	}
}

// normalizeCoordinator accepts "host:port" or a full http(s) URL.
func normalizeCoordinator(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("service: no coordinator address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return "", fmt.Errorf("service: coordinator address %q is not http(s)", addr)
	}
	return strings.TrimSuffix(addr, "/"), nil
}

// postJSON posts req and decodes the 200 response into out, retrying
// transient faults (network errors and 5xx) with exponential backoff and
// failing fast on 4xx — those are the coordinator saying "you, not the
// weather" (meta mismatch, unenrolled worker, alien record).
func postJSON(ctx context.Context, cfg WorkerConfig, url string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, cfg.Backoff<<(attempt-1)); err != nil {
				return err
			}
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := cfg.HTTP.Do(hr)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		payload, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if rerr != nil {
			last = rerr
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return json.Unmarshal(payload, out)
		case resp.StatusCode >= 500:
			last = fmt.Errorf("%s: %s", resp.Status, errorBody(payload))
			continue
		default:
			return fmt.Errorf("service: %s refused: %s", url, errorBody(payload))
		}
	}
	return fmt.Errorf("service: %s unreachable after %d attempts: %w", url, cfg.MaxAttempts, last)
}

func errorBody(payload []byte) string {
	var er errorResponse
	if json.Unmarshal(payload, &er) == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(payload))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
