package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/sweep"
)

// WorkerConfig configures a lease-loop worker.
type WorkerConfig struct {
	// ID is the worker's stable identity; the coordinator refuses an
	// empty one.
	ID string
	// BatchSize is the number of tasks requested per lease; 0 accepts the
	// coordinator's default.
	BatchSize int
	// HTTP is the client requests go through; nil uses one with a 60s
	// timeout.
	HTTP *http.Client
}

// A request is tried up to maxAttempts times, on transient faults only
// (network errors, 5xx): attempt n sleeps backoff*2^(n-1) first, ~3s of
// patience in all. Permanent refusals (4xx: meta mismatch, bad records)
// never retry.
const (
	maxAttempts = 6
	backoff     = 100 * time.Millisecond
)

// Work runs the worker loop against the coordinator at the http(s) URL
// coordinator until the campaign is done (nil), the context is canceled,
// or a permanent refusal / exhausted retry budget stops it (error). opts
// must describe the campaign the coordinator serves, which it enforces by
// meta comparison at enrollment. Leased tasks run one at a time through
// sweep.RunTask on the process's pool (sweep.ProcessPool), so every record
// is byte-identical to the one a single-process run produces.
func Work(ctx context.Context, coordinator string, opts sweep.Options, cfg WorkerConfig) error {
	if !strings.HasPrefix(coordinator, "http://") && !strings.HasPrefix(coordinator, "https://") {
		return fmt.Errorf("service: coordinator address %q is not an http(s) URL", coordinator)
	}
	base := strings.TrimSuffix(coordinator, "/")
	grid, err := sweep.TaskGrid(opts)
	if err != nil {
		return err
	}
	opts = opts.Normalized()
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 60 * time.Second}
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
				delay = retryDelay
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
			recs = append(recs, sweep.RunTask(opts, pool, grid[idx]))
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
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff<<(attempt-1)); err != nil {
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
	return fmt.Errorf("service: %s unreachable after %d attempts: %w", url, maxAttempts, last)
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
