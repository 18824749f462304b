package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/service"
)

// durableMetrics fills in the durable workload's own per-layer metrics: the
// stages of the timed flow, the checkpoint writer and reader on their own,
// and the same grid served through the campaign service.
func durableMetrics(w workload, seed int64, dir string, ts *timedStats, m map[string]float64, rep *report) {
	stage := func(pick func(durableStages) time.Duration) float64 {
		xs := make([]float64, len(ts.stages))
		for i, s := range ts.stages {
			xs[i] = ms(pick(s))
		}
		return median(xs)
	}
	m["sweep.shard_runs_s"] = stage(func(s durableStages) time.Duration { return s.shardRuns }) / 1e3
	m["sweep.merge_ms"] = stage(func(s durableStages) time.Duration { return s.merge })
	m["sweep.resume_ms"] = stage(func(s durableStages) time.Duration { return s.resume })
	m["sweep.write_csv_ms"] = stage(func(s durableStages) time.Duration { return s.writeCSV })
	m["sweep.render_ms"] = stage(func(s durableStages) time.Duration { return s.render })
	records := ts.last.records
	m["sweep.checkpoint_bytes_per_record"] = ratio(float64(ts.last.durable.checkpointBytes), float64(len(records)))

	opts := w.options(seed)
	if err := checkpointProbes(opts, dir, records, m); err != nil {
		rep.problem("checkpoint probe: %v", err)
	}

	// The same grid, unsharded and in memory: what the device pool reuses when
	// no shard stride defeats it, and the base the service is compared to.
	t := time.Now()
	plain, err := sweep.Run(opts)
	inMemory := time.Since(t)
	rep.attempted += len(records)
	if err != nil {
		rep.failed++
		rep.problem("in-memory run: %v", err)
		return
	}
	m["sweep.device_reuse_ratio_unsharded"] = ratio(float64(plain.Cache.DevicesReused), float64(plain.Cache.DevicesReused+plain.Cache.DevicesNew))

	t = time.Now()
	served, err := serveCampaign(opts)
	campaign := time.Since(t)
	rep.attempted += len(records)
	if err != nil {
		rep.failed++
		rep.problem("served campaign: %v", err)
		return
	}
	if !sameRecords(served.Records, records) {
		rep.failed++
		rep.problem("served campaign's records differ from the timed passes'")
	}
	m["service.campaign_s"] = campaign.Seconds()
	m["service.overhead_ratio"] = ratio(campaign.Seconds(), inMemory.Seconds())
}

// checkpointProbes times CheckpointWriter.Append per record and
// ReadCheckpointFile on the merged checkpoint the last timed pass left in dir.
func checkpointProbes(opts sweep.Options, dir string, records []sweep.Record, m map[string]float64) error {
	ckpt, err := sweep.OpenCheckpoint(filepath.Join(dir, "append.jsonl"), false, opts)
	if err != nil {
		return err
	}
	appends := make([]float64, len(records))
	for i, r := range records {
		t := time.Now()
		if err := ckpt.Append(r); err != nil {
			ckpt.Close()
			return err
		}
		appends[i] = float64(time.Since(t)) / 1e3
	}
	if err := ckpt.Close(); err != nil {
		return err
	}
	m["sweep.checkpoint_append_us"] = median(appends)

	var readErr error
	var read int
	m["sweep.read_checkpoint_ms"] = perOp(1, func() {
		_, recs, err := sweep.ReadCheckpointFile(filepath.Join(dir, "merged.jsonl"))
		readErr, read = err, len(recs)
	}) / 1e6
	if readErr != nil {
		return readErr
	}
	if read != len(records) {
		return fmt.Errorf("merged checkpoint holds %d records, want %d", read, len(records))
	}
	return nil
}

// handlerTransport hands a worker's requests straight to the coordinator's
// handler: the lease protocol, its JSON and the coordinator's bookkeeping are
// all exercised, and no socket is opened.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// serveCampaign runs opts through a coordinator and one lease-loop worker per
// CPU, and returns the coordinator's results.
func serveCampaign(opts sweep.Options) (*sweep.Results, error) {
	srv, err := service.New(opts, service.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client := &http.Client{Transport: handlerTransport{srv}}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = service.Work(context.Background(), "http://coordinator", opts,
				service.WorkerConfig{ID: fmt.Sprintf("bench-%d", i), HTTP: client})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return srv.Results()
}
