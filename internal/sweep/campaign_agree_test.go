package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweep/service"
)

// pickyMapper is lws=1 everywhere except on two-core devices, where it
// answers an lws the runtime refuses: exactly one task of the campaign
// below fails, deterministically, on every path that runs it.
type pickyMapper struct{}

func (pickyMapper) Name() string { return "picky" }

func (pickyMapper) LWS(_ int, hw core.HWInfo) int {
	if hw.Cores == 2 {
		return 0
	}
	return 1
}

// failingCampaign is 3 configs x vecadd x {lws=1, picky} = 6 tasks, one
// of which (2c2w4t/vecadd/picky) fails.
func failingCampaign(ckpt string) sweep.Options {
	return sweep.Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},
			{Cores: 2, Warps: 2, Threads: 4},
			{Cores: 4, Warps: 4, Threads: 4},
		},
		Kernels:    []string{"vecadd"},
		Mappers:    []core.Mapper{core.Naive{}, pickyMapper{}},
		Scale:      0.05,
		Seed:       7,
		Workers:    1,
		Checkpoint: ckpt,
	}
}

// sortedLines returns the lines of a checkpoint file in sorted order, so a
// stream written in completion order compares with one written in task
// order.
func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	slices.Sort(lines)
	return lines
}

// failureText drops the package prefix ("sweep: ", "service: ") from an
// end-of-campaign error, leaving the description of the failed task.
func failureText(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		t.Fatal("campaign with a failing task reported no error")
	}
	_, text, _ := strings.Cut(err.Error(), ": ")
	return text
}

// TestCampaignRunServeAgree runs one keyed campaign with a failing task
// twice — through a checkpointed Run and through a coordinator with two
// in-process lease-loop workers — and pins what both paths leave behind:
// the records, the checkpoint lines (the failure is never checkpointed)
// and the end-of-campaign error.
func TestCampaignRunServeAgree(t *testing.T) {
	dir := t.TempDir()
	const wantErr = "vecadd/picky on 2c2w4t: kernels: vecadd launch 0: ocl: lws 0 must be positive (or 0 for auto)"

	runCkpt := filepath.Join(dir, "run.jsonl")
	res, runErr := sweep.Run(failingCampaign(runCkpt))
	if got := failureText(t, runErr); got != wantErr {
		t.Errorf("Run error %q, want %q", got, wantErr)
	}
	if len(res.Records) != 6 {
		t.Fatalf("Run returned %d records, want 6", len(res.Records))
	}
	var failed []string
	wantLines := []string{string(mustMarshal(t, sweep.MetaFor(failingCampaign(runCkpt))))}
	for _, rec := range res.Records {
		if rec.Err != "" {
			failed = append(failed, rec.Key())
			continue
		}
		if rec.Cycles == 0 {
			t.Errorf("%s: successful record without cycles", rec.Key())
		}
		wantLines = append(wantLines, string(mustMarshal(t, rec)))
	}
	if want := []string{"2c2w4t/vecadd/picky/rr/0/16k4w/off"}; !slices.Equal(failed, want) {
		t.Errorf("failed tasks %v, want %v", failed, want)
	}
	slices.Sort(wantLines)
	if got := sortedLines(t, runCkpt); !slices.Equal(got, wantLines) {
		t.Errorf("Run checkpoint lines:\n%s\nwant the meta header and the 5 successful records:\n%s",
			strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}

	servedCkpt := filepath.Join(dir, "served.jsonl")
	served := failingCampaign(servedCkpt)
	var progressMu sync.Mutex
	var progressed [2]int // the last Progress call's done and total
	served.Progress = func(done, total int) {
		progressMu.Lock()
		defer progressMu.Unlock()
		progressed = [2]int{done, total}
	}
	srv, err := service.New(served, service.Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = service.Work(context.Background(), hs.URL, failingCampaign(""),
				service.WorkerConfig{ID: fmt.Sprintf("w%d", i), BatchSize: 1 + i})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := failureText(t, srv.Err()); got != wantErr {
		t.Errorf("served error %q, want %q", got, wantErr)
	}
	if srv.Err().Error() != runErr.Error() {
		t.Errorf("served error %q differs from Run's %q", srv.Err(), runErr)
	}
	progressMu.Lock()
	if progressed != [2]int{6, 6} {
		t.Errorf("served Progress ended at %d/%d, want 6/6: a failed task completes too", progressed[0], progressed[1])
	}
	progressMu.Unlock()
	if _, err := srv.Results(); failureText(t, err) != wantErr {
		t.Errorf("served Results error %v, want the task failure", err)
	}
	if got := sortedLines(t, servedCkpt); !slices.Equal(got, wantLines) {
		t.Errorf("served checkpoint lines differ from Run's:\n%s", strings.Join(got, "\n"))
	}
	_, records, err := sweep.ReadCheckpointFile(servedCkpt)
	if err != nil {
		t.Fatal(err)
	}
	streamed := map[string]sweep.Record{} // the later of duplicates wins
	for _, rec := range records {
		streamed[rec.Key()] = rec
	}
	for _, rec := range res.Records {
		if rec.Err == "" && !bytes.Equal(mustMarshal(t, streamed[rec.Key()]), mustMarshal(t, rec)) {
			t.Errorf("%s: served record differs from Run's", rec.Key())
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
