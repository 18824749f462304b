package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCampaignSubmit pins Campaign.Submit's acceptance rule, the one both
// Run and the campaign service apply, on one slot of a checkpointed
// campaign: which record the slot holds, what the checkpoint streams,
// and that Progress and OnRecord see only the slot's first completion.
func TestCampaignSubmit(t *testing.T) {
	ok := func(cycles uint64) Record { return Record{Cycles: cycles} }
	fail := func(msg string) Record { return Record{Err: msg} }
	for _, tc := range []struct {
		name     string
		submits  []Record
		outcomes []Outcome
		held     Record   // the slot's record afterwards
		streamed []Record // checkpoint lines after the meta header
		failed   int
	}{
		{"success", []Record{ok(10)}, []Outcome{Accepted}, ok(10), []Record{ok(10)}, 0},
		{"failure", []Record{fail("boom")}, []Outcome{Failed}, fail("boom"), nil, 1},
		{"success after failure", []Record{fail("boom"), ok(10)}, []Outcome{Failed, Accepted}, ok(10), []Record{ok(10)}, 0},
		{"failure after failure", []Record{fail("boom"), fail("bang")}, []Outcome{Failed, Failed}, fail("bang"), nil, 1},
		{"duplicate success", []Record{ok(10), ok(20)}, []Outcome{Accepted, Duplicate}, ok(20), []Record{ok(10), ok(20)}, 0},
		{"failure after success", []Record{ok(10), fail("late")}, []Outcome{Accepted, Ignored}, ok(10), []Record{ok(10)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Configs:    []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 2, Warps: 2, Threads: 4}},
				Kernels:    []string{"vecadd"},
				Scale:      0.05,
				Checkpoint: filepath.Join(t.TempDir(), "campaign.jsonl"),
			}
			var progress []int
			var seen []Record
			opts.Progress = func(done, total int) { progress = append(progress, done) }
			opts.OnRecord = func(rec Record) { seen = append(seen, rec) }
			c, err := NewCampaign(opts, true)
			if err != nil {
				t.Fatal(err)
			}
			// Every record carries slot 0's task identity.
			identify := func(r Record) Record {
				rec := c.task(0).Record()
				rec.Cycles, rec.Err = r.Cycles, r.Err
				return rec
			}
			var outcomes []Outcome
			for _, r := range tc.submits {
				out, err := c.Submit(0, identify(r))
				if err != nil {
					t.Fatal(err)
				}
				outcomes = append(outcomes, out)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(outcomes, tc.outcomes) {
				t.Errorf("outcomes %v, want %v", outcomes, tc.outcomes)
			}
			res, _ := c.Results()
			if got, want := res.Records[0], identify(tc.held); got != want {
				t.Errorf("slot holds %+v, want %+v", got, want)
			}
			if total, done, failed := c.Counts(); total != 6 || done != 1 || failed != tc.failed {
				t.Errorf("counts %d/%d/%d, want 6/1/%d", total, done, failed, tc.failed)
			}
			if !slices.Equal(progress, []int{1}) || len(seen) != 1 || seen[0] != identify(tc.submits[0]) {
				t.Errorf("Progress saw %v and OnRecord %v, want the first completion only", progress, seen)
			}
			raw, err := os.ReadFile(opts.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			want.Write(jsonLine(t, MetaFor(opts)))
			for _, r := range tc.streamed {
				want.Write(jsonLine(t, identify(r)))
			}
			if !bytes.Equal(raw, want.Bytes()) {
				t.Errorf("checkpoint:\n%s\nwant:\n%s", raw, want.Bytes())
			}
		})
	}
}

// TestCampaignErr pins the end-of-campaign error: outstanding tasks while
// the campaign runs, then the first failure in slot order, then nil once
// a success supersedes it.
func TestCampaignErr(t *testing.T) {
	c, err := NewCampaign(Options{Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}}, Kernels: []string{"vecadd"}, Scale: 0.05}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "3 of 3 tasks outstanding") {
		t.Errorf("fresh campaign: Err() = %v", err)
	}
	for slot := range 3 {
		task := c.task(slot)
		rec := task.Record()
		if slot > 0 {
			rec.Err = "fault " + task.Mapper.Name()
		}
		c.Submit(slot, rec)
	}
	if err := c.Err(); err == nil || err.Error() != "sweep: vecadd/lws=32 on 1c2w2t: fault lws=32" {
		t.Errorf("Err() = %v, want the first failure in slot order", err)
	}
	c.Submit(1, c.task(1).Record())
	c.Submit(2, c.task(2).Record())
	if err := c.Err(); err != nil {
		t.Errorf("Err() after the failures were superseded = %v", err)
	}
}
