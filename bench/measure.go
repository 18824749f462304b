package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// processStart stands for the start of the process: package variables are
// initialised before main runs.
var processStart = time.Now()

// shape is how one run spends its time. It never adapts to what it measures:
// the set-up count is fixed and timed passes repeat until the clock runs out.
type shape struct {
	coldPasses int           // set-ups: cold caches, then one pass
	minPasses  int           // timed warm passes, at least
	measure    time.Duration // keep starting timed passes until this much time has gone
	traced     bool          // add the traced pass and the layer probes
	probeDiv   int           // divides the probes' iteration counts (tests shrink them)
	traceOut   string        // where the traced pass writes its spans ("" = nowhere)
}

// report is what one run of one workload found.
type report struct {
	metrics       map[string]float64
	attempted     int
	failed        int
	recordsSHA256 string
	passWalls     []float64 // every timed pass, in order
	setups        []float64 // every set-up, in order
	problems      []string  // anything that makes the run incorrect
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timedStats are the per-pass samples of the timed phase.
type timedStats struct {
	walls, allocMB, mallocs, gcCycles, gcPauseMS []float64
	stages                                       []durableStages
	last                                         pass
}

// runWorkload measures one workload in this process: set-ups from cold
// caches, timed warm passes with tracing off, and — only when sh.traced — the
// traced pass and the probes. End-to-end metrics never come from the traced
// pass.
func runWorkload(w workload, seed int64, sh shape, dir string) *report {
	rep := &report{metrics: map[string]float64{}}

	setups := make([]float64, 0, sh.coldPasses)
	var cold pass
	for i := 0; i < sh.coldPasses; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		ocl.ResetProgramCache()
		kernels.ResetInputCache()
		p, err := w.runPass(seed, dir)
		setups = append(setups, time.Since(start).Seconds())
		rep.count(p, err)
		if i == 0 {
			cold = p
		}
	}

	var ts timedStats
	var peakRSS float64
	deadline := time.Now().Add(sh.measure)
	for n := 0; n < sh.minPasses || time.Now().Before(deadline); n++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := w.runPass(seed, dir)
		runtime.ReadMemStats(&after)
		rep.count(p, err)
		tasks := float64(len(p.records))
		ts.walls = append(ts.walls, p.wall.Seconds())
		ts.allocMB = append(ts.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6/tasks)
		ts.mallocs = append(ts.mallocs, float64(after.Mallocs-before.Mallocs)/tasks)
		ts.gcCycles = append(ts.gcCycles, float64(after.NumGC-before.NumGC))
		ts.gcPauseMS = append(ts.gcPauseMS, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		ts.stages = append(ts.stages, p.durable)
		if sha := recordsDigest(p.records); rep.recordsSHA256 == "" {
			rep.recordsSHA256 = sha
		} else if sha != rep.recordsSHA256 {
			rep.problem("timed pass %d: records_sha256 %s differs from the first pass's %s", n, sha, rep.recordsSHA256)
		}
		ts.last = p
		if n+1 == sh.minPasses {
			// Read the high-water mark after a fixed amount of work: how many
			// more passes fit into the time varies from run to run, and a
			// maximum over more passes is a larger maximum.
			var rssErr error
			if peakRSS, rssErr = peakRSSMB(); rssErr != nil {
				rep.problem("peak RSS: %v", rssErr)
			}
		}
	}
	if recordsDigest(cold.records) != rep.recordsSHA256 {
		rep.problem("cold pass records differ from the timed passes'")
	}

	rep.passWalls, rep.setups = ts.walls, setups
	wall := median(ts.walls)
	var cycles, instrs uint64
	for _, r := range ts.last.records {
		cycles += r.Cycles
		instrs += r.Instrs
	}
	res := sweep.Results{Records: ts.last.records}
	m := rep.metrics
	m["wall_s"] = wall
	m["sim_instrs_per_s"] = float64(instrs) / wall
	m["alloc_mb_per_task"] = median(ts.allocMB)
	m["peak_rss_mb"] = peakRSS
	m["device_cycles"] = float64(cycles)
	m["ratio_naive"] = meanRatio(&res, "lws=1")
	m["ratio_fixed32"] = meanRatio(&res, "lws=32")
	m["setup_s"] = median(setups)

	if sh.traced {
		tracedMetrics(w, seed, sh, dir, cold, &ts, rep)
	}
	return rep
}

// count adds a pass to the run's operation counts. An operation is a task; a
// record with an error is a failed one. An error with no such record behind it
// comes from a step that is not a task (a merge, a resume, a checkpoint write)
// and counts as one more operation, failed.
func (r *report) count(p pass, err error) {
	bad := 0
	for _, rec := range p.records {
		if rec.Err != "" {
			bad++
		}
	}
	r.attempted += len(p.records)
	r.failed += bad
	if err != nil {
		r.problem("%v", err)
		if bad == 0 {
			r.attempted++
			r.failed++
		}
	}
}

// meanRatio is the mean over (config, kernel) of cycles(baseline)/cycles(ours),
// rounded to six significant digits.
func meanRatio(res *sweep.Results, baseline string) float64 {
	var sum float64
	n := 0
	for _, k := range res.Kernels() {
		for _, r := range res.Ratios(k, baseline, "ours") {
			sum += r
			n++
		}
	}
	if n == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(strconv.FormatFloat(sum/float64(n), 'g', 6, 64), 64)
	return v
}

// recordsDigest hashes a pass's records in canonical order, for comparing
// passes, runs and commits exactly.
func recordsDigest(records []sweep.Record) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range records {
		_ = enc.Encode(r) // a hash.Hash never fails a write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
