// Command bench is the repository's benchmark: it runs one of four campaign
// workloads through the public sweep/ocl/kernels API with default options,
// checks the outputs, and prints every metric by name with its unit.
//
//	bash bench/run.sh --workload compute_dense --seed 42 --seconds 14 --trace 0
//	bash bench/run.sh --workload short_durable --seed 42 --trace 1 --trace-out spans.jsonl
//	bash bench/run.sh --repeat 2        # every workload, twice, in fresh processes
//
// README.md beside this file describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The run shape. One process measures one workload: setUps set-ups from cold
// caches, then timed warm passes until --seconds have gone (a traced run gives
// the timed passes a third of that and spends the rest on the traced pass and
// the probes).
const (
	setUps           = 3
	minTimedPasses   = 5
	minTracedPasses  = 3
	defaultSeconds   = 14
	tracedShareOfRun = 3
)

// header describes the host and the run; it is printed before the result.
type header struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	CPU           string    `json:"cpu"`
	GoVersion     string    `json:"go_version"`
	GitSHA        string    `json:"git_sha"`
	RecordsSHA256 string    `json:"records_sha256"`
	OpsAttempted  int       `json:"ops_attempted"`
	OpsFailed     int       `json:"ops_failed"`
	PassWallS     []float64 `json:"pass_wall_s"`
	SetupS        []float64 `json:"setup_s"`
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to measure in this process; empty runs every workload in fresh processes (see -repeat)")
	seed := flag.Int64("seed", campaignSeed, "workload seed: campaign inputs and the probes' address streams")
	seconds := flag.Int("seconds", defaultSeconds, "how long the timed passes go on")
	trace := flag.Int("trace", 0, "1 adds the traced pass and the probes and prints the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "file the traced pass writes its spans to, as JSON lines")
	repeat := flag.Int("repeat", 1, "without -workload: how many times to run the whole set")
	flag.Parse()

	if err := guardHost(); err != nil {
		fatal(err)
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1 {
		fatal(fmt.Errorf("bad arguments %q: want [--workload <name>] [--seed <n>] [--seconds <n, at least 1>] [--trace <0|1>] [--trace-out <file>] [--repeat <n, at least 1>]", os.Args[1:]))
	}
	if *workloadName == "" {
		os.Exit(runSets(*repeat, *seed, *seconds))
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}

	sh := shape{coldPasses: setUps, minPasses: minTimedPasses, measure: time.Duration(*seconds) * time.Second, traceOut: *traceOut}
	declared := endToEnd
	if *trace == 1 {
		sh.traced, sh.coldPasses, sh.minPasses, sh.measure = true, 1, minTracedPasses, sh.measure/tracedShareOfRun
		declared = perLayer
	}
	// Checkpoints go under the build directory of the checkout the run was
	// started in, never outside it.
	dir, err := scratchDir()
	if err != nil {
		fatal(err)
	}
	rep := runWorkload(w, *seed, sh, dir)
	if err := os.RemoveAll(dir); err != nil {
		rep.problem("%v", err)
	}

	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	res := result{Correct: len(rep.problems) == 0 && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range declared {
		res.Metrics[d.Name] = value{Value: rep.metrics[d.Name], Unit: d.Unit}
	}
	printJSON(struct {
		Run header `json:"run"`
	}{hostHeader(w.name, *seed, rep)})
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// guardHost refuses to generate load from more workers than the host has
// CPUs: sweep.Options.Workers defaults to GOMAXPROCS.
func guardHost() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host; the workloads would run more workers than CPUs", p, n)
	}
	return nil
}

func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func hostHeader(workload string, seed int64, rep *report) header {
	return header{
		Workload: workload, Seed: seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), GitSHA: gitSHA(),
		RecordsSHA256: rep.recordsSHA256, OpsAttempted: rep.attempted, OpsFailed: rep.failed,
		PassWallS: rep.passWalls, SetupS: rep.setups,
	}
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit from .git by hand (no git process is
// started); a checkout that is not a git repository reads "unknown".
func gitSHA() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref // detached: HEAD holds the hash
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			packed, _ := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, ok := strings.CutSuffix(line, " "+ref); ok {
					return sha
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
