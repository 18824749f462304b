package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// runSets runs the whole set — every workload, timed and traced, each in a
// fresh process of this binary — n times over, prints each metric's median,
// quartiles and relative spread, and returns a non-zero exit code when a run
// was incorrect or two sets disagree: by more than its bound for a host-time
// end-to-end metric, at all for a simulated count or the records digest.
func runSets(n int, seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	samples := map[string][]float64{} // "workload metric" -> one value per set
	digests := map[string][]string{}  // workload -> records_sha256 per run
	bad := 0
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			for _, trace := range []int{0, 1} {
				fmt.Fprintf(os.Stderr, "bench: set %d/%d %s trace=%d\n", set+1, n, w.name, trace)
				hdr, res, err := runChild(self, w.name, seed, seconds, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					bad++
					continue
				}
				digests[w.name] = append(digests[w.name], hdr.RecordsSHA256)
				for name, v := range res.Metrics {
					key := w.name + " " + name
					samples[key] = append(samples[key], v.Value)
				}
			}
		}
	}

	fmt.Printf("%-14s %-36s %-7s %14s %14s %14s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread")
	for _, w := range workloads {
		for _, m := range allMetrics() {
			xs := samples[w.name+" "+m.Name]
			if len(xs) == 0 {
				continue
			}
			med, q1, q3 := stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75)
			fmt.Printf("%-14s %-36s %-7s %14.6g %14.6g %14.6g %7.2f%%\n", w.name, m.Name, m.Unit, med, q1, q3, 100*ratio(q3-q1, math.Abs(med)))
			if why := disagreement(m, xs); why != "" {
				fmt.Printf("DISAGREE %s %s: %s\n", w.name, m.Name, why)
				bad++
			}
		}
		for _, d := range digests[w.name] {
			if d != digests[w.name][0] {
				fmt.Printf("DISAGREE %s records_sha256: %s vs %s\n", w.name, d, digests[w.name][0])
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// disagreement says how two of a metric's per-set values disagree, or "".
func disagreement(m metric, xs []float64) string {
	lo, hi := stats.Min(xs), stats.Max(xs)
	switch {
	case m.Sim && lo != hi:
		return fmt.Sprintf("a simulated count must repeat exactly, got %v and %v", lo, hi)
	case !m.Sim && m.Bound > 0 && hi-lo > m.Bound*math.Abs(lo):
		return fmt.Sprintf("%v and %v are more than %v%% apart", lo, hi, 100*m.Bound)
	}
	return ""
}

// runChild measures one workload in a fresh process and parses the two JSON
// lines it ends with. The child has exited when runChild returns.
func runChild(self, workload string, seed int64, seconds, trace int) (header, result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return header{}, result{}, fmt.Errorf("no result printed (%v)", runErr)
	}
	var hdr struct {
		Run header `json:"run"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &hdr); err != nil {
		return header{}, result{}, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return header{}, result{}, err
	}
	if runErr != nil || !res.Correct {
		return hdr.Run, res, fmt.Errorf("incorrect run: %d of %d operations failed (%v)", res.Failed, res.Attempted, runErr)
	}
	return hdr.Run, res, nil
}
