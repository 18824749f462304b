package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the catalogue
// the harness prints from in step, in both directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table has %q: %q", i, got, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	check := func(kind string, got []declared, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the catalogue %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json and catalogue differ", kind, m.Name)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: bad name, unit %q or direction %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, m := range allMetrics() {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestMovesNameDeclaredTargets checks the layer table's predictions: every
// "moves" entry names a declared end-to-end metric and a workload.
func TestMovesNameDeclaredTargets(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, mv.Metric)
			}
			if _, ok := workloadByName(mv.Workload); !ok && mv.Workload != "*" {
				t.Errorf("%s moves %s on %q, which is not a workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// TestStableAPIOnly greps the harness's own sources for the option fields the
// roadmap plans to delete, so that a mode-removal change compiles against an
// unedited benchmark.
func TestStableAPIOnly(t *testing.T) {
	forbidden := []string{"Tick" + "Engine", "NoBatch" + "Exec", "NoBatch" + "Mem", "Sim" + "Workers", "Commit" + "Workers", "Scan" + "Sched"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range forbidden {
			if strings.Contains(string(src), id) {
				t.Errorf("%s mentions %s", f, id)
			}
		}
	}
}

// shrunk is w at a size that runs in a fraction of a second.
func shrunk(w workload) workload {
	n := 1
	if w.durable {
		n = 9 // enough configurations for every shard to build and reuse devices
	}
	configs := w.configs()
	w.configs = func() []core.HWInfo { return sweep.Subsample(configs, n) }
	w.scale = 0.01
	return w
}

// TestSmoke runs every workload at a shrunken size — one set-up, one timed
// pass and the traced pass — on a seed no measurement uses, and checks the
// run is correct, prints exactly the declared metrics, and nests its spans.
func TestSmoke(t *testing.T) {
	const seed = 7
	want := map[string]bool{}
	for _, m := range allMetrics() {
		want[m.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.jsonl")
			sh := shape{coldPasses: 1, minPasses: 1, traced: true, probeDiv: 50, traceOut: spans}
			rep := runWorkload(shrunk(w), seed, sh, dir)
			for _, p := range rep.problems {
				t.Error(p)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			for name := range rep.metrics {
				if !want[name] {
					t.Errorf("printed metric %s is not declared", name)
				}
			}
			for name := range want {
				if _, ok := rep.metrics[name]; !ok {
					t.Errorf("declared metric %s was not printed", name)
				}
			}
			for _, m := range endToEnd {
				if rep.metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.metrics[m.Name])
				}
			}
			if c := rep.metrics["trace.coverage"]; c <= 0 || c > 1 {
				t.Errorf("trace.coverage = %v", c)
			}
			checkSpans(t, spans)
		})
	}
}

// checkSpans reads the spans a traced pass wrote and checks that each child
// lies inside its parent, that siblings do not overlap (one goroutine made
// them) and so that every task's self time is non-negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no spans written")
	}
	lastChildEnd := map[int]int64{}
	inChildren := map[int]int64{}
	for i, s := range all {
		if s.ID != i || s.End < s.Start || s.Task == "" {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent < 0 {
			continue
		}
		p := all[s.Parent]
		if p.Task != s.Task || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
		if s.Start < lastChildEnd[s.Parent] {
			t.Errorf("span %+v overlaps its previous sibling", s)
		}
		lastChildEnd[s.Parent] = s.End
		inChildren[s.Parent] += s.End - s.Start
	}
	for id, d := range inChildren {
		if self := all[id].End - all[id].Start - d; self < 0 {
			t.Errorf("span %d has self time %v", id, time.Duration(self))
		}
	}
}
