package sweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestGridIs450AndSpansCorners(t *testing.T) {
	g := Grid()
	if len(g) != 450 {
		t.Fatalf("grid size = %d, want 450", len(g))
	}
	seen := map[string]bool{}
	for _, hw := range g {
		if seen[hw.Name()] {
			t.Fatalf("duplicate config %s", hw.Name())
		}
		seen[hw.Name()] = true
	}
	if !seen["1c2w2t"] {
		t.Error("grid missing 1c2w2t (paper's lower corner)")
	}
	if !seen["64c32w32t"] {
		t.Error("grid missing 64c32w32t (paper's upper corner)")
	}
}

func TestSubsample(t *testing.T) {
	g := Grid()
	s := Subsample(g, 45)
	if len(s) != 45 {
		t.Fatalf("subsample size = %d", len(s))
	}
	// Deterministic.
	s2 := Subsample(g, 45)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("subsample not deterministic")
		}
	}
	// Keeps spread: small and large cores, and every axis must vary (a
	// strided pick would alias the threads axis to a single value).
	minCores, maxCores := s[0].Cores, s[0].Cores
	for _, hw := range s {
		if hw.Cores < minCores {
			minCores = hw.Cores
		}
		if hw.Cores > maxCores {
			maxCores = hw.Cores
		}
	}
	if minCores > 4 {
		t.Errorf("subsample lost the small end (min cores %d)", minCores)
	}
	if maxCores < 40 {
		t.Errorf("subsample lost the large end (max cores %d)", maxCores)
	}
	threads := map[int]bool{}
	warps := map[int]bool{}
	for _, hw := range s {
		threads[hw.Threads] = true
		warps[hw.Warps] = true
	}
	if len(threads) < 4 || len(warps) < 4 {
		t.Errorf("subsample aliased an axis: threads %v warps %v", threads, warps)
	}
	if got := Subsample(g, 0); len(got) != len(g) {
		t.Error("n=0 should return full grid")
	}
	if got := Subsample(g, 10000); len(got) != len(g) {
		t.Error("n>len should return full grid")
	}
}

// TestSubsampleGridOrderPreserved pins that the subset comes back in grid
// order (a subsequence of Grid()) — checkpoint resume and CSV diffs rely on
// task order being deterministic — and that the same n always yields the
// same subset while different n yield nested-from-the-same-shuffle picks.
func TestSubsampleGridOrderPreserved(t *testing.T) {
	g := Grid()
	for _, n := range []int{1, 10, 45, 120, 449} {
		s := Subsample(g, n)
		if len(s) != n {
			t.Fatalf("n=%d: got %d configs", n, len(s))
		}
		pos := -1
		for i, hw := range s {
			found := -1
			for j := pos + 1; j < len(g); j++ {
				if g[j] == hw {
					found = j
					break
				}
			}
			if found < 0 {
				t.Fatalf("n=%d: element %d (%s) out of grid order", n, i, hw.Name())
			}
			pos = found
		}
		s2 := Subsample(g, n)
		for i := range s {
			if s[i] != s2[i] {
				t.Fatalf("n=%d: subsample not deterministic at %d", n, i)
			}
		}
	}
}

// smallSweep runs a fast verified sweep used by several tests.
func smallSweep(t *testing.T, names []string) *Results {
	t.Helper()
	res, err := Run(Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},
			{Cores: 2, Warps: 2, Threads: 4},
			{Cores: 4, Warps: 4, Threads: 4},
		},
		Kernels: names,
		Scale:   0.05,
		Seed:    7,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepRunsAndVerifies(t *testing.T) {
	res := smallSweep(t, []string{"vecadd", "saxpy"})
	// 3 configs x 2 kernels x 3 mappers.
	if len(res.Records) != 18 {
		t.Fatalf("records = %d", len(res.Records))
	}
	for _, r := range res.Records {
		if r.Err != "" {
			t.Fatalf("run failed: %+v", r)
		}
		if r.Cycles == 0 || r.Instrs == 0 {
			t.Fatalf("empty record: %+v", r)
		}
	}
	if got := res.Mappers(); len(got) != 3 {
		t.Errorf("mappers = %v", got)
	}
	if got := res.Kernels(); len(got) != 2 {
		t.Errorf("kernels = %v", got)
	}
}

func TestRatiosAndSummaries(t *testing.T) {
	res := smallSweep(t, []string{"vecadd"})
	naive := res.Ratios("vecadd", "lws=1", "ours")
	fixed := res.Ratios("vecadd", "lws=32", "ours")
	if len(naive) != 3 || len(fixed) != 3 {
		t.Fatalf("ratio counts: %d, %d", len(naive), len(fixed))
	}
	// Ours must never be dramatically slower than either baseline, and on
	// average at least as good.
	sums := res.Summaries()
	if len(sums) != 1 || sums[0].Kernel != "vecadd" {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].VsNaive.Avg < 0.95 {
		t.Errorf("ours slower than naive on average: %+v", sums[0].VsNaive)
	}
	if sums[0].VsFixed.Avg < 0.95 {
		t.Errorf("ours slower than fixed on average: %+v", sums[0].VsFixed)
	}
}

func TestAggregates(t *testing.T) {
	res := smallSweep(t, []string{"vecadd", "relu"})
	aggs := res.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %+v", aggs)
	}
	if aggs[0].Group != "math" || aggs[0].Kernels != 2 {
		t.Errorf("aggregate = %+v", aggs[0])
	}
	if aggs[0].VsNaive <= 0 || aggs[0].VsFixed <= 0 {
		t.Errorf("aggregate ratios = %+v", aggs[0])
	}
}

func TestCSVAndTableRendering(t *testing.T) {
	res := smallSweep(t, []string{"vecadd"})
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+9 {
		t.Errorf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "config,cores") {
		t.Errorf("csv header = %q", lines[0])
	}

	buf.Reset()
	if err := res.RenderTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vecadd") || !strings.Contains(out, "aggregate math") {
		t.Errorf("table missing rows:\n%s", out)
	}
}

func TestRenderFigure2(t *testing.T) {
	res := smallSweep(t, []string{"vecadd"})
	var buf bytes.Buffer
	if err := res.RenderFigure2(&buf, stats.ViolinOptions{Rows: 9, HalfWidth: 8}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== vecadd ===") || !strings.Contains(out, "lws=32 / ours") {
		t.Errorf("figure missing sections:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if len(o.Configs) != 450 {
		t.Errorf("default configs = %d", len(o.Configs))
	}
	if len(o.Kernels) != 9 {
		t.Errorf("default kernels = %d", len(o.Kernels))
	}
	if len(o.Mappers) != 3 {
		t.Errorf("default mappers = %d", len(o.Mappers))
	}
	if o.Scale != 1 || o.Workers < 1 {
		t.Errorf("defaults: %+v", o)
	}
}

// TestDispatchOverheadPerLaunch pins Options.DispatchOverhead's one
// meaning: cycles charged per launch, 0 by default, and a negative value
// refused by every entry point before any task runs.
func TestDispatchOverheadPerLaunch(t *testing.T) {
	opts := Options{Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}}, Kernels: []string{"vecadd"},
		Mappers: []core.Mapper{core.Auto{}}, Scale: 0.05}
	base, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DispatchOverhead = 300
	charged, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := charged.Records[0].Cycles, base.Records[0].Cycles+300; got != want {
		t.Errorf("overhead 300 on one launch: %d cycles, want %d", got, want)
	}

	opts.DispatchOverhead = -1
	if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), "negative dispatch overhead") {
		t.Errorf("Run: err = %v, want the negative-overhead refusal", err)
	}
	if _, err := TaskGrid(opts); err == nil || !strings.Contains(err.Error(), "negative dispatch overhead") {
		t.Errorf("TaskGrid: err = %v, want the negative-overhead refusal", err)
	}
}

func TestUnknownKernelFails(t *testing.T) {
	_, err := Run(Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}},
		Kernels: []string{"nope"},
		Scale:   0.05,
	})
	if err == nil {
		t.Fatal("unknown kernel did not fail")
	}
}

func TestOptimalWinsOnAverage(t *testing.T) {
	// The key qualitative reproduction at sweep level: across a spread of
	// configurations (tiny hp where lws=32 over-batches, the Fig. 1 setup,
	// and a huge hp where lws=32 under-fills), "ours" is the fastest
	// mapping on average. Individual configs may favor a baseline by a few
	// percent — the paper reports the same cut-offs slightly below 1.
	res, err := Run(Options{
		Configs: []core.HWInfo{
			{Cores: 1, Warps: 2, Threads: 2},   // hp=4: lws=32 -> deep batching for ours? no: 8 batches for... tasks=32
			{Cores: 1, Warps: 2, Threads: 4},   // Fig. 1 setup
			{Cores: 2, Warps: 4, Threads: 8},   // mid
			{Cores: 16, Warps: 8, Threads: 16}, // hp=2048 > gws: lws=32 under-fills badly
		},
		Kernels: []string{"vecadd"},
		Scale:   0.25, // 1024 elements
		Seed:    3,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Summaries() {
		if s.VsNaive.Avg <= 1 {
			t.Errorf("%s: ours not faster than lws=1 on average (%.3f)", s.Kernel, s.VsNaive.Avg)
		}
		if s.VsFixed.Avg <= 1 {
			t.Errorf("%s: ours not faster than lws=32 on average (%.3f)", s.Kernel, s.VsFixed.Avg)
		}
		// Ours must never be catastrophically slower anywhere (the violins'
		// worst entries hover near 1 for vecadd in the paper).
		if s.VsNaive.Worst < 0.7 || s.VsFixed.Worst < 0.7 {
			t.Errorf("%s: catastrophic worst case: naive %.2f fixed %.2f",
				s.Kernel, s.VsNaive.Worst, s.VsFixed.Worst)
		}
	}
}

func TestCrossoverCurve(t *testing.T) {
	res := smallSweep(t, []string{"vecadd"})
	curve := res.pairing().crossover("vecadd", "lws=32")
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].HP <= curve[i-1].HP {
			t.Error("curve not sorted by hp")
		}
	}
	for _, p := range curve {
		if p.MeanRatio <= 0 || p.N == 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	var buf bytes.Buffer
	if err := res.RenderCrossover(&buf, "lws=32"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vecadd vs lws=32") {
		t.Errorf("render missing header:\n%s", buf.String())
	}
}

func TestCrossoverHP(t *testing.T) {
	// Synthetic results: baseline loses only above hp=16.
	res := &Results{}
	add := func(c, w, th int, mapper string, cycles uint64) {
		res.Records = append(res.Records, Record{
			Config: core.HWInfo{Cores: c, Warps: w, Threads: th},
			Kernel: "k", Mapper: mapper, Cycles: cycles,
		})
	}
	add(1, 2, 2, "ours", 100)
	add(1, 2, 2, "lws=32", 90) // hp=4: baseline wins
	add(2, 2, 4, "ours", 100)
	add(2, 2, 4, "lws=32", 150) // hp=16: ours wins
	add(4, 4, 4, "ours", 100)
	add(4, 4, 4, "lws=32", 300) // hp=64: ours wins
	if hp := crossoverHP(res.pairing().crossover("k", "lws=32")); hp != 16 {
		t.Errorf("crossover = %d, want 16", hp)
	}
	// Baseline never loses -> -1.
	res2 := &Results{}
	res2.Records = append(res2.Records,
		Record{Config: core.HWInfo{Cores: 1, Warps: 2, Threads: 2}, Kernel: "k", Mapper: "ours", Cycles: 100},
		Record{Config: core.HWInfo{Cores: 1, Warps: 2, Threads: 2}, Kernel: "k", Mapper: "lws=32", Cycles: 50},
	)
	if hp := crossoverHP(res2.pairing().crossover("k", "lws=32")); hp != -1 {
		t.Errorf("no-crossover = %d, want -1", hp)
	}
}

// TestCrossoverHPEdgeCases pins the boundary behavior of the crossover
// scan: an empty curve, a curve where the baseline loses everywhere, a
// curve that ends with the baseline winning (no stable crossover even
// though it lost earlier), and a single-band curve on each side.
func TestCrossoverHPEdgeCases(t *testing.T) {
	add := func(res *Results, c, w, th int, mapper string, cycles uint64) {
		res.Records = append(res.Records, Record{
			Config: core.HWInfo{Cores: c, Warps: w, Threads: th},
			Kernel: "k", Mapper: mapper, Cycles: cycles,
		})
	}

	// Empty curve: unknown kernel/baseline, or no matching "ours" sample.
	empty := &Results{}
	if hp := crossoverHP(empty.pairing().crossover("k", "lws=32")); hp != -1 {
		t.Errorf("empty results: crossover = %d, want -1", hp)
	}
	noOurs := &Results{}
	add(noOurs, 1, 2, 2, "lws=32", 90)
	if hp := crossoverHP(noOurs.pairing().crossover("k", "lws=32")); hp != -1 {
		t.Errorf("baseline without ours samples: crossover = %d, want -1", hp)
	}

	// Every band >= 1: ours wins from the very first hp.
	allWin := &Results{}
	add(allWin, 1, 2, 2, "ours", 100)
	add(allWin, 1, 2, 2, "lws=32", 100) // ratio exactly 1 counts as won
	add(allWin, 2, 2, 4, "ours", 100)
	add(allWin, 2, 2, 4, "lws=32", 250)
	if hp := crossoverHP(allWin.pairing().crossover("k", "lws=32")); hp != 4 {
		t.Errorf("all-bands-won: crossover = %d, want 4 (the smallest hp)", hp)
	}

	// Last band < 1: the baseline wins again at the top of the grid, so
	// there is no hp from which ours stays ahead — even though ours won a
	// middle band.
	regress := &Results{}
	add(regress, 1, 2, 2, "ours", 100)
	add(regress, 1, 2, 2, "lws=32", 90)
	add(regress, 2, 2, 4, "ours", 100)
	add(regress, 2, 2, 4, "lws=32", 150)
	add(regress, 4, 4, 4, "ours", 100)
	add(regress, 4, 4, 4, "lws=32", 80)
	if hp := crossoverHP(regress.pairing().crossover("k", "lws=32")); hp != -1 {
		t.Errorf("regressing top band: crossover = %d, want -1", hp)
	}

	// Single band: whichever side of 1 it lands on decides alone.
	oneWin := &Results{}
	add(oneWin, 1, 2, 2, "ours", 100)
	add(oneWin, 1, 2, 2, "lws=32", 110)
	if hp := crossoverHP(oneWin.pairing().crossover("k", "lws=32")); hp != 4 {
		t.Errorf("single winning band: crossover = %d, want 4", hp)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	res := smallSweep(t, []string{"vecadd"})
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(res.Records) {
		t.Fatalf("records %d != %d", len(back.Records), len(res.Records))
	}
	for i := range res.Records {
		a, b := res.Records[i], back.Records[i]
		if a.Config != b.Config || a.Kernel != b.Kernel || a.Mapper != b.Mapper ||
			a.LWS != b.LWS || a.Cycles != b.Cycles || a.Instrs != b.Instrs {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
	// Derived analyses agree.
	r1 := res.Ratios("vecadd", "lws=1", "ours")
	r2 := back.Ratios("vecadd", "lws=1", "ours")
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("ratio %d: %v != %v", i, r1[i], r2[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus,header\n1,2\n",
		"config,kernel,mapper,lws,cycles\nnotaconfig,k,m,1,10\n",
		"config,kernel,mapper,lws,cycles\n1c2w2t,k,m,x,10\n",
		"config,kernel,mapper,lws,cycles\n1c2w2t,k\n",
		"config,kernel,mapper,lws,cycles\n1c2w2t,k,m,1,\n",
	}
	for i, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}

	// A corrupt numeric or grid-axis cell is refused with its line and
	// column; an empty one (older files) is accepted as zero.
	for _, col := range []string{"instrs", "mem_stall", "exec_stall", "mshrs", "sched"} {
		header := "config,kernel,mapper,lws,cycles," + col + "\n"
		src := header + "1c2w2t,k,m,1,10,\n1c2w2t,k,m,1,10,x\n"
		_, err := ReadCSV(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), col) {
			t.Errorf("corrupt %s cell: err = %v, want a line-3 refusal naming the column", col, err)
		}
	}
}

// TestWriteCSVSanitizesErr pins that free-form error strings cannot break
// the CSV row structure: commas survive the round trip (err is the last
// column and is rejoined on read), newlines are flattened on write.
func TestWriteCSVSanitizesErr(t *testing.T) {
	res := &Results{Records: []Record{{
		Config: core.HWInfo{Cores: 1, Warps: 2, Threads: 2},
		Kernel: "k", Mapper: "m",
		Err: "bad dims, want 2,\ngot 3\r\nsomehow",
	}}}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("CSV written by WriteCSV unreadable: %v", err)
	}
	if len(back.Records) != 1 {
		t.Fatalf("round trip produced %d records", len(back.Records))
	}
	if got, want := back.Records[0].Err, "bad dims, want 2, got 3  somehow"; got != want {
		t.Errorf("err round trip = %q, want %q", got, want)
	}
}
