package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenResults builds a fixed synthetic campaign over a small grid —
// 3 configs x 2 kernels (one math, one ml) x 3 mappers, cycle counts chosen
// by formula so every render path (ratios, aggregates, energy, crossover,
// CSV) has non-trivial structure. Synthetic records pin the FORMATTING of
// the render paths without also pinning simulator output (the differential
// tests own that).
func goldenResults() *Results {
	configs := []core.HWInfo{
		{Cores: 1, Warps: 2, Threads: 2},
		{Cores: 4, Warps: 4, Threads: 4},
		{Cores: 16, Warps: 8, Threads: 16},
	}
	kernels := []string{"vecadd", "gcn_aggr"}
	mappers := []string{"lws=1", "lws=32", "ours"}
	res := &Results{}
	for ci, hw := range configs {
		for ki, k := range kernels {
			for mi, m := range mappers {
				// "ours" fastest, lws=1 slowest at high parallelism, lws=32
				// slowest at hp=4 — gives the crossover curve a sign change.
				base := uint64(10000 * (ki + 1))
				var cycles uint64
				switch mi {
				case 0:
					cycles = base + uint64(ci)*3000
				case 1:
					cycles = base + 4000 - uint64(ci)*1500
				default:
					cycles = base - 1000
				}
				rec := Record{
					Config:   hw,
					Kernel:   k,
					Mapper:   m,
					Sched:    "rr",
					MSHRs:    4,
					L1:       "16k4w",
					Prefetch: "off",
					LWS:      1 + mi*31,
					Cycles:   cycles,
					Instrs:   base / 10,
					MemStall: cycles / 4,
					EnergyPJ: float64(cycles) * 1.25,
				}
				rec.ExecStall = cycles / 8
				rec.Boundedness = core.Classify(rec.MemStall, rec.ExecStall, cycles*uint64(hw.Cores))
				res.Records = append(res.Records, rec)
			}
		}
	}
	// One failed record, to pin the err column and the render paths'
	// skip-on-error behaviour. The message carries a comma: error strings
	// often do, and the err column must survive the CSV round trip anyway.
	res.Records = append(res.Records, Record{
		Config: core.HWInfo{Cores: 2, Warps: 2, Threads: 2},
		Kernel: "vecadd", Mapper: "ours", Err: "simulated failure: bad dims, want 2",
	})
	return res
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s drifted from golden file (run with -update if intended):\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

func TestGoldenRenderTable(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResults().RenderTable(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_table.golden", buf.Bytes())
}

func TestGoldenEnergyTable(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResults().RenderEnergyTable(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "energy_table.golden", buf.Bytes())
}

func TestGoldenCrossover(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResults().RenderCrossover(&buf, "lws=32"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "crossover.golden", buf.Bytes())
}

func TestGoldenCSV(t *testing.T) {
	res := goldenResults()
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "records_csv.golden", buf.Bytes())

	// The golden CSV round-trips: ReadCSV restores every field of every
	// record (the golden energies are whole picojoules, which the %.0f
	// column holds exactly).
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(res.Records) {
		t.Fatalf("round trip: %d records, want %d", len(back.Records), len(res.Records))
	}
	for i := range res.Records {
		if a, b := res.Records[i], back.Records[i]; a != b {
			t.Errorf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

// goldenGridOpts is a campaign whose every grid axis is multi-valued, over
// the configs and kernels of goldenResults.
func goldenGridOpts() Options {
	return Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 4, Warps: 4, Threads: 4}, {Cores: 16, Warps: 8, Threads: 16}},
		Kernels: []string{"vecadd", "gcn_aggr"},
		Axes: map[string][]string{
			"sched":    {"rr", "gto"},
			"mshrs":    {"0", "4"},
			"l1":       {"16k4w", "8k2w"},
			"prefetch": {"off", "nextline"},
		},
		Scale: 0.05,
		Seed:  7,
	}
}

// TestGoldenCheckpoint freezes the v4 checkpoint bytes — meta header and
// record lines — of a multi-valued grid, and the canonical task-key order
// of that grid.
func TestGoldenCheckpoint(t *testing.T) {
	opts := goldenGridOpts()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := WriteCheckpoint(path, MetaFor(opts), goldenResults().Records); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint_v4.golden", got)

	grid, err := TaskGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	var keys bytes.Buffer
	for _, task := range grid {
		keys.WriteString(task.Key() + "\n")
	}
	checkGolden(t, "task_grid.golden", keys.Bytes())
}

func TestGoldenFigure2(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResults().RenderFigure2(&buf, stats.ViolinOptions{Rows: 9, HalfWidth: 8}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure2.golden", buf.Bytes())
}
