package sweep

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// oracleRow returns the fields of kernel's row in out, a RenderOracle
// table.
func oracleRow(t *testing.T, out, kernel string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == kernel {
			return f
		}
	}
	t.Fatalf("no %s row in:\n%s", kernel, out)
	return nil
}

// TestRenderOracleDefinitions pins the regret table's definitions on
// hand-made records: the fastest mapper per sample (a tie goes to the
// earlier mapper), ours ÷ fastest, the 5 % count, the search cost, the
// winners ranked by count with ties in mapper order, and the records that
// are not samples (a failed run, a point where ours did not run).
func TestRenderOracleDefinitions(t *testing.T) {
	mappers := []string{"lws=1", "lws=2", "lws=4", "ours"}
	var res Results
	for i, cycles := range [][]uint64{
		{100, 50, 50, 52}, // lws=2 (ties lws=4): ours 1.04, cost 252/50
		{100, 80, 40, 60}, // lws=4: ours 1.50, cost 280/40
		{10, 20, 40, 10},  // lws=1 (ties ours): ours 1.00, cost 80/10
		{1, 1, 1, 0},      // ours failed: no sample
	} {
		hw := core.HWInfo{Cores: i + 1, Warps: 2, Threads: 2}
		for j, m := range mappers {
			rec := Record{Config: hw, Kernel: "vecadd", Mapper: m, Sched: "rr", L1: "16k4w", Prefetch: "off", Cycles: cycles[j]}
			if cycles[j] == 0 {
				rec.Err = "simulated failure"
			}
			res.Records = append(res.Records, rec)
		}
	}
	res.Records = append(res.Records, Record{Config: core.HWInfo{Cores: 1, Warps: 2, Threads: 2},
		Kernel: "vecadd", Mapper: "lws=8", Err: "simulated failure"})
	var buf bytes.Buffer
	if err := res.RenderOracle(&buf); err != nil {
		t.Fatal(err)
	}
	// geomean (1.04 × 1.5 × 1)^(1/3) = 1.16; cost (5.04 × 7 × 8)^(1/3) = 6.6.
	want := "Eq. 1's regret: ours / fastest mapper at each (config, grid point)\n" +
		"kernel           samples  geomean  median     max  within 5%  search cost  most often fastest\n" +
		"vecadd                 3     1.16    1.04    1.50        2/3         6.6x  lws=1, lws=2\n" +
		"\n" +
		"ours is within 5% of the fastest mapper on 2 of 3 samples\n"
	if got := buf.String(); got != want {
		t.Errorf("RenderOracle:\n%s\nwant:\n%s", got, want)
	}
}

// TestOracleOnRealDevice runs the search at one point, vecadd on 1c2w4t
// with gws = 512 > hp = 8, and holds Eq. 1 within 15 % of the fastest
// candidate, at a fraction of the search's cost.
func TestOracleOnRealDevice(t *testing.T) {
	res, err := Run(Options{
		Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 4}},
		Kernels: []string{"vecadd"},
		Mappers: core.OracleMappers(),
		Scale:   0.125, // gws = 4096 × 0.125
		Verify:  true,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Records); n != 14 {
		t.Fatalf("%d records, want one per oracle mapper", n)
	}
	var buf bytes.Buffer
	if err := res.RenderOracle(&buf); err != nil {
		t.Fatal(err)
	}
	row := oracleRow(t, buf.String(), "vecadd")
	if row[1] != "1" {
		t.Fatalf("samples = %s, want 1:\n%s", row[1], buf.String())
	}
	if max, _ := strconv.ParseFloat(row[4], 64); max > 1.15 {
		t.Errorf("ours / fastest = %.2f, want <= 1.15:\n%s", max, buf.String())
	}
	if cost, _ := strconv.ParseFloat(strings.TrimSuffix(row[6], "x"), 64); cost < 3 {
		t.Errorf("search cost = %.1fx, want the search to cost several launches:\n%s", cost, buf.String())
	}
}

// TestOracleKeepsFigure2Table holds an oracle campaign's Figure 2 table to
// the paper campaign's on the same grid, byte for byte: the oracle's extra
// mappers add records, and change none of the three Figure 2 reads.
func TestOracleKeepsFigure2Table(t *testing.T) {
	tables := map[bool]string{}
	for _, oracle := range []bool{false, true} {
		opts := Options{
			Configs: []core.HWInfo{{Cores: 1, Warps: 2, Threads: 2}, {Cores: 2, Warps: 2, Threads: 4}},
			Kernels: []string{"vecadd", "gcn_aggr"},
			Scale:   0.05,
		}
		if oracle {
			opts.Mappers = core.OracleMappers()
		}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.RenderTable(&buf); err != nil {
			t.Fatal(err)
		}
		tables[oracle] = buf.String()
	}
	if tables[true] != tables[false] {
		t.Errorf("oracle campaign's Figure 2 table:\n%s\npaper campaign's:\n%s", tables[true], tables[false])
	}
}
