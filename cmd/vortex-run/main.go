// Command vortex-run executes one benchmark kernel on one device
// configuration and prints the full launch report: the Eq. 1 advice, the
// chosen lws and regime, cycle counts, pipeline and cache statistics, and
// the boundedness classification.
//
// Usage:
//
//	vortex-run [-config 4c8w16t] [-kernel sgemm] [-lws 0] [-scale 1.0]
//	           [-mapper ours|lws=1|lws=32] [-sched rr|gto|oldest|2lev]
//	           [-mshrs 0] [-l1 16k4w] [-prefetch off|nextline]
//	           [-seed 42] [-compare] [-cache-stats] [-cpuprofile cpu.prof]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, runs the launch and returns the process exit status:
// 0 on success, 1 on a failed run, 2 on a command-line error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vortex-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgName := fs.String("config", "4c8w16t", "device configuration (paper notation)")
	kernel := fs.String("kernel", "vecadd", "kernel (registry name)")
	lws := fs.Int("lws", 0, "local work size (0 = use the mapper)")
	mapper := fs.String("mapper", "ours", "auto mapper when lws=0: ours, lws=1 or lws=32")
	scale := fs.Float64("scale", 1.0, "workload scale (1.0 = paper size)")
	seed := fs.Int64("seed", 42, "input seed")
	compare := fs.Bool("compare", false, "run all three mappings and print the ratio table")
	axes := sweep.RegisterAxisFlags(fs, "")
	cacheStats := fs.Bool("cache-stats", false, "print the campaign-engine cache counters (program cache, input memo) after the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vortex-run:", err)
		return 1
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	point, err := axes.Point()
	if err != nil {
		return fail(err)
	}
	if err := run(stdout, *cfgName, *kernel, *lws, *mapper, *scale, *seed, *compare, point); err != nil {
		return fail(err)
	}
	if *cacheStats {
		prog := ocl.ProgramCacheStats()
		inp := kernels.InputCacheStats()
		fmt.Fprintf(stdout, "\ncampaign caches: programs %d hit / %d built; inputs %d hit / %d built\n",
			prog.Hits, prog.Misses, inp.Hits, inp.Misses)
	}
	return 0
}

func mapperByName(name string) (core.Mapper, error) {
	switch name {
	case "ours", "auto":
		return core.Auto{}, nil
	case "lws=1", "naive":
		return core.Naive{}, nil
	case "lws=32", "fixed":
		return core.Fixed{N: 32}, nil
	}
	return nil, fmt.Errorf("unknown mapper %q", name)
}

// run builds every device at the grid point (one value per sweep.Axes
// entry) the axis flags name.
func run(out io.Writer, cfgName, kernel string, lws int, mapperName string, scale float64, seed int64, compare bool, point []string) error {
	hw, err := core.ParseName(cfgName)
	if err != nil {
		return err
	}
	spec, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	cfg, err := sweep.ApplyPoint(sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads), point)
	if err != nil {
		return err
	}
	if compare {
		return runCompare(out, hw, spec, scale, seed, cfg, point)
	}
	m, err := mapperByName(mapperName)
	if err != nil {
		return err
	}

	d, err := ocl.NewDevice(cfg)
	if err != nil {
		return err
	}
	d.SetMapper(m)
	c, err := spec.Build(d, kernels.Params{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "kernel %s (%s, paper size: %s) on %s: %d work items over %d launches\n",
		spec.Name, spec.Group, spec.PaperSize, hw.Name(), c.WorkItems, len(c.Launches))
	for _, l := range c.Launches {
		a := core.Advise(l.GWS, hw)
		fmt.Fprintf(out, "  advice for gws=%d: %s\n", l.GWS, a.Explanation)
	}
	res, err := c.RunVerified(d, lws)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nverified OK; total %d cycles\n", res.Cycles)
	for i, lr := range res.Launches {
		fmt.Fprintf(out, "\nlaunch %d (%s):\n", i, lr.Kernel)
		fmt.Fprintf(out, "  gws=%d lws=%d tasks=%d batches=%d regime=%s warps=%d\n",
			lr.GWS, lr.LWS, lr.Tasks, lr.Batches, lr.Regime, lr.WarpsActivated)
		fmt.Fprintf(out, "  cycles=%d (sim %d + dispatch %d)\n", lr.Cycles, lr.SimCycles, lr.Cycles-lr.SimCycles)
		fmt.Fprintf(out, "  instrs=%d lane-ops=%d loads=%d stores=%d line-reqs=%d\n",
			lr.Stats.Issued, lr.Stats.LaneOps, lr.Stats.Loads, lr.Stats.Stores, lr.Stats.LineRequests)
		fmt.Fprintf(out, "  stalls: mem=%d exec=%d -> %s\n", lr.Stats.MemStall, lr.Stats.ExecStall, lr.Boundedness)
		fmt.Fprintf(out, "  L1: %d accesses, %.1f%% hits; L2: %d accesses, %.1f%% hits; DRAM: %d line reads, %d writebacks\n",
			lr.L1.Accesses, lr.L1.HitRate()*100, lr.L2.Accesses, lr.L2.HitRate()*100,
			lr.DRAM.LineReads, lr.DRAM.Writebacks)
		if lr.L1.PrefetchIssued > 0 || lr.L1.PrefetchHits > 0 {
			fmt.Fprintf(out, "  L1 prefetch: %d issued, %d hits\n", lr.L1.PrefetchIssued, lr.L1.PrefetchHits)
		}
	}
	return nil
}

func runCompare(out io.Writer, hw core.HWInfo, spec kernels.Spec, scale float64, seed int64, cfg sim.Config, point []string) error {
	desc := []string{fmt.Sprintf("hp=%d", hw.HP())}
	for i, a := range sweep.Axes {
		desc = append(desc, a.Name+"="+point[i])
	}
	fmt.Fprintf(out, "kernel %s on %s (%s): comparing mappings\n\n", spec.Name, hw.Name(), strings.Join(desc, ", "))
	type row struct {
		name   string
		mapper core.Mapper
		cycles uint64
		lws    int
	}
	rows := []row{
		{name: "lws=1", mapper: core.Naive{}},
		{name: "lws=32", mapper: core.Fixed{N: 32}},
		{name: "ours", mapper: core.Auto{}},
	}
	// One pooled device serves all three mappings: Reset between runs is
	// byte-identical to building a fresh device and skips the reallocation.
	pool := ocl.NewDevicePool(1)
	for i := range rows {
		d, err := pool.Get(cfg)
		if err != nil {
			return err
		}
		d.SetMapper(rows[i].mapper)
		c, err := spec.Build(d, kernels.Params{Scale: scale, Seed: seed})
		if err != nil {
			return err
		}
		res, err := c.RunVerified(d, 0)
		if err != nil {
			return err
		}
		if len(res.Launches) == 0 {
			return fmt.Errorf("kernel %s completed without launches", spec.Name)
		}
		rows[i].cycles = res.Cycles
		rows[i].lws = res.Launches[0].LWS
		pool.Put(d)
	}
	ours := rows[2].cycles
	fmt.Fprintf(out, "%-8s %-6s %-12s %s\n", "mapping", "lws", "cycles", "ratio vs ours")
	for _, r := range rows {
		fmt.Fprintf(out, "%-8s %-6d %-12d %.3f\n", r.name, r.lws, r.cycles, float64(r.cycles)/float64(ours))
	}
	return nil
}
