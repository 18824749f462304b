package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sweep"
)

// runCmd executes one benchmark kernel on one device configuration, at the
// grid point the axis flags name, and prints the full launch report: the
// Eq. 1 advice, the chosen lws and regime, cycle counts, and pipeline and
// cache statistics.
var runCmd = subcommand("run", false, func(fs *flag.FlagSet) body {
	var sf simFlags
	sf.addDevice(fs, "4c8w16t", "vecadd")
	sf.addWorkload(fs, 1.0, "")
	lws := fs.Int("lws", 0, "local work size (0 = use the mapper)")
	mapper := fs.String("mapper", "ours", "auto mapper when lws=0: ours, lws=1 or lws=32")
	compare := fs.Bool("compare", false, "run all three mappings and print the ratio table")
	cacheStats := fs.Bool("cache-stats", false, "print the campaign-engine cache counters (program cache, case memo) after the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	return func(stdout, _ io.Writer) error {
		if *lws < 0 {
			return usageError(fmt.Sprintf("-lws %d: the local work size must be positive, or 0 for the mapper", *lws))
		}
		m, err := core.ParseMapper(*mapper)
		if err != nil {
			return usageError(err.Error())
		}
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
		if err := sf.check(); err != nil {
			return err
		}
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "lws" || f.Name == "mapper" {
				clash = append(clash, "-"+f.Name)
			}
		})
		switch {
		case *compare && len(clash) > 0:
			return usageError(fmt.Sprintf("-compare runs the paper's three mappings and cannot be combined with %s", strings.Join(clash, ", ")))
		case *compare:
			err = runCompare(stdout, &sf)
		case *lws != 0 && slices.Contains(clash, "-mapper"):
			return usageError(fmt.Sprintf("-lws %d fixes the local work size and cannot be combined with -mapper", *lws))
		default:
			err = run(stdout, &sf, *lws, m)
		}
		if err != nil {
			return err
		}
		if *cacheStats {
			prog, inp := ocl.ProgramCacheStats(), kernels.InputCacheStats()
			fmt.Fprintf(stdout, "\ncampaign caches: programs %d hit / %d built; cases %d hit / %d built\n",
				prog.Hits, prog.Misses, inp.Hits, inp.Misses)
		}
		return nil
	}
})

func run(out io.Writer, sf *simFlags, lws int, m core.Mapper) error {
	d, err := ocl.NewDevice(sf.cfg)
	if err != nil {
		return err
	}
	d.SetMapper(m)
	spec, hw := sf.spec, sf.hw
	c, err := spec.Build(d, sf.params)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "kernel %s (%s, paper size: %s) on %s: %d work items over %d launches\n",
		spec.Name, spec.Group, spec.PaperSize, hw.Name(), c.WorkItems, len(c.Launches))
	for _, l := range c.Launches {
		fmt.Fprintf(out, "  advice for gws=%d: %s\n", l.GWS, core.Advise(l.GWS, hw).Explanation)
	}
	var res kernels.Result
	if err := c.RunVerified(d, lws, &res); err != nil {
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
		fmt.Fprintf(out, "  stalls: mem=%d exec=%d\n", lr.Stats.MemStall, lr.Stats.ExecStall)
		fmt.Fprintf(out, "  L1: %d accesses, %.1f%% hits; L2: %d accesses, %.1f%% hits; DRAM: %d line reads, %d writebacks\n",
			lr.L1.Accesses, lr.L1.HitRate()*100, lr.L2.Accesses, lr.L2.HitRate()*100,
			lr.DRAM.LineReads, lr.DRAM.Writebacks)
		if lr.L1.PrefetchIssued > 0 || lr.L1.PrefetchHits > 0 {
			fmt.Fprintf(out, "  L1 prefetch: %d issued, %d hits\n", lr.L1.PrefetchIssued, lr.L1.PrefetchHits)
		}
	}
	return nil
}

// runCompare runs the paper's three mappings as a one-point campaign — the
// run's device and kernel at its grid point, every output verified — and
// prints each one's cycles as a ratio to Eq. 1's, so the table reads the
// same cycles vortex sweep records for that cell.
func runCompare(out io.Writer, sf *simFlags) error {
	spec, hw := sf.spec, sf.hw
	desc := []string{fmt.Sprintf("hp=%d", hw.HP())}
	axes := make(map[string][]string, len(sweep.Axes))
	for i, a := range sweep.Axes {
		desc = append(desc, a.Name+"="+sf.point[i])
		axes[a.Name] = sf.point[i : i+1]
	}
	fmt.Fprintf(out, "kernel %s on %s (%s): comparing mappings\n\n", spec.Name, hw.Name(), strings.Join(desc, ", "))
	res, err := sweep.Run(sweep.Options{
		Configs: []core.HWInfo{hw},
		Kernels: []string{spec.Name},
		Mappers: core.PaperMappers(),
		Axes:    axes,
		Scale:   sf.params.Scale,
		Seed:    sf.params.Seed,
		Verify:  true,
		Workers: 1,
	})
	if err != nil {
		return err
	}
	ours := res.Records[len(res.Records)-1].Cycles // PaperMappers lists Eq. 1 last
	fmt.Fprintf(out, "%-8s %-6s %-12s %s\n", "mapping", "lws", "cycles", "ratio vs ours")
	for _, rec := range res.Records {
		fmt.Fprintf(out, "%-8s %-6d %-12d %.3f\n", rec.Mapper, rec.LWS, rec.Cycles, float64(rec.Cycles)/float64(ours))
	}
	return nil
}
