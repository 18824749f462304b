// Command vortex-tuner contrasts empirical autotuning (the
// hardware-agnostic approach the paper's runtime technique replaces) with
// the closed-form Eq. 1 decision: it searches the lws space of a kernel on
// a device — optionally widened to the warp-scheduler axis with -sched all
// and to the memory-side axes with comma-separated -mshrs/-l1/-prefetch —
// reports the probes, and quantifies both the quality gap and the search
// overhead that Eq. 1 avoids.
//
// Usage:
//
//	vortex-tuner [-config 2c4w8t] [-kernel saxpy] [-scale 0.5]
//	             [-strategy exhaustive|hillclimb]
//	             [-sched rr|gto|oldest|2lev|all]
//	             [-mshrs 0,4] [-l1 16k4w,32k8w] [-prefetch off,nextline]
//	             [-seed 42]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/tuner"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, runs the search and returns the process exit status:
// 0 on success, 1 on a failed run, 2 on a command-line error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vortex-tuner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgName := fs.String("config", "2c4w8t", "device configuration (paper notation)")
	kernel := fs.String("kernel", "saxpy", "kernel (registry name)")
	scale := fs.Float64("scale", 0.5, "workload scale")
	strategy := fs.String("strategy", "exhaustive", "search strategy: exhaustive or hillclimb")
	sched := fs.String("sched", "rr", "warp scheduler to tune under (rr, gto, oldest, 2lev), or 'all' to search the policy axis too")
	mshrsCSV := fs.String("mshrs", "0", "comma-separated MSHR bounds to search (outstanding misses per L1/L2 bank, 0 = unbounded)")
	l1CSV := fs.String("l1", mem.DefaultL1Geometry(), "comma-separated L1 geometries to search (<size-KiB>k<ways>w)")
	prefetchCSV := fs.String("prefetch", "off", "comma-separated L1 prefetch policies to search (off, nextline)")
	seed := fs.Int64("seed", 42, "input seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := run(stdout, *cfgName, *kernel, *scale, *strategy, *sched, *mshrsCSV, *l1CSV, *prefetchCSV, *seed); err != nil {
		fmt.Fprintln(stderr, "vortex-tuner:", err)
		return 1
	}
	return 0
}

// axisPoint is one cell of the tuner's device-axis search space: a warp
// scheduler plus the memory-side knobs. Its name doubles as the opaque axis
// label tuner.AcrossScheds searches over.
type axisPoint struct {
	sched          sim.SchedPolicy
	mshrs          int
	l1Size, l1Ways int
	prefetch       mem.PrefetchPolicy
}

func run(out io.Writer, cfgName, kernel string, scale float64, strategy, schedName, mshrsCSV, l1CSV, prefetchCSV string, seed int64) error {
	hw, err := core.ParseName(cfgName)
	if err != nil {
		return err
	}
	spec, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	baseCfg := func(pt axisPoint) sim.Config {
		cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
		cfg.Sched = pt.sched
		cfg.Mem.L1.MSHRs = pt.mshrs
		cfg.Mem.L2.MSHRs = pt.mshrs
		if pt.l1Size > 0 {
			cfg.Mem.L1.SizeBytes = pt.l1Size
			cfg.Mem.L1.Ways = pt.l1Ways
		}
		cfg.Mem.Prefetch = pt.prefetch
		return cfg
	}

	var schedPols []sim.SchedPolicy
	if schedName == "all" {
		schedPols = sim.SchedPolicies()
	} else {
		p, err := sim.ParseSchedPolicy(schedName)
		if err != nil {
			return err
		}
		schedPols = []sim.SchedPolicy{p}
	}
	var mshrsList []int
	for _, field := range strings.Split(mshrsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 0 {
			return fmt.Errorf("bad -mshrs entry %q (want a non-negative count, 0 = unbounded)", strings.TrimSpace(field))
		}
		mshrsList = append(mshrsList, n)
	}
	type geom struct {
		spec       string
		size, ways int
	}
	var l1List []geom
	for _, field := range strings.Split(l1CSV, ",") {
		spec := strings.TrimSpace(field)
		size, ways, err := mem.ParseL1Geometry(spec)
		if err != nil {
			return err
		}
		l1List = append(l1List, geom{spec: spec, size: size, ways: ways})
	}
	var pfList []mem.PrefetchPolicy
	for _, field := range strings.Split(prefetchCSV, ",") {
		p, err := mem.ParsePrefetchPolicy(strings.TrimSpace(field))
		if err != nil {
			return err
		}
		pfList = append(pfList, p)
	}

	// The search axis is the cross product of scheduler and memory points.
	// When the memory axes are single points (the default), labels stay the
	// bare scheduler names, preserving the sched-only output.
	memMulti := len(mshrsList)*len(l1List)*len(pfList) > 1
	pointByName := map[string]axisPoint{}
	var points []string
	for _, pol := range schedPols {
		for _, n := range mshrsList {
			for _, g := range l1List {
				for _, pf := range pfList {
					name := pol.String()
					if memMulti {
						name = fmt.Sprintf("%s/mshrs=%d/l1=%s/prefetch=%s", pol, n, g.spec, pf)
					}
					if _, dup := pointByName[name]; dup {
						return fmt.Errorf("duplicate search point %s: list each -sched/-mshrs/-l1/-prefetch value once", name)
					}
					pointByName[name] = axisPoint{sched: pol, mshrs: n, l1Size: g.size, l1Ways: g.ways, prefetch: pf}
					points = append(points, name)
				}
			}
		}
	}

	// Discover the gws from a throwaway build.
	probeDev, err := ocl.NewDevice(baseCfg(pointByName[points[0]]))
	if err != nil {
		return err
	}
	c0, err := spec.Build(probeDev, kernels.Params{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	if len(c0.Launches) == 0 {
		return fmt.Errorf("kernel %s produced no launches", kernel)
	}
	gws := c0.Launches[0].GWS

	mkRunner := func(pointName string) tuner.Runner {
		pt := pointByName[pointName]
		return func(lws int) (uint64, error) {
			d, err := ocl.NewDevice(baseCfg(pt))
			if err != nil {
				return 0, err
			}
			c, err := spec.Build(d, kernels.Params{Scale: scale, Seed: seed})
			if err != nil {
				return 0, err
			}
			res, err := c.RunVerified(d, lws)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		}
	}
	var search tuner.Strategy
	switch strategy {
	case "exhaustive":
		search = func(run tuner.Runner) (*tuner.Result, error) { return tuner.Exhaustive(run, gws, hw) }
	case "hillclimb":
		search = func(run tuner.Runner) (*tuner.Result, error) { return tuner.HillClimb(run, gws, hw) }
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}

	fmt.Fprintf(out, "tuning %s (gws=%d) on %s (hp=%d), strategy: %s, device points: %v\n\n",
		kernel, gws, hw.Name(), hw.HP(), strategy, points)

	probes, best, err := tuner.AcrossScheds(points, mkRunner, search)
	if err != nil {
		return err
	}
	for _, sp := range probes {
		res := sp.Res
		if len(probes) > 1 {
			fmt.Fprintf(out, "--- %s ---\n", sp.Sched)
		}
		fmt.Fprintf(out, "%-8s %s\n", "lws", "cycles")
		for _, p := range res.Probes {
			marker := ""
			if p.LWS == res.BestLWS {
				marker = "  <- best"
			}
			if p.LWS == res.Eq1LWS {
				marker += "  <- Eq. 1"
			}
			fmt.Fprintf(out, "%-8d %d%s\n", p.LWS, p.Cycles, marker)
		}
		fmt.Fprintf(out, "\nsearched best: lws=%d (%d cycles) after %d probes\n",
			res.BestLWS, res.BestCycles, len(res.Probes))
		fmt.Fprintf(out, "Eq. 1 answer:  lws=%d (%d cycles), %.3fx of the searched best — no probes needed\n",
			res.Eq1LWS, res.Eq1Cycles, res.Eq1Gap())
		fmt.Fprintf(out, "search overhead: %.1fx the cost of one optimal launch\n\n", res.Overhead())
	}
	if len(probes) > 1 {
		bp := probes[best]
		fmt.Fprintf(out, "device-axis best: %s lws=%d (%d cycles); Eq. 1 under the same point: %.3fx of it\n",
			bp.Sched, bp.Res.BestLWS, bp.Res.BestCycles, bp.Res.Eq1Gap())
	}
	return nil
}
