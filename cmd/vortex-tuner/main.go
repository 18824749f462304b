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
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
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
	axisFlags := sweep.RegisterAxisFlags(fs, "search axis (comma-separated): ")
	fs.Lookup("sched").Usage += ", or 'all'"
	seed := fs.Int64("seed", 42, "input seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := run(stdout, *cfgName, *kernel, *scale, *strategy, axisFlags, *seed); err != nil {
		fmt.Fprintln(stderr, "vortex-tuner:", err)
		return 1
	}
	return 0
}

func run(out io.Writer, cfgName, kernel string, scale float64, strategy string, axisFlags sweep.AxisFlags, seed int64) error {
	if err := kernels.CheckScale(scale); err != nil {
		return fmt.Errorf("-%w", err)
	}
	hw, err := core.ParseName(cfgName)
	if err != nil {
		return err
	}
	spec, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	if s := axisFlags["sched"]; *s == "all" {
		var names []string
		for _, p := range sim.SchedPolicies() {
			names = append(names, p.String())
		}
		*s = strings.Join(names, ",")
	}
	axes, err := axisFlags.Values()
	if err != nil {
		return err
	}

	// The search axis is every grid point of the device axes, labelled by
	// its first axis value alone while the other axes are single points
	// (the default), and by every axis value otherwise.
	all := sweep.Points(axes)
	first := axes[sweep.Axes[0].Name]
	cfgByName := map[string]sim.Config{}
	var points []string
	for _, pt := range all {
		name := pt[0]
		if len(all) > len(first) {
			for i, a := range sweep.Axes[1:] {
				name += "/" + a.Name + "=" + pt[i+1]
			}
		}
		cfg, err := sweep.ApplyPoint(sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads), pt)
		if err != nil {
			return err
		}
		cfgByName[name] = cfg
		points = append(points, name)
	}

	// Discover the gws from a throwaway build.
	probeDev, err := ocl.NewDevice(cfgByName[points[0]])
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
		cfg := cfgByName[pointName]
		return func(lws int) (uint64, error) {
			d, err := ocl.NewDevice(cfg)
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
