package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tuner"
)

// tuneCmd contrasts empirical autotuning, which the paper's runtime
// technique replaces, with Eq. 1: it searches a kernel's lws space on one
// device, optionally across device axes (-sched all, or comma-separated
// -mshrs/-l1/-prefetch), and reports Eq. 1's quality gap and the search
// overhead Eq. 1 avoids.
var tuneCmd = subcommand("tune", func(fs *flag.FlagSet) body {
	var sf simFlags
	sf.addDevice(fs, "2c4w8t", "saxpy")
	sf.addWorkload(fs, 0.5, "search axis (comma-separated): ")
	fs.Lookup("sched").Usage += ", or 'all'"
	strategy := fs.String("strategy", "exhaustive", "search strategy: exhaustive or hillclimb")
	return func(stdout, _ io.Writer) error {
		if s := sf.axes["sched"]; *s == "all" {
			var names []string
			for _, p := range sim.SchedPolicies() {
				names = append(names, p.String())
			}
			*s = strings.Join(names, ",")
		}
		if err := sf.check(); err != nil {
			return err
		}
		return tune(stdout, &sf, *strategy)
	}
})

func tune(out io.Writer, sf *simFlags, strategy string) error {
	spec, hw := sf.spec, sf.hw
	// The search axis is every grid point of the device axes, labelled by
	// its first axis value alone while the other axes are single points
	// (the default), and by every axis value otherwise.
	all := sweep.Points(sf.axisVals)
	first := sf.axisVals[sweep.Axes[0].Name]
	cfgByName := map[string]sim.Config{}
	var points []string
	for _, pt := range all {
		name := pt[0]
		if len(all) > len(first) {
			for i, a := range sweep.Axes[1:] {
				name += "/" + a.Name + "=" + pt[i+1]
			}
		}
		cfg, err := sweep.ApplyPoint(sf.cfg, pt)
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
	c0, err := spec.Build(probeDev, sf.params)
	if err != nil {
		return err
	}
	if len(c0.Launches) == 0 {
		return fmt.Errorf("kernel %s produced no launches", spec.Name)
	}
	gws := c0.Launches[0].GWS

	mkRunner := func(pointName string) tuner.Runner {
		cfg := cfgByName[pointName]
		return func(lws int) (uint64, error) {
			d, err := ocl.NewDevice(cfg)
			if err != nil {
				return 0, err
			}
			c, err := spec.Build(d, sf.params)
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
		spec.Name, gws, hw.Name(), hw.HP(), strategy, points)

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
