// Command vortex-trace regenerates the paper's Figure 1: execution traces
// of a kernel under several local work sizes on one device configuration,
// showing per-warp instruction wavefronts tagged with semantic sections,
// plus the PC / thread-mask issue table.
//
// Usage:
//
//	vortex-trace [-config 1c2w4t] [-kernel vecadd] [-gws 128]
//	             [-lws 1,16,32,64] [-width 100] [-table N]
//	             [-csv dir] [-jsonl dir]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, renders the traces and returns the process exit status:
// 0 on success, 1 on a failed run, 2 on a command-line error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vortex-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgName := fs.String("config", "1c2w4t", "device configuration (paper notation)")
	kernel := fs.String("kernel", "vecadd", "kernel to trace (registry name)")
	gws := fs.Int("gws", 128, "global work size (vecadd length in Figure 1)")
	lwsList := fs.String("lws", "1,16,32,64", "comma-separated lws values to trace")
	width := fs.Int("width", 100, "waveform width in columns")
	tableRows := fs.Int("table", 0, "also print the first N issue-table rows (0 = none)")
	csvDir := fs.String("csv", "", "write per-lws CSV traces into this directory")
	jsonlDir := fs.String("jsonl", "", "write per-lws JSONL traces into this directory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := run(stdout, *cfgName, *kernel, *gws, *lwsList, *width, *tableRows, *csvDir, *jsonlDir); err != nil {
		fmt.Fprintln(stderr, "vortex-trace:", err)
		return 1
	}
	return 0
}

func run(out io.Writer, cfgName, kernel string, gws int, lwsList string, width, tableRows int, csvDir, jsonlDir string) error {
	hw, err := core.ParseName(cfgName)
	if err != nil {
		return err
	}
	var lwss []int
	for _, f := range strings.Split(lwsList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 {
			return fmt.Errorf("bad lws %q", f)
		}
		lwss = append(lwss, v)
	}

	fmt.Fprintf(out, "Figure 1 reproduction: %s traces of %s (gws=%d) on %s (hp=%d)\n",
		kernel, kernel, gws, hw.Name(), hw.HP())
	fmt.Fprintf(out, "Eq. 1 optimal lws = %d\n\n", core.OptimalLWS(gws, hw))

	for _, lws := range lwss {
		d, err := ocl.NewDevice(sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads))
		if err != nil {
			return err
		}
		col := d.EnableTracing()
		c, err := buildScaledKernel(d, kernel, gws)
		if err != nil {
			return err
		}
		res, err := c.RunVerified(d, lws)
		if err != nil {
			return fmt.Errorf("lws=%d: %w", lws, err)
		}
		lr := res.Launches[0]
		fmt.Fprintf(out, "--- lws=%d: %d cycles (%d sim + %d dispatch), tasks=%d, batches=%d, regime: %s, warps activated: %d\n",
			lr.LWS, lr.Cycles, lr.SimCycles, lr.Cycles-lr.SimCycles, lr.Tasks, lr.Batches, lr.Regime, lr.WarpsActivated)
		if err := col.RenderWaveform(out, trace.RenderOptions{Width: width, ShowMask: true}); err != nil {
			return err
		}
		sum := col.Summarize()
		fmt.Fprintf(out, "issues: %d, mean active lanes: %.2f, per section: %v\n\n",
			sum.Issues, sum.MeanLanes, sum.PerTag)
		if tableRows > 0 {
			if err := col.RenderIssueTable(out, tableRows); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if csvDir != "" {
			if err := writeTo(out, filepath.Join(csvDir, fmt.Sprintf("trace_lws%d.csv", lws)), col.WriteCSV); err != nil {
				return err
			}
		}
		if jsonlDir != "" {
			if err := writeTo(out, filepath.Join(jsonlDir, fmt.Sprintf("trace_lws%d.jsonl", lws)), col.WriteJSONL); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildScaledKernel builds the named registry kernel sized to exactly gws
// work items where the kernel's geometry allows it (the 1-D kernels);
// others use their registry default size.
func buildScaledKernel(d *ocl.Device, name string, gws int) (*kernels.Case, error) {
	switch name {
	case "vecadd":
		return kernels.BuildVecadd(d, gws, 42)
	case "relu":
		return kernels.BuildRelu(d, gws, 42)
	case "saxpy":
		return kernels.BuildSaxpy(d, gws, 42)
	case "knn":
		return kernels.BuildKNN(d, gws, 42)
	}
	spec, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(d, kernels.Params{Scale: 1, Seed: 42})
}

func writeTo(out io.Writer, path string, fn func(w io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fn(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
