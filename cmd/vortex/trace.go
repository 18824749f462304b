package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/trace"
)

// traceCmd regenerates the paper's Figure 1: execution traces of a kernel
// under several local work sizes on one device configuration, showing
// per-warp instruction wavefronts tagged with semantic sections, plus the
// PC / thread-mask issue table.
var traceCmd = subcommand("trace", false, func(fs *flag.FlagSet) body {
	var sf simFlags
	sf.addDevice(fs, "1c2w4t", "vecadd")
	gws := fs.Int("gws", 128, "global work size (vecadd length in Figure 1)")
	lwsList := fs.String("lws", "1,16,32,64", "comma-separated lws values to trace")
	width := fs.Int("width", 100, "waveform width in columns")
	tableRows := fs.Int("table", 0, "also print the first N issue-table rows (0 = none)")
	csvDir := fs.String("csv", "", "write per-lws CSV traces into this directory")
	jsonlDir := fs.String("jsonl", "", "write per-lws JSONL traces into this directory")
	return func(stdout, _ io.Writer) error {
		var lwss []int
		for _, f := range strings.Split(*lwsList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 0 {
				return usageError(fmt.Sprintf("-lws %q: want comma-separated local work sizes, each positive or 0 for the mapper", *lwsList))
			}
			lwss = append(lwss, v)
		}
		switch {
		case *gws < 1:
			return usageError(fmt.Sprintf("-gws %d: want a positive work size", *gws))
		case *width < 0:
			return usageError(fmt.Sprintf("-width %d: want a positive column count, or 0 for 100", *width))
		case *tableRows < 0:
			return usageError(fmt.Sprintf("-table %d: want a row count, or 0 for none", *tableRows))
		}
		if err := sf.check(); err != nil {
			return err
		}
		if _, sized := sizedBuilders[sf.spec.Name]; !sized {
			var explicit bool
			fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "gws" })
			if explicit {
				return usageError(fmt.Sprintf("-gws sizes only vecadd, relu, saxpy and knn; %s runs at its registry size", sf.spec.Name))
			}
		}
		return traceRuns(stdout, &sf, *gws, lwss, *width, *tableRows, *csvDir, *jsonlDir)
	}
})

func traceRuns(out io.Writer, sf *simFlags, gws int, lwss []int, width, tableRows int, csvDir, jsonlDir string) error {
	kernel, hw := sf.spec.Name, sf.hw
	for i, lws := range lwss {
		d, err := ocl.NewDevice(sf.cfg)
		if err != nil {
			return err
		}
		col := d.EnableTracing()
		c, err := buildScaledKernel(d, sf.spec, gws)
		if err != nil {
			return err
		}
		if i == 0 {
			// The header names the work size the first launch runs, which
			// is -gws only for the kernels sizedBuilders can size.
			g := c.Launches[0].GWS
			fmt.Fprintf(out, "Figure 1 reproduction: %s traces of %s (gws=%d) on %s (hp=%d)\n",
				kernel, kernel, g, hw.Name(), hw.HP())
			fmt.Fprintf(out, "Eq. 1 optimal lws = %d\n\n", core.OptimalLWS(g, hw))
		}
		var res kernels.Result
		if err := c.RunVerified(d, lws, &res); err != nil {
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
		for _, dump := range []struct {
			dir, ext string
			write    func(io.Writer) error
		}{{csvDir, "csv", col.WriteCSV}, {jsonlDir, "jsonl", col.WriteJSONL}} {
			if dump.dir == "" {
				continue
			}
			path := filepath.Join(dump.dir, fmt.Sprintf("trace_lws%d.%s", lws, dump.ext))
			if err := writeFile(path, dump.write); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return nil
}

// sizedBuilders builds the 1-D kernels at an exact work size.
var sizedBuilders = map[string]func(d *ocl.Device, n int, seed int64) (*kernels.Case, error){
	"vecadd": kernels.BuildVecadd, "relu": kernels.BuildRelu, "saxpy": kernels.BuildSaxpy, "knn": kernels.BuildKNN,
}

// buildScaledKernel builds the registry kernel sized to exactly gws work
// items where the kernel's geometry allows it (the 1-D kernels); others
// use their registry default size, and the trace command refuses an
// explicit -gws for them.
func buildScaledKernel(d *ocl.Device, spec kernels.Spec, gws int) (*kernels.Case, error) {
	if build, ok := sizedBuilders[spec.Name]; ok {
		return build(d, gws, 42)
	}
	return spec.Build(d, kernels.Params{Scale: 1, Seed: 42})
}
