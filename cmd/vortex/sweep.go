package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// sweepCmd regenerates the paper's Figure 2: the three lws mappings (lws=1,
// lws=32, ours) for every benchmark kernel across the 450-configuration
// grid, as ratio violins, per-kernel tables and the Section 3 aggregate
// speedups; -scale and -configs trade fidelity for time. -oracle runs the
// empirical lws search (core.OracleMappers) instead and adds Eq. 1's regret
// table. -checkpoint streams each record to a JSONL file that -resume
// continues from; -shard i/N runs every N-th task, and merge recombines the
// shards' checkpoints. Every path gives records byte-identical to one
// uninterrupted single-process run.
func sweepCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "merge" {
		return mergeCmd(args[1:], stdout, stderr)
	}
	return campaignCmd(args, stdout, stderr)
}

// campaignFlags is the campaign's flag set: what fixes the records' bytes,
// and -workers, which does not.
type campaignFlags struct {
	sim       simFlags
	nConfigs  *int
	kernelCSV *string
	gridCSV   *string
	verify    *bool
	oracle    *bool
	workers   *int
}

func addCampaignFlags(fs *flag.FlagSet) *campaignFlags {
	cf := &campaignFlags{
		nConfigs:  fs.Int("configs", 450, "number of grid configurations (subsampled deterministically)"),
		kernelCSV: fs.String("kernels", "all", "comma-separated kernels or 'all'"),
		gridCSV:   fs.String("grid", "", "explicit comma-separated config names (e.g. 1c2w2t,4c4w4t); overrides -configs"),
		verify:    fs.Bool("verify", false, "verify device output against CPU references on every run"),
		oracle:    fs.Bool("oracle", false, "run every lws = 2^0 … 2^12 and ours instead of Figure 2's three mappings, and report Eq. 1's regret"),
		workers:   fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)"),
	}
	cf.sim.addWorkload(fs, 1.0, "grid axis (comma-separated): ")
	return cf
}

// options validates the campaign flags and assembles sweep.Options. It
// refuses, as usage errors, numeric nonsense that Subsample (-configs 0
// would run the full grid), the workload builders (-scale 0, NaN) or
// sweep.Options (-workers -3 would run at GOMAXPROCS) would misread, a
// configuration name core.ParseName refuses, and a kernel name the
// registry lacks, which sweep.Run would find only task by task.
func (cf *campaignFlags) options() (sweep.Options, error) {
	var opts sweep.Options
	if err := cf.sim.check(); err != nil {
		return opts, err
	}
	if *cf.nConfigs < 1 {
		return opts, usageError(fmt.Sprintf("-configs must be >= 1 (got %d)", *cf.nConfigs))
	}
	if *cf.workers < 0 {
		return opts, usageError(fmt.Sprintf("-workers must be >= 0 (got %d)", *cf.workers))
	}
	names := kernels.Names()
	if *cf.kernelCSV != "all" && *cf.kernelCSV != "" {
		names = nil
		for _, f := range strings.Split(*cf.kernelCSV, ",") {
			name := strings.TrimSpace(f)
			if _, err := kernels.ByName(name); err != nil {
				return opts, usageError(err.Error())
			}
			names = append(names, name)
		}
	}
	configs := sweep.Subsample(sweep.Grid(), *cf.nConfigs)
	if *cf.gridCSV != "" {
		configs = nil
		for _, name := range strings.Split(*cf.gridCSV, ",") {
			hw, err := core.ParseName(strings.TrimSpace(name))
			if err != nil {
				return opts, usageError(err.Error())
			}
			configs = append(configs, hw)
		}
	}
	mappers := core.PaperMappers()
	if *cf.oracle {
		mappers = core.OracleMappers()
	}
	return sweep.Options{
		Configs: configs,
		Kernels: names,
		Mappers: mappers,
		Axes:    cf.sim.axisVals,
		Scale:   *cf.sim.scale,
		Seed:    *cf.sim.seed,
		Verify:  *cf.verify,
		Workers: *cf.workers,
	}, nil
}

// campaignCmd is the classic single-process mode (plus -shard striding).
var campaignCmd = subcommand("sweep", false, func(fs *flag.FlagSet) body {
	cf := addCampaignFlags(fs)
	violins := fs.Bool("violins", false, "render ASCII violin plots (Figure 2)")
	csvPath := fs.String("csv", "", "write the raw per-run records to this CSV file")
	progress := fs.Bool("progress", false, "print progress to stderr")
	checkpoint := fs.String("checkpoint", "", "stream each completed record to this JSONL file (crash-safe campaign state)")
	resume := fs.Bool("resume", false, "skip runs already recorded in -checkpoint (requires -checkpoint)")
	replot := fs.String("replot", "", "re-render tables/violins from a previously written CSV instead of simulating")
	shard := fs.String("shard", "", "run only shard i/N of the campaign grid (e.g. 0/3); recombine with the merge subcommand")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of a completed campaign to this file (go tool pprof format)")
	return func(stdout, stderr io.Writer) error {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()

		if *replot != "" {
			// -replot re-renders an existing CSV and never simulates;
			// refuse every flag that only means something for a simulating
			// campaign instead of ignoring the user's intent.
			var clash []string
			fs.Visit(func(f *flag.Flag) {
				if f.Name != "replot" && f.Name != "violins" && f.Name != "cpuprofile" {
					clash = append(clash, "-"+f.Name)
				}
			})
			if len(clash) > 0 {
				return usageError(fmt.Sprintf("-replot re-renders an existing CSV without simulating and cannot be combined with %s", strings.Join(clash, ", ")))
			}
			f, err := os.Open(*replot)
			if err != nil {
				return err
			}
			defer f.Close()
			res, err := sweep.ReadCSV(f)
			if err != nil {
				return err
			}
			return render(stdout, res, *violins)
		}

		if *resume && *checkpoint == "" {
			return usageError("-resume requires -checkpoint")
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		if *shard != "" {
			// Only the canonical spelling i/N, as for configuration names.
			i, n := &opts.ShardIndex, &opts.ShardCount
			if _, err := fmt.Sscanf(*shard, "%d/%d", i, n); err != nil || fmt.Sprintf("%d/%d", *i, *n) != *shard || *n < 1 || *i < 0 || *i >= *n {
				return usageError(fmt.Sprintf("bad -shard %q (want i/N with 0 <= i < N, e.g. 0/3)", *shard))
			}
		}
		opts.Checkpoint = *checkpoint
		opts.Resume = *resume
		if *progress {
			opts.Progress = progressTo(stderr)
		}

		res, err := sweep.Run(opts)
		if res == nil {
			// Results come back only once tasks ran: a refusal before any
			// (a foreign -resume, say) has no campaign to announce and no
			// runs to continue.
			return err
		}
		shardNote := ""
		if opts.ShardCount > 1 {
			shardNote = fmt.Sprintf(", shard %d/%d", opts.ShardIndex, opts.ShardCount)
		}
		axisNote := ""
		if points := sweep.Points(opts.Axes); len(points) > 1 {
			var swept []string
			for _, a := range sweep.Axes {
				if vs := opts.Axes[a.Name]; len(vs) > 1 {
					swept = append(swept, a.Name+"="+strings.Join(vs, ","))
				}
			}
			axisNote = fmt.Sprintf(" x %d grid points (%s)", len(points), strings.Join(swept, " "))
		}
		fmt.Fprintf(stdout, "Figure 2 reproduction: %d configs x %d kernels x %d mappings%s, scale=%.2f, seed=%d%s\n\n",
			len(opts.Configs), len(opts.Kernels), len(opts.Mappers), axisNote, opts.Scale, opts.Seed, shardNote)
		if err != nil {
			if *checkpoint != "" {
				err = fmt.Errorf("%v\nvortex sweep: completed runs are preserved in %s; restart with -resume to continue", err, *checkpoint)
			}
			return err
		}
		fmt.Fprintf(stdout, "campaign caches: %s\n\n", res.Cache)
		if err := render(stdout, res, *violins); err != nil {
			return err
		}
		return writeCSV(stdout, res, *csvPath)
	}
})

// mergeCmd recombines completed shard checkpoints into single-process
// results, optionally writing a merged checkpoint and CSV, and renders the
// same report the single-process run would print.
var mergeCmd = subcommand("sweep merge", true, func(fs *flag.FlagSet) body {
	out := fs.String("out", "", "write the merged campaign as a single unsharded checkpoint JSONL")
	csvPath := fs.String("csv", "", "write the merged per-run records to this CSV file")
	violins := fs.Bool("violins", false, "render ASCII violin plots (Figure 2)")
	crossover := fs.String("crossover", "", "also render per-hp crossover curves against this baseline mapper (e.g. lws=32)")
	const usage = "usage: vortex sweep merge [-out merged.jsonl] [-csv out.csv] [-violins] [-crossover lws=32] shard0.jsonl shard1.jsonl ..."
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usage)
		fs.PrintDefaults()
	}
	return func(stdout, _ io.Writer) error {
		if fs.NArg() == 0 {
			return usageError(usage)
		}
		res, err := sweep.Merge(*out, fs.Args())
		if err != nil {
			return err
		}
		if *out != "" {
			fmt.Fprintf(stdout, "merged %d shards into %s (%d records)\n\n", fs.NArg(), *out, len(res.Records))
		}
		if err := render(stdout, res, *violins); err != nil {
			return err
		}
		if *crossover != "" {
			fmt.Fprintln(stdout)
			if err := res.RenderCrossover(stdout, *crossover); err != nil {
				return err
			}
		}
		return writeCSV(stdout, res, *csvPath)
	}
})

// progressTo returns an Options.Progress that redraws one line of w every
// 25 completed tasks and at the end.
func progressTo(w io.Writer) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		if done%25 == 0 || done == total {
			fmt.Fprintf(w, "\r%d/%d runs (%.0fs elapsed)", done, total, time.Since(start).Seconds())
			if done == total {
				fmt.Fprintln(w)
			}
		}
	}
}

// render writes the Figure 2 table, or the violins, and after it Eq. 1's
// regret table when the records carry a mapper Figure 2 does not run.
func render(out io.Writer, res *sweep.Results, violins bool) error {
	var err error
	if violins {
		err = res.RenderFigure2(out, stats.ViolinOptions{Rows: 17, HalfWidth: 16})
	} else {
		err = res.RenderTable(out)
	}
	if err != nil || !searched(res) {
		return err
	}
	fmt.Fprintln(out)
	return res.RenderOracle(out)
}

// searched reports whether res's records carry a mapper outside Figure 2's.
func searched(res *sweep.Results) bool {
	for _, name := range res.Mappers() {
		if !slices.ContainsFunc(core.PaperMappers(), func(m core.Mapper) bool { return m.Name() == name }) {
			return true
		}
	}
	return false
}

// writeCSV writes res's records as CSV to path; an empty path writes none.
func writeCSV(out io.Writer, res *sweep.Results, path string) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, res.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s (%d records)\n", path, len(res.Records))
	return nil
}
