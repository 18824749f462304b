package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/sweep/service"
)

// sweepCmd regenerates the paper's Figure 2: the three lws mappings (lws=1,
// lws=32, ours) for every benchmark kernel across the 450-configuration
// grid, as ratio violins, per-kernel tables and the Section 3 aggregate
// speedups; -scale and -configs trade fidelity for time. -oracle runs the
// empirical lws search (core.OracleMappers) instead and adds Eq. 1's regret
// table. -checkpoint streams each record to a JSONL file that -resume
// continues from; -shard i/N runs every N-th task, and merge recombines the
// shards' checkpoints. serve and work replace static shards with leases
// over HTTP: serve owns the grid and the checkpoint, and work runs leased
// tasks for it. Every path gives records byte-identical to one
// uninterrupted single-process run.
func sweepCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && sweepModes[args[0]] != nil {
		return sweepModes[args[0]](args[1:], stdout, stderr)
	}
	return campaignCmd(args, stdout, stderr)
}

// sweepModes are sweep's own subcommands; without one, sweep runs a campaign.
var sweepModes = map[string]func(args []string, stdout, stderr io.Writer) int{
	"merge": mergeCmd, "serve": serveCmd, "work": workCmd,
}

// campaignFlags is the flag set of every simulating mode (the campaign,
// serve and work): what fixes the records' bytes, which serve and work must
// agree on, and the worker-local -workers, which never crosses the wire.
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
// refuses numeric nonsense that Subsample (-configs 0 would run the full
// grid), the workload builders (-scale 0, NaN) or sweep.Options (-workers
// -3 would run at GOMAXPROCS) would misread.
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
			names = append(names, strings.TrimSpace(f))
		}
	}
	configs := sweep.Subsample(sweep.Grid(), *cf.nConfigs)
	if *cf.gridCSV != "" {
		configs = nil
		for _, name := range strings.Split(*cf.gridCSV, ",") {
			hw, err := core.ParseName(strings.TrimSpace(name))
			if err != nil {
				return opts, err
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
var campaignCmd = subcommand("sweep", func(fs *flag.FlagSet) body {
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

		res, err := sweep.Run(opts)
		if err != nil {
			// Results come back only once tasks ran: a refusal before any
			// (a foreign -resume, say) has no runs to continue.
			if *checkpoint != "" && res != nil {
				err = fmt.Errorf("%v\nvortex sweep: completed runs are preserved in %s; restart with -resume to continue", err, *checkpoint)
			}
			return err
		}
		fmt.Fprintf(stdout, "campaign caches: %s\n\n", res.Cache)
		return report(stdout, res, *violins, *csvPath)
	}
})

// serveCmd is the campaign coordinator: it owns the task grid and the
// crash-safe checkpoint, hands out leases over HTTP, and exits once the
// grid is covered.
var serveCmd = subcommand("sweep serve", func(fs *flag.FlagSet) body {
	cf := addCampaignFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8712", "address to serve the campaign on (host:port; port 0 picks a free one)")
	checkpoint := fs.String("checkpoint", "", "stream each accepted record to this JSONL file (required: the crash-safe campaign state)")
	resume := fs.Bool("resume", false, "mark tasks already recorded in -checkpoint as done instead of re-issuing them")
	out := fs.String("out", "", "after the grid is covered, write the campaign as a canonical-order checkpoint (byte-identical to a single-process -workers 1 run)")
	csvPath := fs.String("csv", "", "write the completed per-run records to this CSV file")
	violins := fs.Bool("violins", false, "render ASCII violin plots (Figure 2)")
	leaseTTL := fs.Duration("lease-ttl", 60*time.Second, "re-issue a worker's tasks if it has not submitted for this long")
	batch := fs.Int("batch", 4, "default tasks per lease")
	linger := fs.Duration("linger", 2*time.Second, "keep answering /lease with done for this long after the grid is covered, so idle pollers exit cleanly instead of hitting a closed port")
	progress := fs.Bool("progress", false, "print progress to stderr")
	return func(stdout, stderr io.Writer) error {
		if fs.NArg() > 0 {
			return usageError(fmt.Sprintf("vortex sweep: serve takes no positional arguments (got %q)", fs.Args()))
		}
		if *checkpoint == "" {
			return usageError("serve requires -checkpoint: it is the crash-safe campaign state a killed coordinator resumes from")
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		opts.Checkpoint = *checkpoint
		opts.Resume = *resume
		if *progress {
			opts.Progress = progressTo(stderr)
		}
		srv, err := service.New(opts, service.Config{LeaseTTL: *leaseTTL, BatchSize: *batch})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		st := srv.Status()
		// The resolved address line is the contract the CLI tests (and shell
		// scripts) scrape the port from when -addr ends in :0.
		fmt.Fprintf(stdout, "serving campaign on %s (%d tasks, %d resumed)\n", ln.Addr(), st.Total, st.Completed)
		// One request's read and answer get the worker client's own timeout:
		// a /submit at the body-size cap still fits well within it.
		httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout: 60 * time.Second, WriteTimeout: 60 * time.Second}
		go httpSrv.Serve(ln)

		<-srv.Done()
		// Polling workers learn the campaign is over from their next /lease,
		// not from a connection-refused.
		time.Sleep(*linger)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		if err := srv.Close(); err != nil {
			return err
		}
		st = srv.Status()
		fmt.Fprintf(stdout, "campaign complete: %d records (%d failed), %d duplicate submissions, %d leases reissued, %d workers\n\n",
			st.Completed, st.Failed, st.Dupes, st.Reissued, st.Workers)
		res, err := srv.Results()
		if err != nil {
			return fmt.Errorf("%v\nvortex sweep: completed runs are preserved in %s; restart serve with -resume to retry the failures", err, *checkpoint)
		}
		if *out != "" {
			if err := srv.WriteFinal(*out); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d records, canonical order)\n\n", *out, len(res.Records))
		}
		return report(stdout, res, *violins, *csvPath)
	}
})

// workCmd is a fleet worker: lease tasks from a coordinator, run them
// through the shared simulation substrate, stream records back.
var workCmd = subcommand("sweep work", func(fs *flag.FlagSet) body {
	cf := addCampaignFlags(fs)
	coordinator := fs.String("coordinator", "", "coordinator address (host:port of a vortex sweep serve; required)")
	workerID := fs.String("worker", "", "stable worker identity (default host-pid)")
	batch := fs.Int("batch", 0, "tasks to request per lease (0 = coordinator default)")
	progress := fs.Bool("progress", false, "print each completed task to stderr")
	return func(stdout, stderr io.Writer) error {
		if fs.NArg() > 0 {
			return usageError(fmt.Sprintf("vortex sweep: work takes no positional arguments (got %q)", fs.Args()))
		}
		if *coordinator == "" {
			return usageError("work requires -coordinator (the address of a vortex sweep serve)")
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		ran := 0
		wcfg := service.WorkerConfig{ID: *workerID, BatchSize: *batch}
		wcfg.OnRecord = func(r sweep.Record) {
			ran++
			if *progress {
				fmt.Fprintf(stderr, "%s done (%d run)\n", r.Key(), ran)
			}
		}
		// SIGINT/SIGTERM stop the worker between tasks; the leases it holds
		// expire and the coordinator re-issues them.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := service.Work(ctx, *coordinator, opts, wcfg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign complete: this worker ran %d tasks\n", ran)
		return nil
	}
})

// mergeCmd recombines completed shard checkpoints into single-process
// results, optionally writing a merged checkpoint and CSV, and renders the
// same report the single-process run would print.
var mergeCmd = subcommand("sweep merge", func(fs *flag.FlagSet) body {
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

// report renders res and, given a path, writes its CSV there.
func report(out io.Writer, res *sweep.Results, violins bool, csvPath string) error {
	if err := render(out, res, violins); err != nil {
		return err
	}
	return writeCSV(out, res, csvPath)
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
