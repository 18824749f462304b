// Command vortex-sweep regenerates the paper's Figure 2: the three lws
// mappings (lws=1, lws=32, ours) for every benchmark kernel across the
// 450-configuration grid, reporting ratio violins, the per-kernel data
// tables, and the Section 3 aggregate speedups.
//
// The full paper-scale campaign (450 configs x 9 kernels x 3 mappings at
// Scale=1) is hours of single-core simulation; -scale and -configs trade
// fidelity for time (EXPERIMENTS.md records the settings used there).
//
// Usage:
//
//	vortex-sweep [-scale 1.0] [-configs 450] [-grid 1c2w2t,...] [-kernels all]
//	             [-sched rr,gto,oldest,2lev] [-mshrs 0,4] [-l1 16k4w,32k8w]
//	             [-prefetch off,nextline] [-seed 42] [-violins] [-verify]
//	             [-csv out.csv] [-progress] [-workers 0]
//	             [-checkpoint campaign.jsonl] [-resume] [-shard i/N]
//	             [-cpuprofile cpu.prof]
//	vortex-sweep merge [-out merged.jsonl] [-csv out.csv] [-violins]
//	             [-crossover lws=32] shard0.jsonl shard1.jsonl ...
//	vortex-sweep serve -addr :8712 -checkpoint c.jsonl [-resume]
//	             [-out final.jsonl] [-csv out.csv] [-lease-ttl 60s]
//	             [-batch 4] [campaign flags]
//	vortex-sweep work -coordinator host:8712 [-worker id] [-batch 4]
//	             [campaign flags]
//
// With -checkpoint, every completed record is streamed to the given JSONL
// file as it finishes; a killed campaign restarted with -resume skips the
// recorded runs and produces results byte-identical to an uninterrupted
// sweep. The final report includes the campaign engine's cache counters
// (assembled-program cache, workload input memo, device pool).
//
// With -shard i/N, the process runs only every N-th task of the canonical
// campaign grid starting at i, so a campaign can spread over N independent
// hosts: run each shard with its own -checkpoint, then recombine with the
// merge subcommand, whose report, CSV and checkpoint output are
// byte-identical to a single-process run.
//
// serve and work replace static sharding with work stealing: serve hands
// out leased task batches over HTTP (/lease, /submit, /status), streams
// every accepted record to its -checkpoint, re-issues the leases of dead
// workers, and — once the grid is covered — writes -out as a
// canonical-order checkpoint byte-identical to a single-process Workers=1
// run. work runs leased tasks through the same simulation substrate and
// streams records back with retry and exponential backoff; its campaign
// flags must describe the same campaign as serve's (enforced by meta
// comparison at enrollment, refusing mismatched scale/seed/grid/version).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/sweep/service"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "merge":
			runMerge(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "work":
			runWork(os.Args[2:])
			return
		}
	}
	runCampaign(os.Args[1:])
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"vortex-sweep:"}, args...)...)
	os.Exit(1)
}

// campaignFlags is the flag set every simulating mode shares (the default
// single-process campaign, serve, and work): the grid axes and the
// simulation parameters that determine record bytes, plus the worker-local
// task parallelism (-workers). serve and work must agree on the former —
// the service validates that by meta comparison — while the latter never
// crosses the wire.
type campaignFlags struct {
	scale     *float64
	nConfigs  *int
	kernelCSV *string
	gridCSV   *string
	axes      sweep.AxisFlags
	seed      *int64
	verify    *bool
	workers   *int
}

func addCampaignFlags(fs *flag.FlagSet) *campaignFlags {
	return &campaignFlags{
		scale:     fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes)"),
		nConfigs:  fs.Int("configs", 450, "number of grid configurations (subsampled deterministically)"),
		kernelCSV: fs.String("kernels", "all", "comma-separated kernels or 'all'"),
		gridCSV:   fs.String("grid", "", "explicit comma-separated config names (e.g. 1c2w2t,4c4w4t); overrides -configs"),
		axes:      sweep.RegisterAxisFlags(fs, "grid axis (comma-separated): "),
		seed:      fs.Int64("seed", 42, "input generation seed"),
		verify:    fs.Bool("verify", false, "verify device output against CPU references on every run"),
		workers:   fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)"),
	}
}

// options validates the campaign flags and assembles sweep.Options.
// Numeric nonsense is refused here, at the CLI boundary, instead of
// flowing into Subsample (-configs 0 used to silently run the full
// 450-point grid) or the workload builders (-scale 0, negatives, NaN and
// infinities).
func (cf *campaignFlags) options() (sweep.Options, error) {
	var opts sweep.Options
	if err := kernels.CheckScale(*cf.scale); err != nil {
		return opts, fmt.Errorf("-%w", err)
	}
	if *cf.nConfigs < 1 {
		return opts, fmt.Errorf("-configs must be >= 1 (got %d)", *cf.nConfigs)
	}
	axes, err := cf.axes.Values()
	if err != nil {
		return opts, err
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
			name = strings.TrimSpace(name)
			hw, err := core.ParseName(name)
			if err != nil {
				return opts, err
			}
			// ParseName scans with Sscanf, which ignores trailing garbage;
			// require the canonical name to round-trip so a typo cannot
			// silently run a different grid.
			if hw.Name() != name {
				return opts, fmt.Errorf("bad -grid config %q (want e.g. %s)", name, hw.Name())
			}
			configs = append(configs, hw)
		}
	}
	return sweep.Options{
		Configs: configs,
		Kernels: names,
		Axes:    axes,
		Scale:   *cf.scale,
		Seed:    *cf.seed,
		Verify:  *cf.verify,
		Workers: *cf.workers,
	}, nil
}

// runCampaign is the classic single-process mode (plus -shard striding).
func runCampaign(args []string) {
	fs := flag.NewFlagSet("vortex-sweep", flag.ExitOnError)
	cf := addCampaignFlags(fs)
	violins := fs.Bool("violins", false, "render ASCII violin plots (Figure 2)")
	csvPath := fs.String("csv", "", "write the raw per-run records to this CSV file")
	progress := fs.Bool("progress", false, "print progress to stderr")
	checkpoint := fs.String("checkpoint", "", "stream each completed record to this JSONL file (crash-safe campaign state)")
	resume := fs.Bool("resume", false, "skip runs already recorded in -checkpoint (requires -checkpoint)")
	replot := fs.String("replot", "", "re-render tables/violins from a previously written CSV instead of simulating")
	shard := fs.String("shard", "", "run only shard i/N of the campaign grid (e.g. 0/3); recombine with the merge subcommand")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of a completed campaign to this file (go tool pprof format)")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *replot != "" {
		// -replot re-renders an existing CSV and never simulates; flags
		// that only mean something for a simulating campaign used to be
		// silently dropped here — refuse them instead of ignoring the
		// user's intent.
		var clash []string
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-checkpoint", *checkpoint != ""},
			{"-resume", *resume},
			{"-shard", *shard != ""},
			{"-csv", *csvPath != ""},
			{"-verify", *cf.verify},
		} {
			if f.set {
				clash = append(clash, f.name)
			}
		}
		if len(clash) > 0 {
			fatal(fmt.Sprintf("-replot re-renders an existing CSV without simulating and cannot be combined with %s", strings.Join(clash, ", ")))
		}
		f, err := os.Open(*replot)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		res, err := sweep.ReadCSV(f)
		if err != nil {
			fatal(err)
		}
		if err := render(res, *violins); err != nil {
			fatal(err)
		}
		return
	}

	if *resume && *checkpoint == "" {
		fatal("-resume requires -checkpoint")
	}
	var shardIndex, shardCount int
	if *shard != "" {
		idxStr, countStr, ok := strings.Cut(*shard, "/")
		var ierr, cerr error
		if ok {
			shardIndex, ierr = strconv.Atoi(idxStr)
			shardCount, cerr = strconv.Atoi(countStr)
		}
		if !ok || ierr != nil || cerr != nil || shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount {
			fatal(fmt.Sprintf("bad -shard %q (want i/N with 0 <= i < N, e.g. 0/3)", *shard))
		}
	}

	opts, err := cf.options()
	if err != nil {
		fatal(err)
	}
	opts.Checkpoint = *checkpoint
	opts.Resume = *resume
	opts.ShardIndex = shardIndex
	opts.ShardCount = shardCount
	if *progress {
		opts.Progress = stderrProgress()
	}

	shardNote := ""
	if shardCount > 1 {
		shardNote = fmt.Sprintf(", shard %d/%d", shardIndex, shardCount)
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
	fmt.Printf("Figure 2 reproduction: %d configs x %d kernels x 3 mappings%s, scale=%.2f, seed=%d%s\n\n",
		len(opts.Configs), len(opts.Kernels), axisNote, *cf.scale, *cf.seed, shardNote)

	res, err := sweep.Run(opts)
	if err != nil {
		if *checkpoint != "" {
			fatal(fmt.Sprintf("%v\nvortex-sweep: completed runs are preserved in %s; restart with -resume to continue", err, *checkpoint))
		}
		fatal(err)
	}
	fmt.Printf("campaign caches: %s\n\n", res.Cache)

	if err := render(res, *violins); err != nil {
		fatal(err)
	}
	if *csvPath != "" {
		writeCSVFile(res, *csvPath)
	}
}

// requestTimeout bounds reading one coordinator request and writing its
// answer. It matches the worker client's own timeout: a /submit at the
// body-size cap still reads, checkpoints and answers well within it.
const requestTimeout = 60 * time.Second

// runServe is the campaign coordinator: it owns the task grid and the
// crash-safe checkpoint, hands out leases over HTTP, and exits once the
// grid is covered.
func runServe(args []string) {
	fs := flag.NewFlagSet("vortex-sweep serve", flag.ExitOnError)
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
	fs.Parse(args)
	if fs.NArg() > 0 {
		fatal(fmt.Sprintf("serve takes no positional arguments (got %q)", fs.Args()))
	}
	if *checkpoint == "" {
		fatal("serve requires -checkpoint: it is the crash-safe campaign state a killed coordinator resumes from")
	}
	opts, err := cf.options()
	if err != nil {
		fatal(err)
	}
	opts.Checkpoint = *checkpoint
	opts.Resume = *resume

	if *progress {
		opts.Progress = stderrProgress()
	}
	srv, err := service.New(opts, service.Config{LeaseTTL: *leaseTTL, BatchSize: *batch})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	st := srv.Status()
	// The resolved address line is the contract the CLI tests (and shell
	// scripts) scrape the port from when -addr ends in :0.
	fmt.Printf("serving campaign on %s (%d tasks, %d resumed)\n", ln.Addr(), st.Total, st.Completed)
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout: requestTimeout, WriteTimeout: requestTimeout}
	go httpSrv.Serve(ln)

	<-srv.Done()
	// Workers that were polling (everything leased elsewhere) learn the
	// campaign is over from their next /lease; closing the listener the
	// instant the last record lands would turn that poll into a confusing
	// connection-refused.
	time.Sleep(*linger)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(ctx)
	cancel()
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	st = srv.Status()
	fmt.Printf("campaign complete: %d records (%d failed), %d duplicate submissions, %d leases reissued, %d workers\n\n",
		st.Completed, st.Failed, st.Dupes, st.Reissued, st.Workers)
	res, err := srv.Results()
	if err != nil {
		fatal(fmt.Sprintf("%v\nvortex-sweep: completed runs are preserved in %s; restart serve with -resume to retry the failures", err, *checkpoint))
	}
	if *out != "" {
		if err := srv.WriteFinal(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d records, canonical order)\n\n", *out, len(res.Records))
	}
	if err := render(res, *violins); err != nil {
		fatal(err)
	}
	if *csvPath != "" {
		writeCSVFile(res, *csvPath)
	}
}

// runWork is a fleet worker: lease tasks from a coordinator, run them
// through the shared simulation substrate, stream records back.
func runWork(args []string) {
	fs := flag.NewFlagSet("vortex-sweep work", flag.ExitOnError)
	cf := addCampaignFlags(fs)
	coordinator := fs.String("coordinator", "", "coordinator address (host:port of a vortex-sweep serve; required)")
	workerID := fs.String("worker", "", "stable worker identity (default host-pid)")
	batch := fs.Int("batch", 0, "tasks to request per lease (0 = coordinator default)")
	progress := fs.Bool("progress", false, "print each completed task to stderr")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fatal(fmt.Sprintf("work takes no positional arguments (got %q)", fs.Args()))
	}
	if *coordinator == "" {
		fatal("work requires -coordinator (the address of a vortex-sweep serve)")
	}
	opts, err := cf.options()
	if err != nil {
		fatal(err)
	}
	ran := 0
	wcfg := service.WorkerConfig{ID: *workerID, BatchSize: *batch}
	wcfg.OnRecord = func(r sweep.Record) {
		ran++
		if *progress {
			fmt.Fprintf(os.Stderr, "%s done (%d run)\n", r.Key(), ran)
		}
	}
	// SIGINT/SIGTERM stop the worker between tasks; the leases it holds
	// expire and the coordinator re-issues them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := service.Work(ctx, *coordinator, opts, wcfg); err != nil {
		fatal(err)
	}
	fmt.Printf("campaign complete: this worker ran %d tasks\n", ran)
}

// runMerge implements the merge subcommand: recombine completed shard
// checkpoints into single-process results, optionally writing a merged
// checkpoint and CSV, and render the same report the single-process run
// would print.
func runMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "write the merged campaign as a single unsharded checkpoint JSONL")
	csvPath := fs.String("csv", "", "write the merged per-run records to this CSV file")
	violins := fs.Bool("violins", false, "render ASCII violin plots (Figure 2)")
	crossover := fs.String("crossover", "", "also render per-hp crossover curves against this baseline mapper (e.g. lws=32)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vortex-sweep merge [-out merged.jsonl] [-csv out.csv] [-violins] [-crossover lws=32] shard0.jsonl shard1.jsonl ...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(1)
	}
	res, err := sweep.Merge(*out, fs.Args())
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("merged %d shards into %s (%d records)\n\n", fs.NArg(), *out, len(res.Records))
	}
	if err := render(res, *violins); err != nil {
		fatal(err)
	}
	if *crossover != "" {
		fmt.Println()
		if err := res.RenderCrossover(os.Stdout, *crossover); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		writeCSVFile(res, *csvPath)
	}
}

// stderrProgress returns an Options.Progress that redraws one stderr line
// every 25 completed tasks and at the end.
func stderrProgress() func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		if done%25 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs (%.0fs elapsed)", done, total, time.Since(start).Seconds())
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
}

func render(res *sweep.Results, violins bool) error {
	if violins {
		return res.RenderFigure2(os.Stdout, stats.ViolinOptions{Rows: 17, HalfWidth: 16})
	}
	return res.RenderTable(os.Stdout)
}

func writeCSVFile(res *sweep.Results, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := res.WriteCSV(f); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s (%d records)\n", path, len(res.Records))
}
