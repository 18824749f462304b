// Package sweep runs the paper's validation campaign: every benchmark
// kernel under several lws mappers across a grid of 450 hardware
// configurations (1c2w2t … 64c32w32t), producing the latency-ratio
// distributions, violin plots and data tables of Figure 2 and the headline
// aggregate speedups of Section 3.
package sweep

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// gridCores spans 1..64 cores over 18 values so that the full grid is
// exactly 18 x 5 x 5 = 450 configurations, matching the count and corner
// points (1c2w2t, 64c32w32t) the paper reports. The paper does not list
// its grid; DESIGN.md at the repository root records the choice.
var gridCores = []int{1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 60, 64}
var gridWarps = []int{2, 4, 8, 16, 32}
var gridThreads = []int{2, 4, 8, 16, 32}

// Grid returns the 450-configuration sweep grid.
func Grid() []core.HWInfo {
	out := make([]core.HWInfo, 0, len(gridCores)*len(gridWarps)*len(gridThreads))
	for _, c := range gridCores {
		for _, w := range gridWarps {
			for _, t := range gridThreads {
				out = append(out, core.HWInfo{Cores: c, Warps: w, Threads: t})
			}
		}
	}
	return out
}

// Subsample deterministically picks n configurations spread over the whole
// grid. A strided pick would alias with the grid's inner dimensions (the
// threads axis cycles every 5 entries), so a fixed-seed shuffle selects the
// subset and the result is returned in grid order. n <= 0 or
// n >= len(grid) returns the grid unchanged.
func Subsample(grid []core.HWInfo, n int) []core.HWInfo {
	if n <= 0 || n >= len(grid) {
		return grid
	}
	perm := rand.New(rand.NewSource(12345)).Perm(len(grid))
	idx := append([]int(nil), perm[:n]...)
	sort.Ints(idx)
	out := make([]core.HWInfo, 0, n)
	for _, i := range idx {
		out = append(out, grid[i])
	}
	return out
}

// Options configures a sweep.
type Options struct {
	// Configs defaults to the full 450-point Grid().
	Configs []core.HWInfo
	// Kernels defaults to every kernel in the registry.
	Kernels []string
	// Mappers defaults to the paper's three: lws=1, lws=32, ours.
	Mappers []core.Mapper
	// Axes holds the values swept on each grid axis of the Axes table, by
	// axis name and in canonical spelling (e.g. {"sched": {"rr", "gto"},
	// "mshrs": {"0", "4"}}). A missing or empty axis sweeps only its
	// default. The axes own their simulator knobs: a ConfigTemplate that
	// sets one is refused, so the checkpoint meta can validate the swept
	// values.
	Axes map[string][]string
	// Scale is the workload scale factor (1.0 = paper sizes).
	Scale float64
	// Seed drives input generation (shared by all runs of a kernel so
	// ratios compare identical work).
	Seed int64
	// Verify checks device output against the CPU reference on every run
	// (slower; sweeps over many configs usually verify in tests instead).
	Verify bool
	// Workers bounds parallel simulations; 0 means GOMAXPROCS.
	Workers int
	// Progress, if non-nil, is called after each completed run.
	Progress func(done, total int)
	// ConfigTemplate customizes the non-geometry simulator parameters
	// (memory hierarchy, latencies, scheduler); nil uses defaults.
	ConfigTemplate func(hw core.HWInfo) sim.Config
	// ConfigTag names the ConfigTemplate for checkpointing. A function
	// cannot be fingerprinted, so a checkpointed sweep with a non-nil
	// ConfigTemplate must carry a caller-chosen tag; the tag is recorded
	// in the checkpoint meta and must match on Resume.
	ConfigTag string
	// DispatchOverhead overrides the per-launch driver cost in cycles;
	// negative keeps the runtime default.
	DispatchOverhead int64
	// NoCoalesce disables the memory coalescer (ablation A2).
	NoCoalesce bool
	// Checkpoint, if non-empty, is a JSONL file each completed record is
	// appended to (and flushed) as its simulation finishes, so a killed
	// campaign preserves the work done. See checkpoint.go for the format.
	Checkpoint string
	// Resume preloads Checkpoint and skips every task already recorded
	// there, splicing the checkpointed records into the result grid. The
	// final Results.Records are byte-identical to an uninterrupted run.
	// Failed records are not checkpointed, so a resume retries them.
	Resume bool
	// OnRecord, if non-nil, is called with each record as it completes
	// (in completion order, serialized by the runner). Resumed records are
	// not replayed through OnRecord.
	OnRecord func(Record)
	// ShardIndex/ShardCount partition the canonical task grid across
	// independent processes: the run executes
	// only tasks whose canonical grid index is congruent to ShardIndex
	// modulo ShardCount. The stride interleaves shards over the grid's
	// config-major order, so every shard sees the same mix of cheap and
	// expensive configurations and shards finish together. ShardCount <= 1
	// disables sharding. Shard identity (and the full grid) is recorded in
	// the checkpoint meta and validated on Resume; Merge recombines
	// completed shard checkpoints into single-process Results.
	ShardIndex int
	ShardCount int
}

func (o *Options) fill() {
	if o.Configs == nil {
		o.Configs = Grid()
	}
	if o.Kernels == nil {
		o.Kernels = kernels.Names()
	}
	if o.Mappers == nil {
		o.Mappers = []core.Mapper{core.Naive{}, core.Fixed{N: 32}, core.Auto{}}
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DispatchOverhead < 0 {
		o.DispatchOverhead = -1
	}
	if o.ShardCount < 1 {
		o.ShardCount = 1
	}
}

// Normalized returns o with every default applied — the exact option set a
// Run of o executes (a missing grid axis stays missing: it sweeps its
// default). The campaign service normalizes once so its stored options,
// meta and task grid all describe the same campaign.
func (o Options) Normalized() Options {
	o.fill()
	return o
}

// validate refuses option values no campaign can run correctly, after
// fill() has applied defaults. Unlike the duplicate-axis check — which only
// guards keyed runs, because a plain in-memory run of a duplicated config
// is harmless and deliberate — these hold on every path, including the
// campaign service, whose task handouts are always keyed.
func (o *Options) validate() error {
	if o.Scale < 0 {
		return fmt.Errorf("sweep: scale must be positive (got %v)", o.Scale)
	}
	for name := range o.Axes {
		if !slices.ContainsFunc(Axes, func(a Axis) bool { return a.Name == name }) {
			return fmt.Errorf("sweep: unknown grid axis %q", name)
		}
	}
	// A repeated axis value can never mean anything but the same records
	// twice under aliased task keys, so it is refused even on plain runs
	// (duplicate configs, by contrast, stay legal there).
	for _, a := range Axes {
		if err := a.check(a.values(o.Axes)); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// grid lists the dimensions of the task grid of filled options by name:
// configs, kernels, mappers, then each entry of Axes. The checkpoint meta
// stores exactly these lists, comma-joined.
func (o Options) grid() [][]string {
	configs := make([]string, len(o.Configs))
	for i, hw := range o.Configs {
		configs[i] = hw.Name()
	}
	mappers := make([]string, len(o.Mappers))
	for i, m := range o.Mappers {
		mappers[i] = m.Name()
	}
	g := [][]string{configs, o.Kernels, mappers}
	for _, a := range Axes {
		g = append(g, a.values(o.Axes))
	}
	return g
}

// duplicateEntry returns the first repeated entry on any dimension of grid
// g (a task key is duplicated exactly when a dimension's value is), or "".
func duplicateEntry(g [][]string) string {
	for _, dim := range g {
		seen := make(map[string]bool, len(dim))
		for _, v := range dim {
			if seen[v] {
				return v
			}
			seen[v] = true
		}
	}
	return ""
}

// Task is one cell of the canonical campaign grid: the config, kernel,
// mapper and grid point a single simulation runs, plus its canonical grid
// index. The campaign service hands out tasks by index; both sides
// enumerate the same grid (validated by Meta equality), so indices — not
// mapper objects, which do not serialize — cross the wire.
type Task struct {
	Index  int // position in the canonical grid (config-major, Axes innermost)
	Config core.HWInfo
	Kernel string
	Mapper core.Mapper
	Point  []string // one canonical value per Axes entry, in table order; shared, read-only
}

// Key is the task's identity string; it matches Record.Key for the record
// the task produces.
func (t Task) Key() string {
	return taskKey(append(append(make([]string, 0, 8), t.Config.Name(), t.Kernel, t.Mapper.Name()), t.Point...))
}

// Record returns the identity of the record the task produces — config,
// kernel, mapper and grid point — with no outcome.
func (t Task) Record() Record {
	rec := Record{Config: t.Config, Kernel: t.Kernel, Mapper: t.Mapper.Name()}
	for i, a := range Axes[:min(len(Axes), len(t.Point))] {
		rec = a.set(rec, t.Point[i])
	}
	return rec
}

// enumerateTasks lists the canonical task grid of filled options, in the
// order of Options.grid with the last axis innermost. Every keyed consumer
// (Run's shard slice, Merge's grid reconstruction, the campaign service)
// must agree with this order.
func enumerateTasks(opts Options) []Task {
	points := Points(opts.Axes)
	out := make([]Task, 0, len(opts.Configs)*len(opts.Kernels)*len(opts.Mappers)*len(points))
	eachCell(opts.grid()[:3], func(ix []int, _ []string) {
		for _, pt := range points {
			out = append(out, Task{Index: len(out), Config: opts.Configs[ix[0]], Kernel: opts.Kernels[ix[1]],
				Mapper: opts.Mappers[ix[2]], Point: pt})
		}
	})
	return out
}

// TaskGrid returns the canonical task grid of a campaign after defaulting
// and validating opts. Task keys must be unique — grids whose axes repeat
// an entry are refused, exactly as Run refuses them when sharding or
// checkpointing — so the grid index and the task key name the same cell.
func TaskGrid(opts Options) ([]Task, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if dup := duplicateEntry(opts.grid()); dup != "" {
		return nil, fmt.Errorf("sweep: duplicate grid entry %s: task handout requires unique task keys", dup)
	}
	return enumerateTasks(opts), nil
}

// RunTask executes one task of the campaign through the shared device-pool
// and cache substrate, exactly as Run would: the record it returns is
// byte-identical to the one a single-process Run of the same options
// produces for that grid cell. Failures come back in Record.Err, never as
// a panic, so a fleet worker survives any single task.
func RunTask(opts Options, pool *ocl.DevicePool, t Task) Record {
	opts.fill()
	return runOne(opts, pool, t)
}

// Record is one simulation outcome: a (config, kernel, mapper) cell at one
// grid point, with one field per Axes entry.
type Record struct {
	Config      core.HWInfo
	Kernel      string
	Mapper      string
	Sched       string // warp-scheduler policy name (sim.SchedPolicy.String)
	MSHRs       int    // outstanding-miss bound per L1 and per L2 bank (0 = unbounded)
	L1          string // L1 geometry spec ("16k4w")
	Prefetch    string // L1 prefetch policy name (mem.PrefetchPolicy.String)
	LWS         int    // of the first launch
	Cycles      uint64
	Instrs      uint64
	MemStall    uint64
	ExecStall   uint64
	EnergyPJ    float64 // summed launch energy estimate (picojoules)
	Boundedness core.Boundedness
	Err         string // non-empty if this run failed
}

// CacheReport summarizes the campaign engine's cross-run reuse for one
// sweep: program-cache and input-memo hit/miss deltas over the run, device
// pool reuse, and how many records a Resume spliced in from the checkpoint.
type CacheReport struct {
	ProgramHits, ProgramMisses uint64
	InputHits, InputMisses     uint64
	DevicesReused, DevicesNew  uint64
	Resumed                    int
}

func (c CacheReport) String() string {
	s := fmt.Sprintf("programs %d hit / %d built; inputs %d hit / %d built; devices %d reused / %d built",
		c.ProgramHits, c.ProgramMisses, c.InputHits, c.InputMisses, c.DevicesReused, c.DevicesNew)
	if c.Resumed > 0 {
		s += fmt.Sprintf("; %d records resumed from checkpoint", c.Resumed)
	}
	return s
}

// Results holds a completed sweep.
type Results struct {
	Options Options
	Records []Record
	// Cache reports the campaign engine's reuse counters for this run
	// (zero value when Results was reconstructed from a CSV).
	Cache CacheReport
}

// Run executes the sweep as a streaming campaign: tasks fan out over the
// worker pool, each completed record is streamed to the checkpoint (when
// configured) and OnRecord sink in completion order, and the final record
// grid is assembled in deterministic task order. With Resume, tasks already
// present in the checkpoint are spliced in without re-simulating; the
// resulting Records are byte-identical to an uninterrupted run.
func Run(opts Options) (*Results, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount {
		return nil, fmt.Errorf("sweep: shard index %d out of range for %d shards", opts.ShardIndex, opts.ShardCount)
	}
	if opts.ShardCount > 1 || opts.Checkpoint != "" {
		// Sharding and checkpointing identify tasks by their task key; a
		// duplicated grid entry would alias
		// two tasks onto one key and silently mis-splice on resume or merge.
		if dup := duplicateEntry(opts.grid()); dup != "" {
			return nil, fmt.Errorf("sweep: duplicate grid entry %s: sharding/checkpointing requires unique task keys", dup)
		}
	}
	// tasks is this process's slice of the canonical grid: every ShardCount-th
	// task starting at ShardIndex. Records (and the checkpoint) cover only
	// this shard, in shard-local canonical order (the index into tasks),
	// while Task.Index keeps the full-grid position; Merge reassembles
	// shards into full-grid order.
	var tasks []Task
	for _, t := range enumerateTasks(opts) {
		if t.Index%opts.ShardCount == opts.ShardIndex {
			tasks = append(tasks, t)
		}
	}
	records := make([]Record, len(tasks))
	skip := make([]bool, len(tasks))
	resumed := 0
	if opts.Checkpoint != "" && opts.ConfigTemplate != nil && opts.ConfigTag == "" {
		// The simulator configuration determines every record; an unnamed
		// template cannot be validated on resume, so refuse to checkpoint
		// records that a later resume could silently mis-splice.
		return nil, fmt.Errorf("sweep: checkpointing with a ConfigTemplate requires Options.ConfigTag")
	}
	if opts.Resume && opts.Checkpoint != "" {
		seen, err := ResumeRecords(opts)
		if err != nil {
			return nil, fmt.Errorf("sweep: resume: %w", err)
		}
		for i, tk := range tasks {
			if rec, ok := seen[tk.Key()]; ok {
				records[i] = rec
				skip[i] = true
				resumed++
			}
		}
	}
	var ckpt *CheckpointWriter
	if opts.Checkpoint != "" {
		var err error
		ckpt, err = OpenCheckpoint(opts.Checkpoint, opts.Resume, opts)
		if err != nil {
			return nil, fmt.Errorf("sweep: checkpoint: %w", err)
		}
	}

	pool := ocl.NewDevicePool(opts.Workers)
	progBase := ocl.ProgramCacheStats()
	inputBase := kernels.InputCacheStats()

	// Workers claim tasks by advancing a shared cursor over the task slice:
	// at ~100 µs a task, a channel hand-off's park/wake per task is a
	// measurable share of the run.
	var wg sync.WaitGroup
	var cursor atomic.Int64
	var mu sync.Mutex
	var sinkErr error
	done := resumed
	if opts.Progress != nil && resumed > 0 {
		opts.Progress(done, len(tasks))
	}
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slot := int(cursor.Add(1)) - 1
				if slot >= len(tasks) {
					return
				}
				if skip[slot] {
					continue
				}
				rec := runOne(opts, pool, tasks[slot])
				records[slot] = rec
				mu.Lock()
				if ckpt != nil && rec.Err == "" {
					if err := ckpt.Append(rec); err != nil && sinkErr == nil {
						sinkErr = err
					}
				}
				done++
				if opts.Progress != nil {
					opts.Progress(done, len(tasks))
				}
				if opts.OnRecord != nil {
					opts.OnRecord(rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ckpt != nil {
		if err := ckpt.Close(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}

	prog := ocl.ProgramCacheStats()
	inp := kernels.InputCacheStats()
	dev := pool.Stats()
	res := &Results{Options: opts, Records: records, Cache: CacheReport{
		ProgramHits:   prog.Hits - progBase.Hits,
		ProgramMisses: prog.Misses - progBase.Misses,
		InputHits:     inp.Hits - inputBase.Hits,
		InputMisses:   inp.Misses - inputBase.Misses,
		DevicesReused: dev.Hits,
		DevicesNew:    dev.Misses,
		Resumed:       resumed,
	}}
	if sinkErr != nil {
		return res, fmt.Errorf("sweep: checkpoint write: %w", sinkErr)
	}
	for _, r := range records {
		if r.Err != "" {
			return res, fmt.Errorf("sweep: %s/%s on %s: %s", r.Kernel, r.Mapper, r.Config.Name(), r.Err)
		}
	}
	return res, nil
}

func runOne(opts Options, pool *ocl.DevicePool, t Task) Record {
	hw := t.Config
	rec := t.Record()
	if len(t.Point) != len(Axes) {
		rec.Err = fmt.Sprintf("task has %d grid-axis values, want %d", len(t.Point), len(Axes))
		return rec
	}
	spec, err := kernels.ByName(t.Kernel)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	cfg := sim.DefaultConfig(hw.Cores, hw.Warps, hw.Threads)
	if opts.ConfigTemplate != nil {
		cfg = opts.ConfigTemplate(hw)
		for _, a := range Axes {
			if a.setBy(cfg) {
				rec.Err = fmt.Sprintf("ConfigTemplate sets the %s knob; it is a grid axis — set it through Options.Axes", a.Name)
				return rec
			}
		}
	}
	cfg, err = ApplyPoint(cfg, t.Point)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	d, err := pool.Get(cfg)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	defer pool.Put(d)
	if opts.DispatchOverhead >= 0 {
		d.DispatchOverhead = uint64(opts.DispatchOverhead)
	}
	d.Sim().NoCoalesce = opts.NoCoalesce
	d.SetMapper(t.Mapper)
	c, err := spec.Build(d, kernels.Params{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	var res *kernels.Result
	if opts.Verify {
		res, err = c.RunVerified(d, 0)
	} else {
		res, err = c.Run(d, 0)
	}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	fillRecord(&rec, res, hw)
	return rec
}

// fillRecord folds a completed case result into rec. A case that produced
// no launches is recorded as a failure instead of indexing Launches[0] (an
// index panic here used to kill the whole worker).
func fillRecord(rec *Record, res *kernels.Result, hw core.HWInfo) {
	if len(res.Launches) == 0 {
		rec.Err = "case completed without launches"
		return
	}
	rec.Cycles = res.Cycles
	rec.LWS = res.Launches[0].LWS
	for _, l := range res.Launches {
		rec.Instrs += l.Stats.Issued
		rec.MemStall += l.Stats.MemStall
		rec.ExecStall += l.Stats.ExecStall
		rec.EnergyPJ += l.Energy.Total()
	}
	rec.Boundedness = core.Classify(rec.MemStall, rec.ExecStall, rec.Cycles*uint64(hw.Cores))
}
