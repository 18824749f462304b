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
	// default. A task's device is sim.DefaultConfig of its configuration
	// with its grid point applied, and nothing else.
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
	// Progress, if non-nil, is called with the count of completed tasks
	// on each task's first completion (failures included) and once up
	// front when a resume spliced records in. Campaign.Submit serializes it.
	Progress func(done, total int)
	// DispatchOverhead is the driver cost charged per launch, in cycles
	// (0, the default, charges none; negative is refused).
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
	// OnRecord, if non-nil, is called with each task's first record as it
	// completes (in completion order, serialized by Campaign.Submit).
	// Resumed records are not replayed through OnRecord.
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
		o.Mappers = core.PaperMappers()
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ShardCount < 1 {
		o.ShardCount = 1
	}
}

// Normalized returns o with every default applied — the exact option set a
// Run of o executes (a missing grid axis stays missing: it sweeps its
// default).
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
	if err := kernels.CheckScale(o.Scale); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if o.DispatchOverhead < 0 {
		return fmt.Errorf("sweep: negative dispatch overhead %d (cycles per launch, 0 = none)", o.DispatchOverhead)
	}
	for name := range o.Axes {
		if !slices.ContainsFunc(Axes[:], func(a Axis) bool { return a.Name == name }) {
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

// gridIndex places a record at its grid index without building its task
// key: one value → position lookup per dimension of Options.grid.
type gridIndex []map[string]int

// newGridIndex indexes grid g, or returns the first entry a dimension
// repeats (a task key is duplicated exactly when a dimension's value is).
func newGridIndex(g [][]string) (gridIndex, string) {
	x := make(gridIndex, len(g))
	for d, dim := range g {
		x[d] = make(map[string]int, len(dim))
		for i, v := range dim {
			if _, dup := x[d][v]; dup {
				return nil, v
			}
			x[d][v] = i
		}
	}
	return x, ""
}

// of returns the grid index of rec's task, read in mixed radix as cell
// does, or false for a record outside the grid (or an empty index).
func (x gridIndex) of(rec Record) (gi int, ok bool) {
	var name [32]byte
	for d, dim := range x {
		var pos int
		switch d {
		case 0:
			pos, ok = dim[string(rec.Config.AppendName(name[:0]))]
		case 1:
			pos, ok = dim[rec.Kernel]
		case 2:
			pos, ok = dim[rec.Mapper]
		default:
			pos, ok = dim[Axes[d-3].get(rec)]
		}
		if !ok {
			return 0, false
		}
		gi = gi*len(dim) + pos
	}
	return gi, ok
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

// config returns the device configuration t runs on: sim.DefaultConfig of
// its hardware with its grid point applied.
func (t Task) config() (sim.Config, error) {
	if len(t.Point) != len(Axes) {
		return sim.Config{}, fmt.Errorf("task has %d grid-axis values, want %d", len(t.Point), len(Axes))
	}
	return ApplyPoint(sim.DefaultConfig(t.Config.Cores, t.Config.Warps, t.Config.Threads), t.Point)
}

// enumerateTasks lists every count-th task of the canonical grid of filled
// options, starting at shard. The grid is in the order of Options.grid,
// the last axis innermost, as gridIndex numbers it.
func enumerateTasks(opts Options, shard, count int) []Task {
	points := Points(opts.Axes)
	np, nm, nk := len(points), len(opts.Mappers), len(opts.Kernels)
	n := len(opts.Configs) * nk * nm * np
	out := make([]Task, 0, max(n-shard+count-1, 0)/count)
	for gi := shard; gi < n; gi += count {
		r := gi / np
		out = append(out, Task{Index: gi, Config: opts.Configs[r/nm/nk], Kernel: opts.Kernels[r/nm%nk],
			Mapper: opts.Mappers[r%nm], Point: points[gi%np]})
	}
	return out
}

// TaskGrid returns the canonical task grid of a campaign after defaulting
// and validating opts. Task keys must be unique — grids whose axes repeat
// an entry are refused, exactly as a keyed Campaign refuses them — so the
// grid index and the task key name the same cell.
func TaskGrid(opts Options) ([]Task, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if _, dup := newGridIndex(opts.grid()); dup != "" {
		return nil, fmt.Errorf("sweep: duplicate grid entry %s: task handout requires unique task keys", dup)
	}
	return enumerateTasks(opts, 0, 1), nil
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
// grid point, with one field per Axes entry and one per columns entry.
type Record struct {
	Config    core.HWInfo
	Kernel    string
	Mapper    string
	Sched     string // warp-scheduler policy name (sim.SchedPolicy.String)
	MSHRs     int    // outstanding-miss bound per L1 and per L2 bank (0 = unbounded)
	L1        string // L1 geometry spec ("16k4w")
	Prefetch  string // L1 prefetch policy name (mem.PrefetchPolicy.String)
	LWS       int    // of the first launch
	Cycles    uint64
	Instrs    uint64
	MemStall  uint64
	ExecStall uint64
	Err       string // non-empty if this run failed
}

// column is one measured Record field. Its entry in columns is the only
// place the measurement is named and folded: fillRecord, the checkpoint
// codec, WriteCSV, ReadCSV and the checkpoint meta all iterate over the
// table.
type column struct {
	name string // CSV column and checkpoint meta entry
	key  string // JSON key: the Record field's name, as json.Marshal spells it

	// get and set take and return values for the reason Axis.set does.
	get  func(r Record) uint64
	set  func(r Record, v uint64) Record
	fold func(res *kernels.Result) uint64 // the value of a completed case
}

// columns is the measured-column table, in Record's field order: the
// order json.Marshal writes, which the codec reproduces.
var columns = []column{
	{
		name: "cycles", key: "Cycles",
		get:  func(r Record) uint64 { return r.Cycles },
		set:  func(r Record, v uint64) Record { r.Cycles = v; return r },
		fold: func(res *kernels.Result) uint64 { return res.Cycles },
	},
	{
		name: "instrs", key: "Instrs",
		get:  func(r Record) uint64 { return r.Instrs },
		set:  func(r Record, v uint64) Record { r.Instrs = v; return r },
		fold: launchSum(func(l *ocl.LaunchResult) uint64 { return l.Stats.Issued }),
	},
	{
		name: "mem_stall", key: "MemStall",
		get:  func(r Record) uint64 { return r.MemStall },
		set:  func(r Record, v uint64) Record { r.MemStall = v; return r },
		fold: launchSum(func(l *ocl.LaunchResult) uint64 { return l.Stats.MemStall }),
	},
	{
		name: "exec_stall", key: "ExecStall",
		get:  func(r Record) uint64 { return r.ExecStall },
		set:  func(r Record, v uint64) Record { r.ExecStall = v; return r },
		fold: launchSum(func(l *ocl.LaunchResult) uint64 { return l.Stats.ExecStall }),
	},
}

// launchSum folds a per-launch count over every launch of a case.
func launchSum(count func(l *ocl.LaunchResult) uint64) func(*kernels.Result) uint64 {
	return func(res *kernels.Result) uint64 {
		var n uint64
		for _, l := range res.Launches {
			n += count(l)
		}
		return n
	}
}

// CacheReport summarizes the campaign engine's cross-run reuse for one
// sweep: the program cache's, the input memo's and the process device
// pool's (ProcessPool) hit/miss deltas over the run, and how many records a
// Resume spliced in from the checkpoint. All three caches outlive a Run, so
// a warm Run may build no device (DevicesNew counts builds, not the growth
// of a reused device), and the deltas of Runs that overlap in time count
// each other's hits and misses.
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
	Records []Record
	// Cache reports the campaign engine's reuse counters for this run
	// (zero value when Results was reconstructed from a CSV).
	Cache CacheReport
}

// Run executes the sweep as a streaming campaign: tasks fan out over the
// worker pool, each completed record goes through Campaign.Submit to the
// checkpoint (when configured) and the OnRecord sink in completion order,
// and the final record grid is assembled in deterministic task order. With
// Resume, tasks already present in the checkpoint are spliced in without
// re-simulating; the resulting Records are byte-identical to an
// uninterrupted run. Workers take their devices from the process's pool
// (ProcessPool), which outlives the Run; a task whose configuration is
// larger than a reused device's grows that device in place.
func Run(opts Options) (*Results, error) {
	c, err := NewCampaign(opts, false)
	if err != nil {
		return nil, err
	}
	opts = c.opts
	pool := ProcessPool()
	devBase := pool.Stats()
	progBase := ocl.ProgramCacheStats()
	inputBase := kernels.InputCacheStats()

	// Workers claim tasks by advancing a shared cursor over the task slice:
	// at ~100 µs a task, a channel hand-off's park/wake per task is a
	// measurable share of the run.
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slot := int(cursor.Add(1)) - 1
				if slot >= len(c.tasks) {
					return
				}
				// Only the resume splice fills a slot before the workers
				// start, and a slot's own worker is its only writer after.
				// A checkpoint fault stays recorded for Err.
				if c.state[slot] == slotOpen {
					c.Submit(slot, runOne(opts, pool, c.tasks[slot]))
				}
			}
		}()
	}
	wg.Wait()
	c.Close() // a close fault is reported by Results, through Err

	// Every worker has returned, so the slots are final and need no copy.
	prog := ocl.ProgramCacheStats()
	inp := kernels.InputCacheStats()
	dev := pool.Stats()
	res := &Results{Records: c.recs, Cache: CacheReport{
		ProgramHits:   prog.Hits - progBase.Hits,
		ProgramMisses: prog.Misses - progBase.Misses,
		InputHits:     inp.Hits - inputBase.Hits,
		InputMisses:   inp.Misses - inputBase.Misses,
		DevicesReused: dev.Hits - devBase.Hits,
		DevicesNew:    dev.Misses - devBase.Misses,
		Resumed:       c.resumed,
	}}
	return res, c.Err()
}

func runOne(opts Options, pool *ocl.DevicePool, t Task) Record {
	rec := t.Record()
	cfg, err := t.config()
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	spec, err := kernels.ByName(t.Kernel)
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
	d.DispatchOverhead = uint64(opts.DispatchOverhead)
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
	fillRecord(&rec, res)
	return rec
}

// fillRecord folds a completed case result into rec. A case that produced
// no launches is recorded as a failure instead of indexing Launches[0] (an
// index panic here used to kill the whole worker).
func fillRecord(rec *Record, res *kernels.Result) {
	if len(res.Launches) == 0 {
		rec.Err = "case completed without launches"
		return
	}
	rec.LWS = res.Launches[0].LWS
	for _, c := range columns {
		*rec = c.set(*rec, c.fold(res))
	}
}
