package main

// The metric catalogue: every name the harness prints, with its unit and
// direction, whether it is host time (H) or a simulated count (S), and which
// end-to-end metric on which workload it is expected to move ("moves"; a
// metric/workload pairing that is not listed is predicted not to change).
// BENCHMARK.json and README.md repeat this table; bench_test.go keeps the
// three in step.

type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median a later commit may lose
	Sim    bool    // S: a simulated count that repeats exactly; otherwise H: host time or memory
	Moves  []move  // per-layer only
}

// move names one end-to-end metric on one workload ("*" = every workload).
type move struct{ Metric, Workload string }

const (
	wlCompute   = "compute_dense"
	wlIrregular = "irregular_mem"
	wlWide      = "wide_device"
	wlDurable   = "short_durable"
)

var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_instrs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_task", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "device_cycles", Unit: "cycles", Better: "lower", Bound: 0.001, Sim: true},
	{Name: "ratio_naive", Unit: "ratio", Better: "higher", Bound: 0.001, Sim: true},
	{Name: "ratio_fixed32", Unit: "ratio", Better: "higher", Bound: 0.001, Sim: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// allMetrics is the whole catalogue, end-to-end metrics first.
func allMetrics() []metric {
	return append(append([]metric(nil), endToEnd...), perLayer...)
}

func on(m string, workloads ...string) []move {
	out := make([]move, len(workloads))
	for i, w := range workloads {
		out[i] = move{m, w}
	}
	return out
}

func join(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

var (
	wallLongTasks = on("wall_s", wlCompute, wlWide)
	wallDurable   = on("wall_s", wlDurable)
	setupAll      = on("setup_s", "*")
	simExact      = join(on("device_cycles", "*"), on("ratio_naive", "*"), on("ratio_fixed32", "*"))
	ratios        = join(on("ratio_naive", "*"), on("ratio_fixed32", "*"))
	hostSim       = join(on("wall_s", wlCompute, wlIrregular, wlWide), on("sim_instrs_per_s", wlCompute, wlIrregular, wlWide))
)

var perLayer = []metric{
	// sweep
	{Name: "sweep.task_ms_p50", Unit: "ms", Better: "lower", Moves: wallLongTasks},
	{Name: "sweep.task_ms_p90", Unit: "ms", Better: "lower", Moves: wallLongTasks},
	{Name: "sweep.task_ms_max", Unit: "ms", Better: "lower", Moves: wallLongTasks},
	{Name: "sweep.run_overhead_ratio", Unit: "ratio", Better: "lower", Moves: wallLongTasks},
	{Name: "sweep.cold_penalty_s", Unit: "s", Better: "lower", Moves: setupAll},
	{Name: "sweep.programs_built_cold", Unit: "count", Better: "lower", Sim: true, Moves: setupAll},
	{Name: "sweep.inputs_built_cold", Unit: "count", Better: "lower", Sim: true, Moves: setupAll},
	{Name: "sweep.device_reuse_ratio", Unit: "ratio", Better: "higher", Moves: join(wallDurable, on("alloc_mb_per_task", wlDurable))},
	{Name: "sweep.device_reuse_ratio_unsharded", Unit: "ratio", Better: "higher"},
	{Name: "sweep.shard_runs_s", Unit: "s", Better: "lower", Moves: wallDurable},
	{Name: "sweep.checkpoint_append_us", Unit: "us", Better: "lower", Moves: wallDurable},
	{Name: "sweep.checkpoint_bytes_per_record", Unit: "B", Better: "lower", Sim: true, Moves: wallDurable},
	{Name: "sweep.read_checkpoint_ms", Unit: "ms", Better: "lower", Moves: wallDurable},
	{Name: "sweep.merge_ms", Unit: "ms", Better: "lower", Moves: wallDurable},
	{Name: "sweep.resume_ms", Unit: "ms", Better: "lower", Moves: wallDurable},
	{Name: "sweep.write_csv_ms", Unit: "ms", Better: "lower", Moves: wallDurable},
	{Name: "sweep.render_ms", Unit: "ms", Better: "lower", Moves: wallDurable},
	// service: on no timed path; a "before" for the one-TaskSource refactor.
	{Name: "service.campaign_s", Unit: "s", Better: "lower"},
	{Name: "service.overhead_ratio", Unit: "ratio", Better: "lower"},
	// ocl
	{Name: "ocl.pool_get_ms_total", Unit: "ms", Better: "lower", Moves: join(wallDurable, on("alloc_mb_per_task", wlDurable), on("peak_rss_mb", wlWide))},
	{Name: "ocl.new_device_ms_p50", Unit: "ms", Better: "lower", Moves: join(wallDurable, on("alloc_mb_per_task", wlDurable), on("peak_rss_mb", wlWide))},
	{Name: "ocl.pool_get_hit_us_p50", Unit: "us", Better: "lower", Moves: wallDurable},
	{Name: "ocl.pool_put_ms_total", Unit: "ms", Better: "lower", Moves: wallDurable},
	{Name: "ocl.launches", Unit: "count", Better: "lower", Sim: true},
	{Name: "ocl.enqueue_ms_total", Unit: "ms", Better: "lower", Moves: join(on("wall_s", "*"), on("sim_instrs_per_s", "*"))},
	{Name: "ocl.progcache_hit_ratio", Unit: "ratio", Better: "higher", Moves: join(wallDurable, on("alloc_mb_per_task", wlDurable))},
	{Name: "ocl.enqueue_fixed_us", Unit: "us", Better: "lower", Moves: wallDurable},
	{Name: "ocl.enqueue_cold_us", Unit: "us", Better: "lower", Moves: setupAll},
	{Name: "ocl.upload_mb_per_s", Unit: "MB/s", Better: "higher", Moves: wallDurable},
	{Name: "ocl.readback_mb_per_s", Unit: "MB/s", Better: "higher", Moves: wallDurable},
	// kernels
	{Name: "kernels.build_ms_total", Unit: "ms", Better: "lower", Moves: wallDurable},
	{Name: "kernels.inputs_hit_ratio", Unit: "ratio", Better: "higher", Moves: wallDurable},
	{Name: "kernels.build_cold_ms", Unit: "ms", Better: "lower", Moves: setupAll},
	{Name: "kernels.verify_ms_total", Unit: "ms", Better: "lower"}, // campaigns run unverified: costs a verify-everywhere nightly
	// sim: counts from LaunchResult (S), host cost from the enqueue spans and bare-sim probes (H)
	{Name: "sim.instrs", Unit: "count", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.cycles", Unit: "cycles", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.lane_ops", Unit: "count", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.loads", Unit: "count", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.stores", Unit: "count", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.line_requests", Unit: "count", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.mem_stall_cycles", Unit: "cycles", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.exec_stall_cycles", Unit: "cycles", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.idle_after_end_cycles", Unit: "cycles", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.lanes_per_issue", Unit: "ratio", Better: "higher", Sim: true, Moves: simExact},
	{Name: "sim.ipc_per_core", Unit: "ratio", Better: "higher", Sim: true, Moves: simExact},
	{Name: "sim.lines_per_mem_instr", Unit: "ratio", Better: "lower", Sim: true, Moves: simExact},
	{Name: "sim.host_ns_per_instr", Unit: "ns", Better: "lower", Moves: hostSim},
	{Name: "sim.host_ns_per_cycle", Unit: "ns", Better: "lower", Moves: hostSim},
	{Name: "sim.alu_loop_ns_per_instr", Unit: "ns", Better: "lower", Moves: join(on("wall_s", wlCompute), on("sim_instrs_per_s", wlCompute))},
	{Name: "sim.mem_stream_ns_per_instr", Unit: "ns", Better: "lower", Moves: join(on("wall_s", wlIrregular, wlCompute), on("sim_instrs_per_s", wlIrregular, wlCompute))},
	{Name: "sim.divergent_ns_per_instr", Unit: "ns", Better: "lower", Moves: join(on("wall_s", wlIrregular), on("sim_instrs_per_s", wlIrregular))},
	{Name: "sim.idle_cores_ns_per_cycle", Unit: "ns", Better: "lower", Moves: join(on("wall_s", wlWide), on("sim_instrs_per_s", wlWide))},
	{Name: "sim.reset_us", Unit: "us", Better: "lower", Moves: on("wall_s", wlDurable, wlWide)},
	// mem
	{Name: "mem.l1_accesses", Unit: "count", Better: "lower", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.l1_hit_ratio", Unit: "ratio", Better: "higher", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.l2_accesses", Unit: "count", Better: "lower", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.l2_hit_ratio", Unit: "ratio", Better: "higher", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.dram_line_reads", Unit: "count", Better: "lower", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.dram_writebacks", Unit: "count", Better: "lower", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.dram_busy_cycles", Unit: "cycles", Better: "lower", Sim: true, Moves: on("device_cycles", "*")},
	{Name: "mem.hier_access_seq_ns", Unit: "ns", Better: "lower", Moves: on("wall_s", wlIrregular)},
	{Name: "mem.hier_access_rand_ns", Unit: "ns", Better: "lower", Moves: on("wall_s", wlIrregular)},
	{Name: "mem.coalesce_unit_ns", Unit: "ns", Better: "lower", Moves: on("wall_s", wlIrregular)},
	{Name: "mem.coalesce_scatter_ns", Unit: "ns", Better: "lower", Moves: on("wall_s", wlIrregular)},
	{Name: "mem.coalesce_template_ns", Unit: "ns", Better: "lower", Moves: on("wall_s", wlIrregular)},
	{Name: "mem.memory_reset_us", Unit: "us", Better: "lower", Moves: wallDurable},
	{Name: "mem.hier_reset_us", Unit: "us", Better: "lower", Moves: wallDurable},
	// asm
	{Name: "asm.assemble_us_per_kinst", Unit: "us", Better: "lower", Moves: setupAll},
	// core: explains the ratios
	{Name: "core.regime_under_share", Unit: "ratio", Better: "lower", Sim: true, Moves: ratios},
	{Name: "core.regime_exact_share", Unit: "ratio", Better: "higher", Sim: true, Moves: ratios},
	{Name: "core.regime_over_share", Unit: "ratio", Better: "lower", Sim: true, Moves: ratios},
	{Name: "core.lws_ours_mean", Unit: "count", Better: "higher", Sim: true, Moves: ratios},
	// host: the Go runtime
	{Name: "host.allocs_per_task", Unit: "count", Better: "lower", Moves: join(on("alloc_mb_per_task", wlDurable), wallDurable)},
	{Name: "host.gc_cycles_per_pass", Unit: "count", Better: "lower", Moves: join(on("alloc_mb_per_task", wlDurable), wallDurable)},
	{Name: "host.gc_pause_ms_per_pass", Unit: "ms", Better: "lower", Moves: join(on("alloc_mb_per_task", wlDurable), wallDurable)},
	// trace: the harness's own tracing
	{Name: "trace.span_count", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}
