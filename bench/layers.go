package main

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// layerTimes sums the spans of a traced pass by name.
type layerTimes struct {
	byName   map[string][]float64 // span durations in ns
	poolMiss []float64
	poolHit  []float64
	children float64 // Σ time inside child spans of tasks
}

func (tp *tracedPass) layerTimes() layerTimes {
	lt := layerTimes{byName: map[string][]float64{}}
	for _, s := range tp.tr.spans {
		lt.byName[s.Name] = append(lt.byName[s.Name], s.dur())
		if s.Parent >= 0 {
			lt.children += s.dur()
		}
		if s.Name == spanPoolGet {
			if s.Attr == attrPoolMiss {
				lt.poolMiss = append(lt.poolMiss, s.dur())
			} else {
				lt.poolHit = append(lt.poolHit, s.dur())
			}
		}
	}
	return lt
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedMetrics runs the traced pass, the probes and (durable workload only)
// the durable-path and service measurements, and fills in every per-layer
// metric. A metric that does not apply to the workload reads 0.
func tracedMetrics(w workload, seed int64, sh shape, dir string, cold pass, ts *timedStats, rep *report) {
	m := rep.metrics
	for _, pm := range perLayer {
		m[pm.Name] = 0
	}

	tp, err := runTraced(w, seed)
	if err != nil {
		rep.problem("traced pass: %v", err)
		return
	}
	rep.attempted += len(tp.replicas) + len(tp.failures)
	rep.failed += len(tp.failures)
	for _, f := range tp.failures {
		rep.problem("traced pass: %s", f)
	}
	for _, r := range ts.last.records {
		if got, want := tp.replicas[r.Key()], (replica{r.Cycles, r.Instrs, r.LWS}); got != want {
			rep.problem("traced pass: %s gave %+v, the timed passes gave %+v", r.Key(), got, want)
		}
	}
	if sh.traceOut != "" {
		if err := tp.tr.write(sh.traceOut); err != nil {
			rep.problem("writing spans: %v", err)
		}
	}

	lt := tp.layerTimes()
	taskNS := lt.byName[spanTask]
	m["sweep.task_ms_p50"] = stats.Quantile(taskNS, 0.5) / 1e6
	m["sweep.task_ms_p90"] = stats.Quantile(taskNS, 0.9) / 1e6
	m["sweep.task_ms_max"] = stats.Quantile(taskNS, 1) / 1e6
	m["sweep.run_overhead_ratio"] = ratio(m["wall_s"]*float64(w.sweepWorkers()), sum(taskNS)/1e9)
	m["sweep.cold_penalty_s"] = cold.wall.Seconds() - m["wall_s"]
	m["sweep.programs_built_cold"] = float64(cold.cache.ProgramMisses)
	m["sweep.inputs_built_cold"] = float64(cold.cache.InputMisses)
	warm := ts.last.cache
	m["sweep.device_reuse_ratio"] = ratio(float64(warm.DevicesReused), float64(warm.DevicesReused+warm.DevicesNew))
	m["ocl.progcache_hit_ratio"] = ratio(float64(warm.ProgramHits), float64(warm.ProgramHits+warm.ProgramMisses))
	m["kernels.inputs_hit_ratio"] = ratio(float64(warm.InputHits), float64(warm.InputHits+warm.InputMisses))

	m["ocl.pool_get_ms_total"] = sum(lt.byName[spanPoolGet]) / 1e6
	m["ocl.new_device_ms_p50"] = median(lt.poolMiss) / 1e6
	m["ocl.pool_get_hit_us_p50"] = median(lt.poolHit) / 1e3
	m["ocl.pool_put_ms_total"] = sum(lt.byName[spanPoolPut]) / 1e6
	m["ocl.launches"] = float64(len(tp.launches))
	m["ocl.enqueue_ms_total"] = sum(lt.byName[spanEnqueue]) / 1e6
	m["kernels.build_ms_total"] = sum(lt.byName[spanBuild]) / 1e6
	m["kernels.verify_ms_total"] = sum(lt.byName[spanVerify]) / 1e6
	m["trace.span_count"] = float64(len(tp.tr.spans))
	m["trace.coverage"] = ratio(lt.children, sum(taskNS))

	simulatedCounts(tp, m)
	runProbes(w, seed, sh.probeDiv, m, rep)

	// Host cost of simulation proper: the enqueue spans less the fixed cost
	// of a launch, over what was simulated.
	simNS := (m["ocl.enqueue_ms_total"]*1e3 - m["ocl.launches"]*m["ocl.enqueue_fixed_us"]) * 1e3
	m["sim.host_ns_per_instr"] = ratio(simNS, m["sim.instrs"])
	m["sim.host_ns_per_cycle"] = ratio(simNS, m["sim.cycles"])

	m["host.allocs_per_task"] = median(ts.mallocs)
	m["host.gc_cycles_per_pass"] = median(ts.gcCycles)
	m["host.gc_pause_ms_per_pass"] = median(ts.gcPauseMS)

	if w.durable {
		durableMetrics(w, seed, dir, ts, m, rep)
	}
}

// simulatedCounts sums what the simulated device did over the traced pass's
// launches. Every one of these repeats exactly: a change to the host engine
// alone must leave them all identical.
func simulatedCounts(tp *tracedPass, m map[string]float64) {
	var st sim.CoreStats
	var simCycles, coreCycles uint64
	var l1a, l1h, l2a, l2h, reads, wbs, busy uint64
	regimes := map[core.Regime]float64{}
	for _, lr := range tp.launches {
		st.Issued += lr.Stats.Issued
		st.LaneOps += lr.Stats.LaneOps
		st.Loads += lr.Stats.Loads
		st.Stores += lr.Stats.Stores
		st.LineRequests += lr.Stats.LineRequests
		st.MemStall += lr.Stats.MemStall
		st.ExecStall += lr.Stats.ExecStall
		st.IdleAfterEnd += lr.Stats.IdleAfterEnd
		simCycles += lr.SimCycles
		coreCycles += lr.SimCycles * uint64(lr.cores)
		l1a += lr.L1.Accesses
		l1h += lr.L1.Hits
		l2a += lr.L2.Accesses
		l2h += lr.L2.Hits
		reads += lr.DRAM.LineReads
		wbs += lr.DRAM.Writebacks
		busy += lr.DRAM.BusyCycles
		regimes[lr.Regime]++
	}
	n := float64(len(tp.launches))
	m["sim.instrs"] = float64(st.Issued)
	m["sim.cycles"] = float64(simCycles)
	m["sim.lane_ops"] = float64(st.LaneOps)
	m["sim.loads"] = float64(st.Loads)
	m["sim.stores"] = float64(st.Stores)
	m["sim.line_requests"] = float64(st.LineRequests)
	m["sim.mem_stall_cycles"] = float64(st.MemStall)
	m["sim.exec_stall_cycles"] = float64(st.ExecStall)
	m["sim.idle_after_end_cycles"] = float64(st.IdleAfterEnd)
	m["sim.lanes_per_issue"] = ratio(float64(st.LaneOps), float64(st.Issued))
	m["sim.ipc_per_core"] = ratio(float64(st.Issued), float64(coreCycles))
	m["sim.lines_per_mem_instr"] = ratio(float64(st.LineRequests), float64(st.Loads+st.Stores))
	m["mem.l1_accesses"] = float64(l1a)
	m["mem.l1_hit_ratio"] = ratio(float64(l1h), float64(l1a))
	m["mem.l2_accesses"] = float64(l2a)
	m["mem.l2_hit_ratio"] = ratio(float64(l2h), float64(l2a))
	m["mem.dram_line_reads"] = float64(reads)
	m["mem.dram_writebacks"] = float64(wbs)
	m["mem.dram_busy_cycles"] = float64(busy)
	m["core.regime_under_share"] = ratio(regimes[core.RegimeUnder], n)
	m["core.regime_exact_share"] = ratio(regimes[core.RegimeExact], n)
	m["core.regime_over_share"] = ratio(regimes[core.RegimeOver], n)
	m["core.lws_ours_mean"] = stats.Mean(tp.oursLWS)
}
