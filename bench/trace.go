package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// span is one timed call into a layer, recorded from the harness around the
// layer's public function. Spans of one task share its key; Parent is the
// span that caused this one (-1 for a task's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Task   string `json:"task"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the pass has ended.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent int, task string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Task: task, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.origin)) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names, one per public call the sweep's task runner makes.
const (
	spanTask       = "sweep.task"
	spanByName     = "kernels.by_name"
	spanConfig     = "sim.default_config"
	spanPoolGet    = "ocl.pool_get"
	spanSetMapper  = "ocl.set_mapper"
	spanBuild      = "kernels.build"
	spanEnqueue    = "ocl.enqueue"
	spanVerify     = "kernels.verify"
	spanPoolPut    = "ocl.pool_put"
	attrPoolHit    = "hit"
	attrPoolMiss   = "miss"
	spansPerTaskUB = 12
)

// replica is what the traced pass found for one task.
type replica struct {
	cycles, instrs uint64
	lws            int
}

// launch is one completed launch and the core count of its device.
type launch struct {
	*ocl.LaunchResult
	cores int
}

// tracedPass is the result of the traced pass.
type tracedPass struct {
	tr       tracer
	replicas map[string]replica // by task key
	launches []launch
	oursLWS  []float64 // lws of every launch under the "ours" mapper
	failures []string  // tasks that failed or did not verify
}

// runTraced replays the workload's tasks on one goroutine through the same
// public calls sweep's task runner makes, each inside a span, verifying every
// task's output. The durable workload is replayed shard by shard, each shard
// on its own pool, so the pool sees the stride it sees in the timed flow.
func runTraced(w workload, seed int64) (*tracedPass, error) {
	opts := w.options(seed)
	tasks, err := sweep.TaskGrid(opts)
	if err != nil {
		return nil, err
	}
	workers := w.sweepWorkers()
	// sweep.Run divides the host between its workers and each simulation.
	engineWorkers := max(runtime.GOMAXPROCS(0)/workers, 1)
	shards := 1
	if w.durable {
		shards = durableShards
	}
	tp := &tracedPass{replicas: make(map[string]replica, len(tasks))}
	tp.tr = tracer{origin: time.Now(), spans: make([]span, 0, len(tasks)*spansPerTaskUB)}
	for shard := 0; shard < shards; shard++ {
		pool := ocl.NewDevicePool(workers)
		for _, t := range tasks {
			if t.Index%shards != shard {
				continue
			}
			if err := tp.task(t, opts, pool, engineWorkers); err != nil {
				tp.failures = append(tp.failures, fmt.Sprintf("%s: %v", t.Key(), err))
			}
		}
	}
	return tp, nil
}

// task runs one task inside spans. It mirrors the sweep's task runner for
// default options; the identity check against the timed passes' records
// catches any drift between the two.
func (tp *tracedPass) task(t sweep.Task, opts sweep.Options, pool *ocl.DevicePool, engineWorkers int) error {
	tr := &tp.tr
	key := t.Key()
	root := tr.begin(spanTask, -1, key)
	defer tr.end(root)

	id := tr.begin(spanByName, root, key)
	spec, err := kernels.ByName(t.Kernel)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin(spanConfig, root, key)
	cfg := sim.DefaultConfig(t.Config.Cores, t.Config.Warps, t.Config.Threads)
	setEngineWorkers(&cfg, engineWorkers)
	tr.end(id)

	misses := pool.Stats().Misses
	id = tr.begin(spanPoolGet, root, key)
	d, err := pool.Get(cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.spans[id].Attr = attrPoolHit
	if pool.Stats().Misses != misses {
		tr.spans[id].Attr = attrPoolMiss
	}
	defer func() {
		id := tr.begin(spanPoolPut, root, key)
		pool.Put(d)
		tr.end(id)
	}()

	id = tr.begin(spanSetMapper, root, key)
	if opts.DispatchOverhead >= 0 {
		// The zero value of Options.DispatchOverhead means no driver cost,
		// not the runtime's default.
		d.DispatchOverhead = uint64(opts.DispatchOverhead)
	}
	d.SetMapper(t.Mapper)
	tr.end(id)

	id = tr.begin(spanBuild, root, key)
	c, err := spec.Build(d, kernels.Params{Scale: opts.Scale, Seed: opts.Seed})
	tr.end(id)
	if err != nil {
		return err
	}

	var rep replica
	for i, l := range c.Launches {
		id = tr.begin(spanEnqueue, root, key)
		lr, err := d.EnqueueNDRange(l.Kernel, l.GWS, 0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("launch %d: %w", i, err)
		}
		if i == 0 {
			rep.lws = lr.LWS
		}
		rep.cycles += lr.Cycles
		rep.instrs += lr.Stats.Issued
		tp.launches = append(tp.launches, launch{lr, t.Config.Cores})
		if t.Mapper.Name() == (core.Auto{}).Name() {
			tp.oursLWS = append(tp.oursLWS, float64(lr.LWS))
		}
	}
	tp.replicas[key] = rep

	id = tr.begin(spanVerify, root, key)
	err = c.Verify(d)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// setEngineWorkers sets sim.Config's host-parallelism field the way the sweep
// does for each task. It goes through reflection so that the harness still
// compiles, unedited, on a commit that has removed sim-level parallelism and
// the field with it; there the sequential engine is the only one and nothing
// needs setting.
func setEngineWorkers(cfg *sim.Config, n int) {
	if f := reflect.ValueOf(cfg).Elem().FieldByName("Workers"); f.IsValid() && f.CanInt() {
		f.SetInt(int64(n))
	}
}
