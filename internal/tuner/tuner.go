// Package tuner implements an empirical lws autotuner — the
// hardware-agnostic alternative the paper's runtime technique replaces.
// It searches candidate local work sizes by timing probe launches on the
// device, which costs one full (or scaled-down) execution per candidate;
// Eq. 1 gets the same answer from two integers. The package exists to
// quantify that trade-off (see the autotune example, and
// TestTunerOnRealDevice, which holds Eq. 1 within 15 % of the searched
// optimum at a fraction of the search's cost).
package tuner

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Runner executes one probe launch at a given lws and reports its cycles.
// It abstracts the kernel-under-tuning so the tuner is reusable across
// workloads (kernels.Case.Run composes directly).
type Runner func(lws int) (cycles uint64, err error)

// Result is the outcome of a search.
type Result struct {
	BestLWS    int
	BestCycles uint64
	// Probes lists every candidate tried, in evaluation order.
	Probes []Probe
	// Eq1LWS is the closed-form recommendation for the same launch, and
	// Eq1Cycles its measured cost (present when the candidate set
	// contained it).
	Eq1LWS    int
	Eq1Cycles uint64
}

// Probe is one timed candidate.
type Probe struct {
	LWS    int
	Cycles uint64
}

// Candidates returns the default search space for a launch: powers of two
// from 1 up to gws (capped at 4096 candidates implicitly by the doubling),
// plus the Eq. 1 value so the comparison is always available.
func Candidates(gws int, hw core.HWInfo) []int {
	set := map[int]bool{}
	var out []int
	add := func(v int) {
		if v >= 1 && v <= gws && !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	for v := 1; v <= gws; v *= 2 {
		add(v)
		if v > 1<<30 {
			break
		}
	}
	add(gws)
	add(core.OptimalLWS(gws, hw))
	sort.Ints(out)
	return out
}

// Exhaustive times every candidate and returns the empirical best.
func Exhaustive(run Runner, gws int, hw core.HWInfo) (*Result, error) {
	cands := Candidates(gws, hw)
	res := &Result{Eq1LWS: core.OptimalLWS(gws, hw)}
	for _, lws := range cands {
		cycles, err := run(lws)
		if err != nil {
			return nil, fmt.Errorf("tuner: probe lws=%d: %w", lws, err)
		}
		res.Probes = append(res.Probes, Probe{LWS: lws, Cycles: cycles})
		if res.BestCycles == 0 || cycles < res.BestCycles {
			res.BestLWS, res.BestCycles = lws, cycles
		}
		if lws == res.Eq1LWS {
			res.Eq1Cycles = cycles
		}
	}
	return res, nil
}

// HillClimb starts from the Eq. 1 value and walks to a local minimum by
// doubling/halving, probing far fewer points than Exhaustive. It exploits
// the empirically unimodal lws-latency curve (see the autotune example).
func HillClimb(run Runner, gws int, hw core.HWInfo) (*Result, error) {
	res := &Result{Eq1LWS: core.OptimalLWS(gws, hw)}
	seen := map[int]uint64{}
	probe := func(lws int) (uint64, error) {
		if c, ok := seen[lws]; ok {
			return c, nil
		}
		c, err := run(lws)
		if err != nil {
			return 0, fmt.Errorf("tuner: probe lws=%d: %w", lws, err)
		}
		seen[lws] = c
		res.Probes = append(res.Probes, Probe{LWS: lws, Cycles: c})
		return c, nil
	}

	cur := res.Eq1LWS
	curCycles, err := probe(cur)
	if err != nil {
		return nil, err
	}
	res.Eq1Cycles = curCycles
	for {
		bestNext, bestCycles := 0, curCycles
		for _, cand := range []int{cur * 2, cur / 2} {
			if cand < 1 || cand > gws {
				continue
			}
			c, err := probe(cand)
			if err != nil {
				return nil, err
			}
			if c < bestCycles {
				bestNext, bestCycles = cand, c
			}
		}
		if bestNext == 0 {
			break
		}
		cur, curCycles = bestNext, bestCycles
	}
	res.BestLWS, res.BestCycles = cur, curCycles
	return res, nil
}

// Strategy is one lws search procedure over a Runner (Exhaustive and
// HillClimb curry their gws/hw arguments into this shape).
type Strategy func(Runner) (*Result, error)

// SchedProbe is one scheduler policy's tuned outcome.
type SchedProbe struct {
	Sched string
	Res   *Result
}

// AcrossScheds widens the empirical search space to the warp-scheduler
// axis: it runs the given lws search once per scheduler policy (mk builds
// the policy's Runner) and returns the per-policy results plus the index
// of the best (policy, lws) point. The policy names are opaque to the
// tuner — callers pass sim scheduler names and a Runner factory that
// configures the device accordingly — so the package keeps depending only
// on core.
func AcrossScheds(scheds []string, mk func(sched string) Runner, search Strategy) ([]SchedProbe, int, error) {
	if len(scheds) == 0 {
		return nil, -1, fmt.Errorf("tuner: no scheduler policies to search")
	}
	probes := make([]SchedProbe, 0, len(scheds))
	best := -1
	for _, sched := range scheds {
		res, err := search(mk(sched))
		if err != nil {
			return nil, -1, fmt.Errorf("tuner: sched %s: %w", sched, err)
		}
		probes = append(probes, SchedProbe{Sched: sched, Res: res})
		if best < 0 || res.BestCycles < probes[best].Res.BestCycles {
			best = len(probes) - 1
		}
	}
	return probes, best, nil
}

// Overhead reports how much simulated work the search spent relative to a
// single launch at the best point — the cost a runtime-analytic mapper
// avoids entirely.
func (r *Result) Overhead() float64 {
	if r.BestCycles == 0 {
		return 0
	}
	var total uint64
	for _, p := range r.Probes {
		total += p.Cycles
	}
	return float64(total) / float64(r.BestCycles)
}

// Eq1Gap returns measured(eq1)/measured(best) - how close the closed form
// got to the searched optimum (1.0 = identical).
func (r *Result) Eq1Gap() float64 {
	if r.Eq1Cycles == 0 || r.BestCycles == 0 {
		return 0
	}
	return float64(r.Eq1Cycles) / float64(r.BestCycles)
}
