package sweep

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kernels"
	"repro/internal/stats"
)

// sampleKey identifies one ratio sample: a configuration at one grid
// point. Mapper ratios are always compared within a point — same
// scheduler, MSHR bound, L1 geometry and prefetcher — never across points
// (a single-point sweep degenerates to config-only samples).
func sampleKey(rec Record) string {
	// Built in one stack buffer, the configuration spelled as
	// core.HWInfo.Name does: the report keys every record once per ratio
	// it takes part in.
	c := rec.Config
	key := fmt.Appendf(make([]byte, 0, 64), "%dc%dw%dt", c.Cores, c.Warps, c.Threads)
	for _, a := range Axes {
		key = append(append(key, '/'), a.get(rec)...)
	}
	return string(key)
}

// samples returns value per sample key over the successful records of one
// (kernel, mapper).
func (r *Results) samples(kernel, mapper string, value func(Record) float64) map[string]float64 {
	out := map[string]float64{}
	for _, rec := range r.Records {
		if rec.Kernel == kernel && rec.Mapper == mapper && rec.Err == "" {
			out[sampleKey(rec)] = value(rec)
		}
	}
	return out
}

func cycles(rec Record) float64 { return float64(rec.Cycles) }

// ratios returns baseline/ours ratios of value, one per sample both
// mappers ran (and ours did not score zero on), in sample-key order.
func (r *Results) ratios(kernel, baseline, ours string, value func(Record) float64) []float64 {
	base := r.samples(kernel, baseline, value)
	our := r.samples(kernel, ours, value)
	names := make([]string, 0, len(base))
	for name := range base {
		if our[name] > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]float64, 0, len(names))
	for _, name := range names {
		out = append(out, base[name]/our[name])
	}
	return out
}

// Mappers returns the distinct mapper names present, in first-seen order.
func (r *Results) Mappers() []string {
	var out []string
	seen := map[string]bool{}
	for _, rec := range r.Records {
		if !seen[rec.Mapper] {
			seen[rec.Mapper] = true
			out = append(out, rec.Mapper)
		}
	}
	return out
}

// Kernels returns the distinct kernel names present, in first-seen order.
func (r *Results) Kernels() []string {
	var out []string
	seen := map[string]bool{}
	for _, rec := range r.Records {
		if !seen[rec.Kernel] {
			seen[rec.Kernel] = true
			out = append(out, rec.Kernel)
		}
	}
	return out
}

// Ratios returns baseline/ours cycle ratios per configuration and grid
// point for one kernel — the samples of one Figure 2 violin. Ratios > 1
// mean "ours" is faster.
func (r *Results) Ratios(kernel, baseline, ours string) []float64 {
	return r.ratios(kernel, baseline, ours, cycles)
}

// KernelSummary is one kernel's Figure 2 data-table row pair.
type KernelSummary struct {
	Kernel  string
	Group   kernels.Group
	VsNaive stats.RatioSummary // lws=1 / ours
	VsFixed stats.RatioSummary // lws=32 / ours
}

// Summaries computes the per-kernel Figure 2 tables against the "ours"
// mapper.
func (r *Results) Summaries() []KernelSummary {
	var out []KernelSummary
	for _, k := range r.Kernels() {
		ks := KernelSummary{Kernel: k}
		if spec, err := kernels.ByName(k); err == nil {
			ks.Group = spec.Group
		}
		ks.VsNaive = stats.SummarizeRatios(r.Ratios(k, "lws=1", "ours"))
		ks.VsFixed = stats.SummarizeRatios(r.Ratios(k, "lws=32", "ours"))
		out = append(out, ks)
	}
	return out
}

// Aggregate is the Section 3 headline: the mean ratio over a kernel group
// (GroupMath reproduces "1.3x over lws=1 and 3.7x over lws=32").
type Aggregate struct {
	Group   kernels.Group
	VsNaive float64
	VsFixed float64
	Kernels int
}

// Aggregates computes group-level mean ratios.
func (r *Results) Aggregates() []Aggregate {
	byGroup := map[kernels.Group]*Aggregate{}
	order := []kernels.Group{}
	for _, s := range r.Summaries() {
		a := byGroup[s.Group]
		if a == nil {
			a = &Aggregate{Group: s.Group}
			byGroup[s.Group] = a
			order = append(order, s.Group)
		}
		a.VsNaive += s.VsNaive.Avg
		a.VsFixed += s.VsFixed.Avg
		a.Kernels++
	}
	out := make([]Aggregate, 0, len(order))
	for _, g := range order {
		a := byGroup[g]
		if a.Kernels > 0 {
			a.VsNaive /= float64(a.Kernels)
			a.VsFixed /= float64(a.Kernels)
		}
		out = append(out, *a)
	}
	return out
}

// EnergyRatios returns baseline/ours energy ratios per configuration and
// grid point for one kernel — the energy analogue of Ratios. Eq. 1
// optimizes latency; this quantifies what it does to consumption (mostly
// instruction-count effects: fewer workgroup-launcher executions).
func (r *Results) EnergyRatios(kernel, baseline, ours string) []float64 {
	return r.ratios(kernel, baseline, ours, func(rec Record) float64 { return rec.EnergyPJ })
}

// RenderEnergyTable prints per-kernel mean energy ratios of the baselines
// against "ours".
func (r *Results) RenderEnergyTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-16s | %-22s | %-22s\n", "kernel", "energy lws=1/ours", "energy lws=32/ours"); err != nil {
		return err
	}
	for _, k := range r.Kernels() {
		n := stats.SummarizeRatios(r.EnergyRatios(k, "lws=1", "ours"))
		f := stats.SummarizeRatios(r.EnergyRatios(k, "lws=32", "ours"))
		if _, err := fmt.Fprintf(w, "%-16s | avg %.2f worst %.2f     | avg %.2f worst %.2f\n",
			k, n.Avg, n.Worst, f.Avg, f.Worst); err != nil {
			return err
		}
	}
	return nil
}

// RenderTable writes the Figure 2 data tables (E3): per kernel, the
// average, worse-% and worst entries for both baselines.
func (r *Results) RenderTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-16s %-6s | %-28s | %-28s\n", "kernel", "group", "lws=1 / ours", "lws=32 / ours"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "-----------------------------------------------------------------------------------"); err != nil {
		return err
	}
	for _, s := range r.Summaries() {
		_, err := fmt.Fprintf(w, "%-16s %-6s | %-28s | %-28s\n", s.Kernel, s.Group, s.VsNaive, s.VsFixed)
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, a := range r.Aggregates() {
		_, err := fmt.Fprintf(w, "aggregate %-5s kernels=%d: avg %.2fx over lws=1, %.2fx over lws=32\n",
			a.Group, a.Kernels, a.VsNaive, a.VsFixed)
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderFigure2 writes the violin plots with their data tables — the full
// figure reproduction (E2+E3).
func (r *Results) RenderFigure2(w io.Writer, opts stats.ViolinOptions) error {
	for _, k := range r.Kernels() {
		naive := r.Ratios(k, "lws=1", "ours")
		fixed := r.Ratios(k, "lws=32", "ours")
		if err := stats.RenderViolinPair(w, k, naive, fixed, opts); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return r.RenderTable(w)
}
