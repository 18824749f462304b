package sweep

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/kernels"
	"repro/internal/stats"
)

// sampleKey identifies one ratio sample: a configuration at one grid
// point. Mapper ratios are always compared within a point — same
// scheduler, MSHR bound, L1 geometry and prefetcher — never across points
// (a single-point sweep degenerates to config-only samples).
func sampleKey(rec Record) string {
	key := rec.Config.AppendName(make([]byte, 0, 64))
	for _, a := range Axes {
		key = append(append(key, '/'), a.get(rec)...)
	}
	return string(key)
}

// series names the records of one kernel under one mapper.
type series struct{ kernel, mapper string }

// samples returns the cycles per sample key for every series, over the
// successful records, grouped in one pass.
func (r *Results) samples() map[series]map[string]float64 {
	out := map[series]map[string]float64{}
	for _, rec := range r.Records {
		if rec.Err != "" {
			continue
		}
		s := series{rec.Kernel, rec.Mapper}
		if out[s] == nil {
			out[s] = map[string]float64{}
		}
		out[s][sampleKey(rec)] = float64(rec.Cycles)
	}
	return out
}

// ratios returns baseline/ours ratios of one kernel's samples, one per
// sample both mappers ran (and ours did not score zero on), in sample-key
// order.
func ratios(samples map[series]map[string]float64, kernel, baseline, ours string) []float64 {
	base, our := samples[series{kernel, baseline}], samples[series{kernel, ours}]
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
	return ratios(r.samples(), kernel, baseline, ours)
}

// KernelSummary is one kernel's Figure 2 data-table row pair.
type KernelSummary struct {
	Kernel  string
	Group   kernels.Group
	VsNaive stats.RatioSummary // lws=1 / ours
	VsFixed stats.RatioSummary // lws=32 / ours
}

// kernelRatios holds one kernel's Figure 2 violin samples.
type kernelRatios struct {
	kernel       string
	naive, fixed []float64 // lws=1 / ours and lws=32 / ours
}

// figure2Ratios computes every kernel's Figure 2 ratio sets, from one
// grouping of the records.
func (r *Results) figure2Ratios() []kernelRatios {
	samples := r.samples()
	var out []kernelRatios
	for _, k := range r.Kernels() {
		out = append(out, kernelRatios{
			kernel: k,
			naive:  ratios(samples, k, "lws=1", "ours"),
			fixed:  ratios(samples, k, "lws=32", "ours"),
		})
	}
	return out
}

// Summaries computes the per-kernel Figure 2 tables against the "ours"
// mapper.
func (r *Results) Summaries() []KernelSummary { return summarize(r.figure2Ratios()) }

func summarize(krs []kernelRatios) []KernelSummary {
	var out []KernelSummary
	for _, kr := range krs {
		ks := KernelSummary{Kernel: kr.kernel}
		if spec, err := kernels.ByName(kr.kernel); err == nil {
			ks.Group = spec.Group
		}
		ks.VsNaive = stats.SummarizeRatios(kr.naive)
		ks.VsFixed = stats.SummarizeRatios(kr.fixed)
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
func (r *Results) Aggregates() []Aggregate { return aggregate(r.Summaries()) }

func aggregate(sums []KernelSummary) []Aggregate {
	byGroup := map[kernels.Group]*Aggregate{}
	order := []kernels.Group{}
	for _, s := range sums {
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

// RenderTable writes the Figure 2 data tables (E3): per kernel, the
// average, worse-% and worst entries for both baselines.
func (r *Results) RenderTable(w io.Writer) error { return renderTable(w, r.Summaries()) }

func renderTable(w io.Writer, sums []KernelSummary) error {
	if _, err := fmt.Fprintf(w, "%-16s %-6s | %-28s | %-28s\n", "kernel", "group", "lws=1 / ours", "lws=32 / ours"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "-----------------------------------------------------------------------------------"); err != nil {
		return err
	}
	for _, s := range sums {
		_, err := fmt.Fprintf(w, "%-16s %-6s | %-28s | %-28s\n", s.Kernel, s.Group, s.VsNaive, s.VsFixed)
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, a := range aggregate(sums) {
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
	krs := r.figure2Ratios()
	for _, kr := range krs {
		if err := stats.RenderViolinPair(w, kr.kernel, kr.naive, kr.fixed, opts); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return renderTable(w, summarize(krs))
}

// RenderOracle writes Eq. 1's regret, one row per kernel, from the records
// of a campaign over core.OracleMappers. A sample is a configuration at one
// grid point ours ran on; at each, every mapper that ran is a probe of the
// empirical search. Per kernel it gives ours ÷ the fastest mapper
// (geomean, median, max), the samples where ours is within 5 % of it, the
// search cost (geomean of all mappers' cycles summed ÷ the fastest's) and
// the two mappers most often fastest. Ties go to the earlier mapper.
func (r *Results) RenderOracle(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Eq. 1's regret: ours / fastest mapper at each (config, grid point)\n%-16s %7s %8s %7s %7s %10s %12s  %s\n",
		"kernel", "samples", "geomean", "median", "max", "within 5%", "search cost", "most often fastest"); err != nil {
		return err
	}
	samples := r.samples()
	mappers := r.Mappers()
	near, total := 0, 0
	for _, k := range r.Kernels() {
		ours := samples[series{k, "ours"}]
		keys := make([]string, 0, len(ours))
		for key, c := range ours {
			if c > 0 {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		regret := make([]float64, 0, len(keys))
		cost := make([]float64, 0, len(keys))
		wins := make([]int, len(mappers))
		kNear := 0
		for _, key := range keys {
			fastest, best, sum := -1, 0.0, 0.0
			for i, m := range mappers {
				c, ok := samples[series{k, m}][key]
				if !ok {
					continue
				}
				sum += c
				if fastest < 0 || c < best {
					fastest, best = i, c
				}
			}
			wins[fastest]++
			rg := ours[key] / best
			regret = append(regret, rg)
			cost = append(cost, sum/best)
			if rg <= 1.05 {
				kNear++
			}
		}
		order := make([]int, len(mappers))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return wins[order[a]] > wins[order[b]] })
		var top []string
		for _, i := range order[:min(2, len(order))] {
			if wins[i] > 0 {
				top = append(top, mappers[i])
			}
		}
		if _, err := fmt.Fprintf(w, "%-16s %7d %8.2f %7.2f %7.2f %10s %11.1fx  %s\n",
			k, len(keys), stats.GeoMean(regret), stats.Quantile(regret, 0.5), stats.Max(regret),
			fmt.Sprintf("%d/%d", kNear, len(keys)), stats.GeoMean(cost), strings.Join(top, ", ")); err != nil {
			return err
		}
		near += kNear
		total += len(keys)
	}
	_, err := fmt.Fprintf(w, "\nours is within 5%% of the fastest mapper on %d of %d samples\n", near, total)
	return err
}
