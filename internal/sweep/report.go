package sweep

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// pairing is the one grouping every report reads: each kernel's mappers
// paired within one sample, a configuration at one grid point. Mapper
// ratios are always compared within a sample — same scheduler, MSHR bound,
// L1 geometry and prefetcher — never across samples (a single-point sweep
// degenerates to config-only samples).
type pairing struct {
	kernels, mappers []string  // in first-seen order, failed records included
	samples          []sample  // in first-seen order
	cycles           []float64 // a successful record's, at index(kernel, sample, mapper); -1 where none ran
}

// pairing builds the report pairing of r's records: one pass names the
// kernels and mappers, a second the samples and their cycles. A later
// record of the same (kernel, sample, mapper) overwrites an earlier one.
func (r *Results) pairing() *pairing {
	p := &pairing{}
	kernelAt, mapperAt, sampleAt := map[string]int{}, map[string]int{}, map[sample]int{}
	for i := range r.Records {
		firstSeen(&p.kernels, kernelAt, r.Records[i].Kernel)
		firstSeen(&p.mappers, mapperAt, r.Records[i].Mapper)
	}
	row := len(p.kernels) * len(p.mappers)
	for i := range r.Records {
		rec := &r.Records[i]
		s := firstSeen(&p.samples, sampleAt, sampleOf(rec))
		for len(p.cycles) < (s+1)*row {
			p.cycles = append(p.cycles, -1)
		}
		if rec.Err == "" {
			p.cycles[p.index(kernelAt[rec.Kernel], s, mapperAt[rec.Mapper])] = float64(rec.Cycles)
		}
	}
	return p
}

// firstSeen returns v's position in list, appending it on its first sight.
func firstSeen[T comparable](list *[]T, at map[T]int, v T) int {
	i, ok := at[v]
	if !ok {
		i = len(*list)
		at[v] = i
		*list = append(*list, v)
	}
	return i
}

// sample identifies a configuration at one grid point: a record's Config
// and its value on each axis, in Axes order.
type sample struct {
	config core.HWInfo
	point  [len(Axes)]string
}

// sampleOf returns rec's sample, read through the Axes table.
func sampleOf(rec *Record) sample {
	s := sample{config: rec.Config}
	for i := range Axes {
		s.point[i] = Axes[i].get(*rec)
	}
	return s
}

// index places kernel k's cycles under mapper m at sample s in cycles.
func (p *pairing) index(k, s, m int) int { return (s*len(p.kernels)+k)*len(p.mappers) + m }

// at returns kernel k's cycles under mapper m at sample s, or -1 where no
// successful record gave them (m < 0 names a mapper the records lack).
func (p *pairing) at(k, s, m int) float64 {
	if m < 0 {
		return -1
	}
	return p.cycles[p.index(k, s, m)]
}

// pairs calls f with baseline/ours of kernel at each sample both ran on
// and ours did not score zero on, in sample order.
func (p *pairing) pairs(kernel, baseline, ours string, f func(s int, ratio float64)) {
	k := slices.Index(p.kernels, kernel)
	if k < 0 {
		return
	}
	b, o := slices.Index(p.mappers, baseline), slices.Index(p.mappers, ours)
	for s := range p.samples {
		if base, our := p.at(k, s, b), p.at(k, s, o); base >= 0 && our > 0 {
			f(s, base/our)
		}
	}
}

// ratios returns the baseline/ours ratios of kernel's samples, in sample
// order.
func (p *pairing) ratios(kernel, baseline, ours string) []float64 {
	var out []float64
	p.pairs(kernel, baseline, ours, func(_ int, r float64) { out = append(out, r) })
	return out
}

// Mappers returns the distinct mapper names present, in first-seen order.
func (r *Results) Mappers() []string { return r.pairing().mappers }

// Kernels returns the distinct kernel names present, in first-seen order.
func (r *Results) Kernels() []string { return r.pairing().kernels }

// Ratios returns baseline/ours cycle ratios per configuration and grid
// point for one kernel — the samples of one Figure 2 violin, in first-seen
// order. Ratios > 1 mean "ours" is faster.
func (r *Results) Ratios(kernel, baseline, ours string) []float64 {
	return r.pairing().ratios(kernel, baseline, ours)
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
func (r *Results) Summaries() []KernelSummary { return r.pairing().summaries() }

func (p *pairing) summaries() []KernelSummary {
	out := make([]KernelSummary, 0, len(p.kernels))
	for _, k := range p.kernels {
		ks := KernelSummary{
			Kernel:  k,
			VsNaive: stats.SummarizeRatios(p.ratios(k, "lws=1", "ours")),
			VsFixed: stats.SummarizeRatios(p.ratios(k, "lws=32", "ours")),
		}
		if spec, err := kernels.ByName(k); err == nil {
			ks.Group = spec.Group
		}
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
	p := r.pairing()
	for _, k := range p.kernels {
		if err := stats.RenderViolinPair(w, k, p.ratios(k, "lws=1", "ours"), p.ratios(k, "lws=32", "ours"), opts); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return renderTable(w, p.summaries())
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
	p := r.pairing()
	o := slices.Index(p.mappers, "ours")
	near, total := 0, 0
	for k, kernel := range p.kernels {
		var regret, cost []float64
		wins := make([]int, len(p.mappers))
		kNear := 0
		for s := range p.samples {
			ours := p.at(k, s, o)
			if ours <= 0 {
				continue
			}
			fastest, best, sum := -1, 0.0, 0.0
			for m := range p.mappers {
				c := p.at(k, s, m)
				if c < 0 {
					continue
				}
				sum += c
				if fastest < 0 || c < best {
					fastest, best = m, c
				}
			}
			wins[fastest]++
			rg := ours / best
			regret = append(regret, rg)
			cost = append(cost, sum/best)
			if rg <= 1.05 {
				kNear++
			}
		}
		order := make([]int, len(p.mappers))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return wins[order[a]] > wins[order[b]] })
		var top []string
		for _, i := range order[:min(2, len(order))] {
			if wins[i] > 0 {
				top = append(top, p.mappers[i])
			}
		}
		if _, err := fmt.Fprintf(w, "%-16s %7d %8.2f %7.2f %7.2f %10s %11.1fx  %s\n",
			kernel, len(regret), stats.GeoMean(regret), stats.Quantile(regret, 0.5), stats.Max(regret),
			fmt.Sprintf("%d/%d", kNear, len(regret)), stats.GeoMean(cost), strings.Join(top, ", ")); err != nil {
			return err
		}
		near += kNear
		total += len(regret)
	}
	_, err := fmt.Fprintf(w, "\nours is within 5%% of the fastest mapper on %d of %d samples\n", near, total)
	return err
}
