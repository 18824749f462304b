package sweep

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// CrossoverPoint summarizes one kernel's baseline-vs-ours ratio as a
// function of hardware parallelism: the mean ratio in each hp band and the
// hp value where the baseline stops winning (the crossover the paper's
// violins fold into a single distribution).
type CrossoverPoint struct {
	HP        int
	MeanRatio float64
	N         int
}

// crossover buckets kernel's baseline/ours ratios by the sample
// configuration's hp and returns per-hp mean ratios in increasing hp
// order.
func (p *pairing) crossover(kernel, baseline string) []CrossoverPoint {
	byHP := map[int][]float64{}
	p.pairs(kernel, baseline, "ours", func(s int, r float64) {
		hp := p.samples[s].config.HP()
		byHP[hp] = append(byHP[hp], r)
	})
	hps := make([]int, 0, len(byHP))
	for hp := range byHP {
		hps = append(hps, hp)
	}
	sort.Ints(hps)
	out := make([]CrossoverPoint, 0, len(hps))
	for _, hp := range hps {
		out = append(out, CrossoverPoint{HP: hp, MeanRatio: stats.Mean(byHP[hp]), N: len(byHP[hp])})
	}
	return out
}

// crossoverHP returns the smallest hp from which the baseline's mean ratio
// stays >= 1 (i.e. "ours" wins from there on), or -1 if it never does.
func crossoverHP(curve []CrossoverPoint) int {
	for i := len(curve) - 1; i >= 0; i-- {
		if curve[i].MeanRatio < 1 {
			if i == len(curve)-1 {
				return -1
			}
			return curve[i+1].HP
		}
	}
	if len(curve) == 0 {
		return -1
	}
	return curve[0].HP
}

// RenderCrossover prints the per-hp ratio curve of each kernel against a
// baseline — the "where does the fixed mapping start losing" analysis. It
// refuses a baseline none of the records ran.
func (r *Results) RenderCrossover(w io.Writer, baseline string) error {
	p := r.pairing()
	if !slices.Contains(p.mappers, baseline) {
		return fmt.Errorf("sweep: no records of crossover baseline %q (the records carry %s)", baseline, strings.Join(p.mappers, ", "))
	}
	for _, k := range p.kernels {
		curve := p.crossover(k, baseline)
		if len(curve) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s vs %s:\n", k, baseline); err != nil {
			return err
		}
		for _, pt := range curve {
			n := int(pt.MeanRatio * 10)
			if n > 60 {
				n = 60
			}
			if n < 0 {
				n = 0
			}
			if _, err := fmt.Fprintf(w, "  hp=%-6d %6.2fx |%s\n", pt.HP, pt.MeanRatio, strings.Repeat("#", n)); err != nil {
				return err
			}
		}
		if hp := crossoverHP(curve); hp >= 0 {
			if _, err := fmt.Fprintf(w, "  ours wins on average from hp >= %d\n", hp); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "  no stable crossover in this grid\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
