package sweep

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
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

// CrossoverCurve buckets the ratios of (kernel, baseline) by the
// configuration's hp and returns per-hp mean ratios in increasing hp
// order.
func (r *Results) CrossoverCurve(kernel, baseline string) []CrossoverPoint {
	return r.crossoverCurve(r.samples()[series{kernel, "ours"}], kernel, baseline)
}

// crossoverCurve is CrossoverCurve given the kernel's "ours" cycles per
// sample key.
func (r *Results) crossoverCurve(ours map[string]float64, kernel, baseline string) []CrossoverPoint {
	base := map[int][]float64{} // hp -> ratios
	for _, rec := range r.Records {
		if rec.Kernel != kernel || rec.Mapper != baseline || rec.Err != "" {
			continue
		}
		o := ours[sampleKey(rec)]
		if o == 0 {
			continue
		}
		hp := rec.Config.HP()
		base[hp] = append(base[hp], float64(rec.Cycles)/o)
	}
	hps := make([]int, 0, len(base))
	for hp := range base {
		hps = append(hps, hp)
	}
	sort.Ints(hps)
	out := make([]CrossoverPoint, 0, len(hps))
	for _, hp := range hps {
		rs := base[hp]
		var sum float64
		for _, v := range rs {
			sum += v
		}
		out = append(out, CrossoverPoint{HP: hp, MeanRatio: sum / float64(len(rs)), N: len(rs)})
	}
	return out
}

// CrossoverHP returns the smallest hp from which the baseline's mean ratio
// stays >= 1 (i.e. "ours" wins from there on), or -1 if it never does.
func (r *Results) CrossoverHP(kernel, baseline string) int {
	return crossoverHP(r.CrossoverCurve(kernel, baseline))
}

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
	if mappers := r.Mappers(); !slices.Contains(mappers, baseline) {
		return fmt.Errorf("sweep: no records of crossover baseline %q (the records carry %s)", baseline, strings.Join(mappers, ", "))
	}
	samples := r.samples()
	for _, k := range r.Kernels() {
		curve := r.crossoverCurve(samples[series{k, "ours"}], k, baseline)
		if len(curve) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s vs %s:\n", k, baseline); err != nil {
			return err
		}
		for _, p := range curve {
			n := int(p.MeanRatio * 10)
			if n > 60 {
				n = 60
			}
			if n < 0 {
				n = 0
			}
			if _, err := fmt.Fprintf(w, "  hp=%-6d %6.2fx |%s\n", p.HP, p.MeanRatio, strings.Repeat("#", n)); err != nil {
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
