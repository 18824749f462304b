// Package stats provides the statistics behind the paper's Figure 2:
// ratio-distribution summaries (average, worst case, fraction of results
// below 1), quantiles, Gaussian kernel density estimation, and ASCII violin
// plots of latency-ratio distributions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Quantile returns the q-th quantile (0 <= q <= 1) with linear
// interpolation. The input need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// RatioSummary matches the data tables under each violin in Figure 2:
// the average ratio, the worst (minimum) ratio, and the percentage of
// configurations where the baseline beat "ours" (ratio < 1).
type RatioSummary struct {
	N         int
	Avg       float64
	Worst     float64 // minimum ratio
	Best      float64 // maximum ratio
	Median    float64
	WorseFrac float64 // fraction of ratios < 1
}

// SummarizeRatios computes the Figure 2 table entries for one violin.
func SummarizeRatios(rs []float64) RatioSummary {
	s := RatioSummary{N: len(rs)}
	if len(rs) == 0 {
		return s
	}
	s.Avg = Mean(rs)
	s.Worst = Min(rs)
	s.Best = Max(rs)
	s.Median = Quantile(rs, 0.5)
	worse := 0
	for _, r := range rs {
		if r < 1 {
			worse++
		}
	}
	s.WorseFrac = float64(worse) / float64(len(rs))
	return s
}

// String renders the summary like the paper's data tables.
func (s RatioSummary) String() string {
	return fmt.Sprintf("avg: %.2f  worse: %.1f%%  worst: %.2f", s.Avg, s.WorseFrac*100, s.Worst)
}

// KDE evaluates a Gaussian kernel density estimate of samples at points
// evenly spaced over [lo, hi]. bandwidth <= 0 selects Silverman's
// rule-of-thumb. It returns the evaluation grid and densities.
func KDE(samples []float64, points int, lo, hi, bandwidth float64) (xs, ys []float64) {
	if points <= 0 || len(samples) == 0 || hi <= lo {
		return nil, nil
	}
	if bandwidth <= 0 {
		sd := StdDev(samples)
		if sd == 0 {
			sd = 0.01
		}
		bandwidth = 1.06 * sd * math.Pow(float64(len(samples)), -0.2)
		if bandwidth <= 0 {
			bandwidth = 0.01
		}
	}
	xs = make([]float64, points)
	ys = make([]float64, points)
	norm := 1 / (bandwidth * math.Sqrt(2*math.Pi) * float64(len(samples)))
	for i := 0; i < points; i++ {
		x := lo + (hi-lo)*float64(i)/float64(points-1)
		xs[i] = x
		var d float64
		for _, s := range samples {
			u := (x - s) / bandwidth
			d += math.Exp(-0.5 * u * u)
		}
		ys[i] = d * norm
	}
	return xs, ys
}

// GeoMean returns the geometric mean of positive samples (0 if any sample
// is non-positive or the input is empty). Ratio distributions like Figure
// 2's are multiplicative, so the geometric mean is the right aggregate to
// complement the paper's arithmetic averages.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
