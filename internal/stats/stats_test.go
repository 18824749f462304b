package stats

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("stddev = %v", got)
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty inputs should give 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single sample stddev != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile != 0")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile sorted its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeRatios(t *testing.T) {
	rs := []float64{2, 0.5, 1.5, 1, 3}
	s := SummarizeRatios(rs)
	if s.N != 5 {
		t.Errorf("n = %d", s.N)
	}
	if s.Avg != 1.6 {
		t.Errorf("avg = %v", s.Avg)
	}
	if s.Worst != 0.5 || s.Best != 3 {
		t.Errorf("worst/best = %v/%v", s.Worst, s.Best)
	}
	if s.WorseFrac != 0.2 {
		t.Errorf("worse frac = %v", s.WorseFrac)
	}
	if s.Median != 1.5 {
		t.Errorf("median = %v", s.Median)
	}
	str := s.String()
	if !strings.Contains(str, "avg: 1.60") || !strings.Contains(str, "worse: 20.0%") || !strings.Contains(str, "worst: 0.50") {
		t.Errorf("String() = %q", str)
	}
	if SummarizeRatios(nil).N != 0 {
		t.Error("empty summary wrong")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.NormFloat64()
	}
	xs, ys := KDE(samples, 400, -6, 6, 0)
	if len(xs) != 400 || len(ys) != 400 {
		t.Fatalf("grid size %d/%d", len(xs), len(ys))
	}
	var integral float64
	for i := 1; i < len(xs); i++ {
		integral += (ys[i] + ys[i-1]) / 2 * (xs[i] - xs[i-1])
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
	// Peak near 0 for a standard normal.
	peakX := xs[0]
	peakY := ys[0]
	for i := range xs {
		if ys[i] > peakY {
			peakX, peakY = xs[i], ys[i]
		}
	}
	if math.Abs(peakX) > 0.5 {
		t.Errorf("KDE peak at %v, want ~0", peakX)
	}
}

func TestKDEDegenerateInputs(t *testing.T) {
	if xs, ys := KDE(nil, 10, 0, 1, 0); xs != nil || ys != nil {
		t.Error("empty samples should give nil")
	}
	if xs, _ := KDE([]float64{1}, 0, 0, 1, 0); xs != nil {
		t.Error("zero points should give nil")
	}
	if xs, _ := KDE([]float64{1}, 10, 5, 2, 0); xs != nil {
		t.Error("hi<=lo should give nil")
	}
	// Identical samples must not divide by zero.
	xs, ys := KDE([]float64{2, 2, 2}, 11, 1, 3, 0)
	if len(xs) != 11 {
		t.Fatal("constant samples failed")
	}
	if Max(ys) <= 0 {
		t.Error("constant-sample KDE has no mass")
	}
}

func TestRenderViolin(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	samples := make([]float64, 300)
	for i := range samples {
		samples[i] = 1.4 + 0.3*r.NormFloat64()
	}
	var buf bytes.Buffer
	if err := RenderViolin(&buf, "test", samples, ViolinOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test  (n=300") {
		t.Errorf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("no density bars rendered")
	}
	if !strings.Contains(out, "<") {
		t.Error("ratio-1 baseline marker missing")
	}
}

func TestRenderViolinClipsLikePaper(t *testing.T) {
	// Figure 2 omits results > 4; huge outliers must be counted, not drawn.
	samples := []float64{1, 1.2, 0.9, 25, 30}
	var buf bytes.Buffer
	if err := RenderViolin(&buf, "clip", samples, ViolinOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 results > 4.0 omitted") {
		t.Errorf("clip note missing:\n%s", buf.String())
	}
}

func TestRenderViolinEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderViolin(&buf, "none", nil, ViolinOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no samples") {
		t.Error("empty violin not labeled")
	}
}

func TestRenderViolinPair(t *testing.T) {
	var buf bytes.Buffer
	err := RenderViolinPair(&buf, "vecadd", []float64{1.3, 1.5}, []float64{3, 4}, ViolinOptions{Rows: 9, HalfWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== vecadd ===") ||
		!strings.Contains(out, "lws=1 / ours") ||
		!strings.Contains(out, "lws=32 / ours") {
		t.Errorf("pair render incomplete:\n%s", out)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); got != 2 {
		t.Errorf("GeoMean(1,4) = %v", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(2,2,2) = %v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, -1}) != 0 || GeoMean([]float64{0}) != 0 {
		t.Error("degenerate GeoMean inputs should give 0")
	}
	// GeoMean <= Mean (AM-GM).
	xs := []float64{0.5, 1.5, 3, 9}
	if GeoMean(xs) > Mean(xs) {
		t.Error("AM-GM violated")
	}
}
