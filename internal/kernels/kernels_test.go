package kernels

import (
	"math"
	"testing"

	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/workload"
)

func dev(t *testing.T, c, w, th int) *ocl.Device {
	t.Helper()
	d, err := ocl.NewDevice(sim.DefaultConfig(c, w, th))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// verifyOn builds the case via build and runs it verified at several lws
// values on several configs — the core functional matrix of the suite.
func verifyOn(t *testing.T, name string, build func(d *ocl.Device) (*Case, error)) {
	t.Helper()
	configs := [][3]int{{1, 1, 1}, {1, 2, 4}, {2, 2, 2}, {2, 4, 8}}
	for _, cfg := range configs {
		for _, lws := range []int{0, 1, 7, 32} {
			d := dev(t, cfg[0], cfg[1], cfg[2])
			c, err := build(d)
			if err != nil {
				t.Fatalf("%s build on %dc%dw%dt: %v", name, cfg[0], cfg[1], cfg[2], err)
			}
			if err := c.RunVerified(d, lws, new(Result)); err != nil {
				t.Fatalf("%s on %dc%dw%dt lws=%d: %v", name, cfg[0], cfg[1], cfg[2], lws, err)
			}
		}
	}
}

func TestVecaddVerifies(t *testing.T) {
	verifyOn(t, "vecadd", func(d *ocl.Device) (*Case, error) { return BuildVecadd(d, 130, 1) })
}

func TestReluVerifies(t *testing.T) {
	verifyOn(t, "relu", func(d *ocl.Device) (*Case, error) { return BuildRelu(d, 123, 2) })
}

func TestSaxpyVerifies(t *testing.T) {
	verifyOn(t, "saxpy", func(d *ocl.Device) (*Case, error) { return BuildSaxpy(d, 100, 3) })
}

func TestSgemmVerifies(t *testing.T) {
	verifyOn(t, "sgemm", func(d *ocl.Device) (*Case, error) { return BuildSgemm(d, 12, 8, 10, 4) })
}

func TestKNNVerifies(t *testing.T) {
	verifyOn(t, "knn", func(d *ocl.Device) (*Case, error) { return BuildKNN(d, 150, 5) })
}

func TestGaussVerifies(t *testing.T) {
	verifyOn(t, "gauss", func(d *ocl.Device) (*Case, error) { return BuildGauss(d, 12, 9, 6) })
}

func TestGCNAggrVerifies(t *testing.T) {
	verifyOn(t, "gcn_aggr", func(d *ocl.Device) (*Case, error) {
		g := workload.NewGraph(40, 3.5, 7)
		return BuildGCNAggr(d, g, 8, 8)
	})
}

func TestGCNLayerVerifies(t *testing.T) {
	verifyOn(t, "gcn_layer", func(d *ocl.Device) (*Case, error) {
		g := workload.NewGraph(30, 3.5, 9)
		return BuildGCNLayer(d, g, 8, 10)
	})
}

func TestConv3x3Verifies(t *testing.T) {
	verifyOn(t, "conv3x3", func(d *ocl.Device) (*Case, error) { return BuildConv3x3(d, 4, 10, 11) })
}

func TestPaperSizesVerifyOnOneConfig(t *testing.T) {
	// Full paper-size inputs are heavy; verify each once on a mid config.
	if testing.Short() {
		t.Skip("paper-size verification skipped in -short mode")
	}
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d := dev(t, 2, 4, 8)
			c, err := spec.Build(d, Params{Scale: 0.25, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunVerified(d, 0, new(Result)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRegistryShape(t *testing.T) {
	specs := Registry()
	if len(specs) != 9 {
		t.Fatalf("registry has %d kernels, want 9", len(specs))
	}
	names := map[string]bool{}
	math, ml := 0, 0
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate kernel %q", s.Name)
		}
		names[s.Name] = true
		switch s.Group {
		case GroupMath:
			math++
		case GroupML:
			ml++
		default:
			t.Errorf("kernel %q has no group", s.Name)
		}
		if s.PaperSize == "" {
			t.Errorf("kernel %q missing paper size", s.Name)
		}
	}
	if math != 6 || ml != 3 {
		t.Errorf("groups: %d math + %d ml, want 6+3", math, ml)
	}
	if _, err := ByName("vecadd"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if len(Names()) != 9 {
		t.Error("Names() wrong length")
	}
}

func TestScaleControlsWorkload(t *testing.T) {
	d1 := dev(t, 1, 2, 4)
	spec, _ := ByName("vecadd")
	small, err := spec.Build(d1, Params{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2 := dev(t, 1, 2, 4)
	big, err := spec.Build(d2, Params{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.WorkItems*5 > big.WorkItems {
		t.Errorf("scale had no effect: %d vs %d", small.WorkItems, big.WorkItems)
	}
}

func TestMultiLaunchCaseAccumulatesCycles(t *testing.T) {
	d := dev(t, 1, 2, 4)
	g := workload.NewGraph(24, 3, 3)
	c, err := BuildGCNLayer(d, g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := c.RunVerified(d, 0, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Launches) != 2 {
		t.Fatalf("launches = %d, want 2", len(res.Launches))
	}
	if res.Cycles != res.Launches[0].Cycles+res.Launches[1].Cycles {
		t.Error("cycles not accumulated over launches")
	}
}

func TestReferencesAgainstNaiveFormulas(t *testing.T) {
	// Spot-check the CPU references against simple formulas on tiny inputs.
	a := []float32{1, 2, 3}
	b := []float32{10, 20, 30}
	v := RefVecadd(a, b)
	if v[0] != 11 || v[2] != 33 {
		t.Errorf("RefVecadd = %v", v)
	}
	r := RefRelu([]float32{-1, 0, 2})
	if r[0] != 0 || r[1] != 0 || r[2] != 2 {
		t.Errorf("RefRelu = %v", r)
	}
	s := RefSaxpy(2, []float32{1, 2}, []float32{3, 4})
	if s[0] != 5 || s[1] != 8 {
		t.Errorf("RefSaxpy = %v", s)
	}
	// 2x2 identity-ish gemm.
	g := RefSgemm([]float32{1, 0, 0, 1}, []float32{5, 6, 7, 8}, 2, 2, 2)
	want := []float32{5, 6, 7, 8}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("RefSgemm[%d] = %v", i, g[i])
		}
	}
}

func TestGraphValidateOnGenerated(t *testing.T) {
	g := workload.NewCora(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != workload.CoraNodes {
		t.Errorf("nodes = %d", g.N)
	}
	// Self-loops guarantee degree >= 1.
	for n := 0; n < g.N; n++ {
		if g.Degree(n) < 1 {
			t.Fatalf("node %d has degree 0", n)
		}
	}
}

func TestCompareFloatsBitExact(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	if err := compareFloats("k", []float32{negZero}, []float32{0}); err == nil {
		t.Error("-0 accepted for +0")
	}
	if err := compareFloats("k", []float32{1, 0}, []float32{1, negZero}); err == nil {
		t.Error("+0 accepted for -0")
	}
	quiet, payload := math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001)
	if err := compareFloats("k", []float32{quiet, 2}, []float32{payload, 2}); err != nil {
		t.Errorf("NaN refused for NaN: %v", err)
	}
	if err := compareFloats("k", []float32{quiet}, []float32{0}); err == nil {
		t.Error("NaN accepted for 0")
	}
}

func TestBuildRefusesBadScale(t *testing.T) {
	d := dev(t, 1, 2, 4)
	for _, spec := range Registry() {
		for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			if _, err := spec.Build(d, Params{Scale: scale, Seed: 1}); err == nil {
				t.Errorf("%s built at scale %v", spec.Name, scale)
			}
		}
	}
}

func TestSizedBuildersRefuseNonPositiveSizes(t *testing.T) {
	d := dev(t, 1, 2, 4)
	for _, tc := range []struct {
		name  string
		build func(n int) (*Case, error)
	}{
		{"vecadd", func(n int) (*Case, error) { return BuildVecadd(d, n, 1) }},
		{"relu", func(n int) (*Case, error) { return BuildRelu(d, n, 1) }},
		{"saxpy", func(n int) (*Case, error) { return BuildSaxpy(d, n, 1) }},
		{"knn", func(n int) (*Case, error) { return BuildKNN(d, n, 1) }},
		{"sgemm m", func(n int) (*Case, error) { return BuildSgemm(d, n, 4, 4, 1) }},
		{"sgemm n", func(n int) (*Case, error) { return BuildSgemm(d, 4, n, 4, 1) }},
		{"sgemm k", func(n int) (*Case, error) { return BuildSgemm(d, 4, 4, n, 1) }},
		{"gauss w", func(n int) (*Case, error) { return BuildGauss(d, n, 4, 1) }},
		{"gauss h", func(n int) (*Case, error) { return BuildGauss(d, 4, n, 1) }},
		{"conv3x3 ch", func(n int) (*Case, error) { return BuildConv3x3(d, n, 4, 1) }},
		{"conv3x3 w", func(n int) (*Case, error) { return BuildConv3x3(d, 2, n, 1) }},
	} {
		for _, n := range []int{0, -5} {
			if c, err := tc.build(n); err == nil || c != nil {
				t.Errorf("%s built at size %d", tc.name, n)
			}
		}
	}
}
