package kernels

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ocl"
	"repro/internal/workload"
)

// Params configures a registry build.
type Params struct {
	// Scale multiplies each workload's paper size (1.0 = paper scale).
	// Work scales roughly linearly in Scale for every kernel.
	Scale float64
	// Seed drives all input generation.
	Seed int64
}

// CheckScale refuses a workload scale no build can honour: zero, negative,
// NaN or infinite. Spec.Build runs it first; the builders would otherwise
// run a NaN or infinite scale at minimum size, labelled with the scale
// that was asked for.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("scale must be positive and finite (got %v)", scale)
	}
	return nil
}

// Group labels the kernel families of Figure 2.
type Group string

const (
	GroupMath Group = "math" // standalone math kernels
	GroupML   Group = "ml"   // DNN / GCN layer workloads
)

// Spec is one registered benchmark kernel.
type Spec struct {
	Name  string
	Group Group
	// PaperSize describes the workload dimensions the paper reports.
	PaperSize string
	build     func(d *ocl.Device, p Params) (*Case, error)
}

// Build builds the kernel's case on d, refusing a scale CheckScale refuses.
// On a device whose heap is at ocl.HeapBase the case comes from the case
// memo (memo.go), shared and read-only; on any other device it is built
// fresh.
func (s Spec) Build(d *ocl.Device, p Params) (*Case, error) {
	if err := CheckScale(p.Scale); err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", s.Name, err)
	}
	if d.HeapTop() != ocl.HeapBase {
		return s.build(d, p)
	}
	return s.memoBuild(d, p)
}

func scaled(base int, s float64, min int) int {
	n := int(math.Round(float64(base) * s))
	if n < min {
		n = min
	}
	return n
}

func scaledSqrt(base int, s float64, min int) int {
	n := int(math.Round(float64(base) * math.Sqrt(s)))
	if n < min {
		n = min
	}
	return n
}

// registry is the paper's nine benchmark kernels, built once: ByName runs
// once per campaign task. The build functions honor Params.Scale so sweeps
// can trade fidelity for wall-clock time; Scale=1 reproduces the sizes of
// Figure 2.
var registry = []Spec{
	{
		Name: "vecadd", Group: GroupMath, PaperSize: "len 4096",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			return BuildVecadd(d, scaled(4096, p.Scale, 16), p.Seed)
		},
	},
	{
		Name: "relu", Group: GroupMath, PaperSize: "len 4096",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			return BuildRelu(d, scaled(4096, p.Scale, 16), p.Seed)
		},
	},
	{
		Name: "saxpy", Group: GroupMath, PaperSize: "len 4096",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			return BuildSaxpy(d, scaled(4096, p.Scale, 16), p.Seed)
		},
	},
	{
		Name: "sgemm", Group: GroupMath, PaperSize: "x:256 y:16 z:144",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			return BuildSgemm(d, scaled(256, p.Scale, 8), 16, 144, p.Seed)
		},
	},
	{
		Name: "knn", Group: GroupMath, PaperSize: "42764 pts",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			return BuildKNN(d, scaled(workload.KNNPoints, p.Scale, 64), p.Seed)
		},
	},
	{
		Name: "gauss", Group: GroupMath, PaperSize: "x:360 y:360",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			side := scaledSqrt(360, p.Scale, 16)
			return BuildGauss(d, side, side, p.Seed)
		},
	},
	{
		Name: "gcn_aggr", Group: GroupML, PaperSize: "cora hs:16",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			g := workload.NewGraph(scaled(workload.CoraNodes, p.Scale, 32), workload.CoraAvgDeg, p.Seed)
			return BuildGCNAggr(d, g, workload.CoraHidden, p.Seed+100)
		},
	},
	{
		Name: "gcn_layer", Group: GroupML, PaperSize: "cora hs:16",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			g := workload.NewGraph(scaled(workload.CoraNodes, p.Scale, 32), workload.CoraAvgDeg, p.Seed)
			return BuildGCNLayer(d, g, workload.CoraHidden, p.Seed+100)
		},
	},
	{
		Name: "resnet20_layer", Group: GroupML, PaperSize: "CIFAR-10, 1 layer, ch 16",
		build: func(d *ocl.Device, p Params) (*Case, error) {
			return BuildConv3x3(d, 16, scaledSqrt(32, p.Scale, 8), p.Seed)
		},
	},
}

// Registry returns the paper's nine benchmark kernels, as a copy callers
// may reorder or edit.
func Registry() []Spec { return slices.Clone(registry) }

// ByName looks a spec up in the registry.
func ByName(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("kernels: unknown kernel %q", name)
}

// Names lists the registry in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}
