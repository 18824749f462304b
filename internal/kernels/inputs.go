package kernels

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/ocl"
	"repro/internal/workload"
)

// Input memoization: a campaign runs the same kernel at the same (Scale,
// Seed) once per (configuration, mapper) — 450 x 3 times for the Figure 2
// grid — and every one of those runs used to regenerate identical host
// inputs and CPU reference outputs. The builders below memoize the pure
// host-side part of each build (generated inputs + reference results)
// behind a bounded LRU keyed by the generation parameters, so one input
// build is shared by every run of that kernel. Cached values are shared
// across goroutines and must be treated as read-only; device uploads copy
// them into device memory, and references are only compared against.

// inputMemo bounds resident workload builds. One campaign touches ~a dozen
// keys (one per kernel plus the shared graph); 64 leaves room for several
// concurrent scales/seeds before eviction.
var inputMemo = cache.NewLRU[string, any](64)

// memoize shares one build per key across the process; input builds cannot
// fail (generators are total), so the error channel is unused.
func memoize(key string, build func() any) any {
	v, _ := inputMemo.GetOrBuild(key, func() (any, error) { return build(), nil })
	return v
}

// InputCacheStats returns process-wide input-memo hit/miss counters.
func InputCacheStats() ocl.CacheCounters {
	h, m := inputMemo.Stats()
	return ocl.CacheCounters{Hits: h, Misses: m}
}

// ResetInputCache drops every memoized input build and zeroes the counters
// (cold-path benchmarks and tests).
func ResetInputCache() { inputMemo.Reset() }

// --- memoized per-kernel input builds ---------------------------------

type vecaddInputs struct{ a, b, want []float32 }

func vecaddInputsFor(n int, seed int64) *vecaddInputs {
	return memoize(fmt.Sprintf("vecadd/%d/%d", n, seed), func() any {
		a := workload.Floats(n, seed)
		b := workload.Floats(n, seed+1)
		return &vecaddInputs{a: a, b: b, want: RefVecadd(a, b)}
	}).(*vecaddInputs)
}

type reluInputs struct{ in, want []float32 }

func reluInputsFor(n int, seed int64) *reluInputs {
	return memoize(fmt.Sprintf("relu/%d/%d", n, seed), func() any {
		in := workload.Floats(n, seed)
		return &reluInputs{in: in, want: RefRelu(in)}
	}).(*reluInputs)
}

type saxpyInputs struct{ x, y, want []float32 }

func saxpyInputsFor(alpha float32, n int, seed int64) *saxpyInputs {
	return memoize(fmt.Sprintf("saxpy/%v/%d/%d", alpha, n, seed), func() any {
		x := workload.Floats(n, seed)
		y := workload.Floats(n, seed+1)
		return &saxpyInputs{x: x, y: y, want: RefSaxpy(alpha, x, y)}
	}).(*saxpyInputs)
}

type sgemmInputs struct{ a, b, want []float32 }

func sgemmInputsFor(m, n, k int, seed int64) *sgemmInputs {
	return memoize(fmt.Sprintf("sgemm/%d/%d/%d/%d", m, n, k, seed), func() any {
		a := workload.Floats(m*k, seed)
		b := workload.Floats(k*n, seed+1)
		return &sgemmInputs{a: a, b: b, want: RefSgemm(a, b, m, n, k)}
	}).(*sgemmInputs)
}

type knnInputs struct {
	pts  *workload.Points
	want []float32
}

func knnInputsFor(n int, qlat, qlng float32, seed int64) *knnInputs {
	return memoize(fmt.Sprintf("knn/%d/%v/%v/%d", n, qlat, qlng, seed), func() any {
		pts := workload.NewPoints(n, seed)
		return &knnInputs{pts: pts, want: RefKNN(pts, qlat, qlng)}
	}).(*knnInputs)
}

type gaussInputs struct {
	im      *workload.PaddedImage
	weights []float32
	want    []float32
}

func gaussInputsFor(w, h int, seed int64) *gaussInputs {
	return memoize(fmt.Sprintf("gauss/%d/%d/%d", w, h, seed), func() any {
		im := workload.NewPaddedImage(w, h, 2, seed)
		weights := workload.Gaussian5x5()
		return &gaussInputs{im: im, weights: weights, want: RefGauss(im, weights)}
	}).(*gaussInputs)
}

// graphFor memoizes synthetic graph generation (shared by both GCN kernels
// of a campaign, whose registry builds use the same (n, avgDeg, seed)).
func graphFor(n int, avgDeg float64, seed int64) *workload.Graph {
	return memoize(fmt.Sprintf("graph/%d/%v/%d", n, avgDeg, seed), func() any {
		return workload.NewGraph(n, avgDeg, seed)
	}).(*workload.Graph)
}

type gcnAggrInputs struct{ x, want []float32 }

func gcnAggrInputsFor(g *workload.Graph, hs int, seed int64) *gcnAggrInputs {
	return memoize(fmt.Sprintf("gcn_aggr/%x/%d/%d", g.Fingerprint(), hs, seed), func() any {
		x := workload.Floats(g.N*hs, seed)
		return &gcnAggrInputs{x: x, want: RefGCNAggr(g, x, hs)}
	}).(*gcnAggrInputs)
}

type gcnLayerInputs struct{ x, w, want []float32 }

func gcnLayerInputsFor(g *workload.Graph, hs int, seed int64) *gcnLayerInputs {
	return memoize(fmt.Sprintf("gcn_layer/%x/%d/%d", g.Fingerprint(), hs, seed), func() any {
		x := workload.Floats(g.N*hs, seed)
		w := workload.Floats(hs*hs, seed+1)
		tRef := RefSgemm(x, w, g.N, hs, hs)
		return &gcnLayerInputs{x: x, w: w, want: RefGCNAggr(g, tRef, hs)}
	}).(*gcnLayerInputs)
}

type convInputs struct {
	in            *workload.PaddedTensor
	weights, bias []float32
	want          []float32
}

func convInputsFor(ch, w int, seed int64) *convInputs {
	return memoize(fmt.Sprintf("conv3x3/%d/%d/%d", ch, w, seed), func() any {
		in := workload.NewPaddedTensor(ch, w, w, 1, seed)
		weights := workload.Floats(ch*ch*9, seed+1)
		bias := workload.Floats(ch, seed+2)
		return &convInputs{in: in, weights: weights, bias: bias, want: RefConv3x3(in, weights, bias, ch)}
	}).(*convInputs)
}
