package kernels

import (
	"math"
	"sync"

	"repro/internal/ocl"
	"repro/internal/workload"
)

// Input memoization: a campaign runs the same kernel at the same (Scale,
// Seed) once per (configuration, mapper) — 450 x 3 times for the Figure 2
// grid — and every one of those runs used to regenerate identical host
// inputs and CPU reference outputs. The builders below memoize the pure
// host-side part of each build (generated inputs + reference results) in a
// once-per-key map keyed by the builder and its generation parameters, so
// one input build is shared by every run of that kernel. Cached values are
// shared across goroutines and must be treated as read-only; device
// uploads copy them into device memory, and references are only compared
// against. A campaign touches about a dozen keys (one per kernel plus the
// shared graph); ResetInputCache drops them.
var inputs = struct {
	sync.Mutex
	m    map[inputKey]func() any // never evicted: its size counts the builds
	hits uint64
}{m: map[inputKey]func() any{}}

// inputKey names one input build: the builder, its sizes, any float
// parameter or graph fingerprint as bits, and the seed.
type inputKey struct {
	kind    string
	a, b, c int
	x, y    uint64
	seed    int64
}

// memoize shares one build per key across the process: concurrent callers
// of one key wait for the single build.
func memoize(key inputKey, build func() any) any {
	inputs.Lock()
	get, ok := inputs.m[key]
	if ok {
		inputs.hits++
	} else {
		get = sync.OnceValue(build)
		inputs.m[key] = get
	}
	inputs.Unlock()
	return get()
}

// InputCacheStats returns process-wide input-memo hit/miss counters.
func InputCacheStats() ocl.CacheCounters {
	inputs.Lock()
	defer inputs.Unlock()
	return ocl.CacheCounters{Hits: inputs.hits, Misses: uint64(len(inputs.m))}
}

// ResetInputCache drops every memoized input build and zeroes the counters
// (cold-path benchmarks and tests).
func ResetInputCache() {
	inputs.Lock()
	defer inputs.Unlock()
	inputs.m, inputs.hits = map[inputKey]func() any{}, 0
}

// --- memoized per-kernel input builds ---------------------------------

type vecaddInputs struct{ a, b, want []float32 }

func vecaddInputsFor(n int, seed int64) *vecaddInputs {
	return memoize(inputKey{kind: "vecadd", a: n, seed: seed}, func() any {
		a := workload.Floats(n, seed)
		b := workload.Floats(n, seed+1)
		return &vecaddInputs{a: a, b: b, want: RefVecadd(a, b)}
	}).(*vecaddInputs)
}

type reluInputs struct{ in, want []float32 }

func reluInputsFor(n int, seed int64) *reluInputs {
	return memoize(inputKey{kind: "relu", a: n, seed: seed}, func() any {
		in := workload.Floats(n, seed)
		return &reluInputs{in: in, want: RefRelu(in)}
	}).(*reluInputs)
}

type saxpyInputs struct{ x, y, want []float32 }

func saxpyInputsFor(alpha float32, n int, seed int64) *saxpyInputs {
	return memoize(inputKey{kind: "saxpy", a: n, x: uint64(math.Float32bits(alpha)), seed: seed}, func() any {
		x := workload.Floats(n, seed)
		y := workload.Floats(n, seed+1)
		return &saxpyInputs{x: x, y: y, want: RefSaxpy(alpha, x, y)}
	}).(*saxpyInputs)
}

type sgemmInputs struct{ a, b, want []float32 }

func sgemmInputsFor(m, n, k int, seed int64) *sgemmInputs {
	return memoize(inputKey{kind: "sgemm", a: m, b: n, c: k, seed: seed}, func() any {
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
	return memoize(inputKey{kind: "knn", a: n, x: uint64(math.Float32bits(qlat)), y: uint64(math.Float32bits(qlng)), seed: seed}, func() any {
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
	return memoize(inputKey{kind: "gauss", a: w, b: h, seed: seed}, func() any {
		im := workload.NewPaddedImage(w, h, 2, seed)
		weights := workload.Gaussian5x5()
		return &gaussInputs{im: im, weights: weights, want: RefGauss(im, weights)}
	}).(*gaussInputs)
}

// graphFor memoizes synthetic graph generation (shared by both GCN kernels
// of a campaign, whose registry builds use the same (n, avgDeg, seed)).
func graphFor(n int, avgDeg float64, seed int64) *workload.Graph {
	return memoize(inputKey{kind: "graph", a: n, x: math.Float64bits(avgDeg), seed: seed}, func() any {
		return workload.NewGraph(n, avgDeg, seed)
	}).(*workload.Graph)
}

type gcnAggrInputs struct{ x, want []float32 }

func gcnAggrInputsFor(g *workload.Graph, hs int, seed int64) *gcnAggrInputs {
	return memoize(inputKey{kind: "gcn_aggr", a: hs, x: g.Fingerprint(), seed: seed}, func() any {
		x := workload.Floats(g.N*hs, seed)
		return &gcnAggrInputs{x: x, want: RefGCNAggr(g, x, hs)}
	}).(*gcnAggrInputs)
}

type gcnLayerInputs struct{ x, w, want []float32 }

func gcnLayerInputsFor(g *workload.Graph, hs int, seed int64) *gcnLayerInputs {
	return memoize(inputKey{kind: "gcn_layer", a: hs, x: g.Fingerprint(), seed: seed}, func() any {
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
	return memoize(inputKey{kind: "conv3x3", a: ch, b: w, seed: seed}, func() any {
		in := workload.NewPaddedTensor(ch, w, w, 1, seed)
		weights := workload.Floats(ch*ch*9, seed+1)
		bias := workload.Floats(ch, seed+2)
		return &convInputs{in: in, weights: weights, bias: bias, want: RefConv3x3(in, weights, bias, ch)}
	}).(*convInputs)
}
