package kernels

import (
	"repro/internal/ocl"
	"repro/internal/workload"
)

// --- vecadd -----------------------------------------------------------

// VecaddSource computes C[i] = A[i] + B[i]. Args: A, B, C.
var VecaddSource = ocl.KernelSource{
	Name: "vecadd",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	lw   t5, 8(a1)
	slli t6, a0, 2
	add  t3, t3, t6
	add  t4, t4, t6
	add  t5, t5, t6
	flw  f0, 0(t3)
	flw  f1, 0(t4)
	fadd.s f2, f0, f1
	fsw  f2, 0(t5)
`,
}

// BuildVecadd prepares an n-element vector addition.
func BuildVecadd(d *ocl.Device, n int, seed int64) (*Case, error) {
	if err := checkSizes("vecadd", n); err != nil {
		return nil, err
	}
	x, y := workload.Floats(n, seed), workload.Floats(n, seed+1)
	b := &binder{d: d}
	bufA, bufB, bufC := b.floats(x), b.floats(y), b.alloc(n)
	b.launch(VecaddSource, nil, n, bufA, bufB, bufC)
	return b.verified("vecadd", bufC, RefVecadd(x, y))
}

// RefVecadd is the CPU reference.
func RefVecadd(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// --- relu -------------------------------------------------------------

// ReluSource computes OUT[i] = max(IN[i], 0). Args: IN, OUT.
var ReluSource = ocl.KernelSource{
	Name: "relu",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	slli t5, a0, 2
	add  t3, t3, t5
	add  t4, t4, t5
	flw  f0, 0(t3)
	fmv.w.x f1, zero
	fmax.s f2, f0, f1
	fsw  f2, 0(t4)
`,
}

// BuildRelu prepares an n-element ReLU.
func BuildRelu(d *ocl.Device, n int, seed int64) (*Case, error) {
	if err := checkSizes("relu", n); err != nil {
		return nil, err
	}
	in := workload.Floats(n, seed)
	b := &binder{d: d}
	bufI, bufO := b.floats(in), b.alloc(n)
	b.launch(ReluSource, nil, n, bufI, bufO)
	return b.verified("relu", bufO, RefRelu(in))
}

// RefRelu is the CPU reference.
func RefRelu(in []float32) []float32 {
	out := make([]float32, len(in))
	for i, v := range in {
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// --- saxpy ------------------------------------------------------------

// SaxpySource computes Y[i] = a*X[i] + Y[i]. Args: X, Y, a.
var SaxpySource = ocl.KernelSource{
	Name: "saxpy",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	flw  f3, 8(a1)
	slli t5, a0, 2
	add  t3, t3, t5
	add  t4, t4, t5
	flw  f0, 0(t3)
	flw  f1, 0(t4)
	fmadd.s f2, f3, f0, f1
	fsw  f2, 0(t4)
`,
}

// BuildSaxpy prepares an n-element saxpy with a = 2.5.
func BuildSaxpy(d *ocl.Device, n int, seed int64) (*Case, error) {
	if err := checkSizes("saxpy", n); err != nil {
		return nil, err
	}
	const alpha = float32(2.5)
	x, y := workload.Floats(n, seed), workload.Floats(n, seed+1)
	b := &binder{d: d}
	bufX, bufY := b.floats(x), b.floats(y)
	b.launch(SaxpySource, nil, n, bufX, bufY, alpha)
	return b.verified("saxpy", bufY, RefSaxpy(alpha, x, y))
}

// RefSaxpy is the CPU reference (fused multiply-add, like the device).
func RefSaxpy(alpha float32, x, y []float32) []float32 {
	out := make([]float32, len(x))
	for i := range x {
		out[i] = fma32(alpha, x[i], y[i])
	}
	return out
}

// --- sgemm ------------------------------------------------------------

// SgemmSource computes C[MxN] = A[MxK] x B[KxN], one work item per output
// element (gid = row*N + col). Args: A, B, C. Defines: SG_N, SG_K.
var SgemmSource = ocl.KernelSource{
	Name: "sgemm",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	lw   t5, 8(a1)
	li   t6, SG_N
	divu a2, a0, t6      # row
	remu a3, a0, t6      # col
	li   a4, SG_K
	li   t0, SG_K*4
	mul  t1, a2, t0
	add  t3, t3, t1      # &A[row][0]
	slli t1, a3, 2
	add  t4, t4, t1      # &B[0][col]
	li   t2, SG_N*4      # B row stride
	fmv.w.x f0, zero
	li   a5, 0
__sg_loop:
	flw  f1, 0(t3)
	flw  f2, 0(t4)
	fmadd.s f0, f1, f2, f0
	addi t3, t3, 4
	add  t4, t4, t2
	addi a5, a5, 1
	blt  a5, a4, __sg_loop
	slli t1, a0, 2
	add  t5, t5, t1
	fsw  f0, 0(t5)
`,
}

// BuildSgemm prepares C[m x n] = A[m x k] x B[k x n] (the paper's
// x:256 y:16 z:144 corresponds to m=256, n=16, k=144).
func BuildSgemm(d *ocl.Device, m, n, k int, seed int64) (*Case, error) {
	if err := checkSizes("sgemm", m, n, k); err != nil {
		return nil, err
	}
	x, y := workload.Floats(m*k, seed), workload.Floats(k*n, seed+1)
	b := &binder{d: d}
	bufA, bufB, bufC := b.floats(x), b.floats(y), b.alloc(m*n)
	b.launch(SgemmSource, map[string]int64{"SG_N": int64(n), "SG_K": int64(k)}, m*n, bufA, bufB, bufC)
	return b.verified("sgemm", bufC, RefSgemm(x, y, m, n, k))
}

// RefSgemm is the CPU reference (fused multiply-adds in k order).
func RefSgemm(a, b []float32, m, n, k int) []float32 {
	out := make([]float32, m*n)
	for r := 0; r < m; r++ {
		for c := 0; c < n; c++ {
			var acc float32
			for i := 0; i < k; i++ {
				acc = fma32(a[r*k+i], b[i*n+c], acc)
			}
			out[r*n+c] = acc
		}
	}
	return out
}

// --- knn --------------------------------------------------------------

// KNNSource computes the Euclidean distance of every point to a query
// (the Rodinia nn kernel). Args: LAT, LNG, DIST, qlat, qlng.
var KNNSource = ocl.KernelSource{
	Name: "knn",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	lw   t5, 8(a1)
	flw  f3, 12(a1)
	flw  f4, 16(a1)
	slli t6, a0, 2
	add  t3, t3, t6
	add  t4, t4, t6
	add  t5, t5, t6
	flw  f0, 0(t3)
	flw  f1, 0(t4)
	fsub.s f0, f0, f3
	fsub.s f1, f1, f4
	fmul.s f0, f0, f0
	fmadd.s f0, f1, f1, f0
	fsqrt.s f0, f0
	fsw  f0, 0(t5)
`,
}

// BuildKNN prepares an n-point nearest-neighbor distance computation.
func BuildKNN(d *ocl.Device, n int, seed int64) (*Case, error) {
	if err := checkSizes("knn", n); err != nil {
		return nil, err
	}
	const qlat, qlng = float32(30.5), float32(-120.25)
	pts := workload.NewPoints(n, seed)
	b := &binder{d: d}
	bufLat, bufLng, bufDist := b.floats(pts.Lat), b.floats(pts.Lng), b.alloc(n)
	b.launch(KNNSource, nil, n, bufLat, bufLng, bufDist, qlat, qlng)
	return b.verified("knn", bufDist, RefKNN(pts, qlat, qlng))
}

// RefKNN is the CPU reference.
func RefKNN(p *workload.Points, qlat, qlng float32) []float32 {
	out := make([]float32, len(p.Lat))
	for i := range out {
		dlat := p.Lat[i] - qlat
		dlng := p.Lng[i] - qlng
		s := fma32(dlng, dlng, dlat*dlat)
		out[i] = sqrt32(s)
	}
	return out
}

// --- gaussian filter ----------------------------------------------------

// GaussSource applies a 5x5 convolution over a zero-padded image (pad=2).
// One work item per interior pixel (gid = y*W + x). Args: IN (padded),
// OUT, WEIGHTS (25 floats). Defines: GF_W (interior width).
var GaussSource = ocl.KernelSource{
	Name: "gauss",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	lw   t5, 8(a1)
	li   t6, GF_W
	divu a2, a0, t6      # y
	remu a3, a0, t6      # x
	li   t0, (GF_W+4)*4  # padded row stride in bytes
	mul  t1, a2, t0
	slli t2, a3, 2
	add  t1, t1, t2
	add  t3, t3, t1      # window top-left in padded image
	fmv.w.x f0, zero
	li   a4, 0
__gf_row:
	flw  f1, 0(t3)
	flw  f2, 0(t5)
	fmadd.s f0, f1, f2, f0
	flw  f1, 4(t3)
	flw  f2, 4(t5)
	fmadd.s f0, f1, f2, f0
	flw  f1, 8(t3)
	flw  f2, 8(t5)
	fmadd.s f0, f1, f2, f0
	flw  f1, 12(t3)
	flw  f2, 12(t5)
	fmadd.s f0, f1, f2, f0
	flw  f1, 16(t3)
	flw  f2, 16(t5)
	fmadd.s f0, f1, f2, f0
	add  t3, t3, t0
	addi t5, t5, 20
	addi a4, a4, 1
	li   t1, 5
	blt  a4, t1, __gf_row
	slli t1, a0, 2
	add  t4, t4, t1
	fsw  f0, 0(t4)
`,
}

// BuildGauss prepares a w x h Gaussian blur. Its output buffer is
// allocated between the image and the weights, an order the golden digests
// pin.
func BuildGauss(d *ocl.Device, w, h int, seed int64) (*Case, error) {
	if err := checkSizes("gauss", w, h); err != nil {
		return nil, err
	}
	im, weights := workload.NewPaddedImage(w, h, 2, seed), workload.Gaussian5x5()
	b := &binder{d: d}
	bufIn, bufOut, bufW := b.floats(im.Data), b.alloc(w*h), b.floats(weights)
	b.launch(GaussSource, map[string]int64{"GF_W": int64(w)}, w*h, bufIn, bufOut, bufW)
	return b.verified("gauss", bufOut, RefGauss(im, weights))
}

// RefGauss is the CPU reference, accumulating in the device's order
// (window rows top to bottom, left to right).
func RefGauss(im *workload.PaddedImage, weights []float32) []float32 {
	out := make([]float32, im.W*im.H)
	stride := im.Stride()
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var acc float32
			for r := 0; r < 5; r++ {
				base := (y+r)*stride + x
				for c := 0; c < 5; c++ {
					acc = fma32(im.Data[base+c], weights[r*5+c], acc)
				}
			}
			out[y*im.W+x] = acc
		}
	}
	return out
}
