package kernels

import (
	"math"

	"repro/internal/ocl"
	"repro/internal/workload"
)

func sqrt32(f float32) float32 { return float32(math.Sqrt(float64(f))) }

// --- GCN aggregation -----------------------------------------------------

// GCNAggrSource computes mean-neighbor aggregation over a CSR graph:
// OUT[n][f] = (1/deg(n)) * sum_{m in N(n)} IN[m][f], one work item per
// (node, feature) pair (gid = node*HS + f). The per-node edge loop is
// divergent across lanes and uses the ballot/split/join idiom.
// Args: ROWPTR, COL, XIN, XOUT. Defines: GA_HS.
var GCNAggrSource = ocl.KernelSource{
	Name: "gcn_aggr",
	Body: `
	lw   t3, 0(a1)       # rowptr
	lw   t4, 4(a1)       # col
	lw   t5, 8(a1)       # xin
	lw   t6, 12(a1)      # xout
	li   t0, GA_HS
	divu a2, a0, t0      # node
	remu a3, a0, t0      # feature
	slli t1, a2, 2
	add  t1, t1, t3
	lw   a4, 0(t1)       # start
	lw   a5, 4(t1)       # end
	sub  a6, a5, a4      # degree
	fmv.w.x f0, zero
__ga_loop:
	slt  t0, a4, a5
	vx_ballot t1, t0
	beqz t1, __ga_done
	vx_split t0
	beqz t0, __ga_skip
	slli t1, a4, 2
	add  t1, t1, t4
	lw   t2, 0(t1)       # neighbor id
	li   t1, GA_HS
	mul  t2, t2, t1
	add  t2, t2, a3
	slli t2, t2, 2
	add  t2, t2, t5
	flw  f1, 0(t2)
	fadd.s f0, f0, f1
	addi a4, a4, 1
__ga_skip:
	vx_join
	j __ga_loop
__ga_done:
	seqz t1, a6          # avoid /0 for isolated nodes
	add  a6, a6, t1
	fcvt.s.wu f1, a6
	fdiv.s f0, f0, f1
	slli t1, a0, 2
	add  t6, t6, t1
	fsw  f0, 0(t6)
`,
}

// BuildGCNAggr prepares mean aggregation over graph g with hs features.
func BuildGCNAggr(d *ocl.Device, g *workload.Graph, hs int, seed int64) (*Case, error) {
	x := workload.Floats(g.N*hs, seed)
	b := &binder{d: d}
	rowptr, col, xin, xout := b.words(g.RowPtr), b.words(g.Col), b.floats(x), b.alloc(g.N*hs)
	b.launch(GCNAggrSource, map[string]int64{"GA_HS": int64(hs)}, g.N*hs, rowptr, col, xin, xout)
	return b.verified("gcn_aggr", xout, RefGCNAggr(g, x, hs))
}

// RefGCNAggr is the CPU reference (sum in CSR order, then mean).
func RefGCNAggr(g *workload.Graph, x []float32, hs int) []float32 {
	out := make([]float32, g.N*hs)
	for n := 0; n < g.N; n++ {
		start, end := g.RowPtr[n], g.RowPtr[n+1]
		deg := end - start
		if deg == 0 {
			deg = 1
		}
		inv := float32(deg)
		for f := 0; f < hs; f++ {
			var acc float32
			for e := start; e < end; e++ {
				acc += x[int(g.Col[e])*hs+f]
			}
			out[n*hs+f] = acc / inv
		}
	}
	return out
}

// --- GCN layer -----------------------------------------------------------

// BuildGCNLayer prepares the combined GCN layer: a dense transform
// T = X x W (hs x hs weights) followed by neighbor aggregation of T —
// two launches whose lws are tuned independently, like the paper's
// combined-kernel experiments.
func BuildGCNLayer(d *ocl.Device, g *workload.Graph, hs int, seed int64) (*Case, error) {
	x, w := workload.Floats(g.N*hs, seed), workload.Floats(hs*hs, seed+1)
	b := &binder{d: d}
	rowptr, col, xin, xout := b.words(g.RowPtr), b.words(g.Col), b.floats(x), b.alloc(g.N*hs)
	bufW, tmp := b.floats(w), b.alloc(g.N*hs)
	// Launch 1: T = X x W via the sgemm kernel (M=N nodes, N=K=hs).
	transform := SgemmSource
	transform.Name = "gcn_transform"
	b.launch(transform, map[string]int64{"SG_N": int64(hs), "SG_K": int64(hs)}, g.N*hs, xin, bufW, tmp)
	// Launch 2: aggregate T over the graph.
	b.launch(GCNAggrSource, map[string]int64{"GA_HS": int64(hs)}, g.N*hs, rowptr, col, tmp, xout)
	return b.verified("gcn_layer", xout, RefGCNAggr(g, RefSgemm(x, w, g.N, hs, hs), hs))
}

// --- ResNet20 conv layer ---------------------------------------------------

// Conv3x3Source computes a same-padding 3x3 convolution with bias and
// fused ReLU over a zero-padded CHW tensor (pad=1): one work item per
// output element, gid = ((oc*H)+y)*W + x. Args: IN (padded), WEIGHTS
// (oc x ic x 3 x 3), BIAS, OUT. Defines: CV_C (input channels), CV_W
// (interior width, image assumed square), CV_PW (= CV_W+2).
var Conv3x3Source = ocl.KernelSource{
	Name: "conv3x3",
	Body: `
	lw   t3, 0(a1)       # in (padded)
	lw   t4, 4(a1)       # weights
	lw   t5, 8(a1)       # bias
	lw   t6, 12(a1)      # out
	li   t0, CV_W*CV_W
	divu a2, a0, t0      # oc
	remu a3, a0, t0
	li   t0, CV_W
	divu a4, a3, t0      # y
	remu a5, a3, t0      # x
	li   t0, CV_PW
	mul  t1, a4, t0
	add  t1, t1, a5
	slli t1, t1, 2
	add  t3, t3, t1      # &in[0][y][x] (window top-left, pad=1)
	li   t0, CV_C*36
	mul  t1, a2, t0
	add  t4, t4, t1      # &w[oc][0][0][0]
	slli t1, a2, 2
	add  t1, t1, t5
	flw  f0, 0(t1)       # acc = bias[oc]
	li   a6, 0
	li   a7, CV_C
__cv_ic:
	flw  f1, 0(t3)
	flw  f2, 0(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, 4(t3)
	flw  f2, 4(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, 8(t3)
	flw  f2, 8(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, CV_PW*4+0(t3)
	flw  f2, 12(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, CV_PW*4+4(t3)
	flw  f2, 16(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, CV_PW*4+8(t3)
	flw  f2, 20(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, CV_PW*8+0(t3)
	flw  f2, 24(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, CV_PW*8+4(t3)
	flw  f2, 28(t4)
	fmadd.s f0, f1, f2, f0
	flw  f1, CV_PW*8+8(t3)
	flw  f2, 32(t4)
	fmadd.s f0, f1, f2, f0
	li   t0, CV_PW*CV_PW*4
	add  t3, t3, t0      # next input channel plane
	addi t4, t4, 36      # next 3x3 weight block
	addi a6, a6, 1
	blt  a6, a7, __cv_ic
	fmv.w.x f1, zero
	fmax.s f0, f0, f1    # fused ReLU
	slli t1, a0, 2
	add  t6, t6, t1
	fsw  f0, 0(t6)
`,
}

// BuildConv3x3 prepares one ResNet20-style conv3x3(ch->ch)+bias+ReLU layer
// over a w x w image (CIFAR-10 layer: ch=16, w=32).
func BuildConv3x3(d *ocl.Device, ch, w int, seed int64) (*Case, error) {
	if err := checkSizes("resnet20_layer", ch, w); err != nil {
		return nil, err
	}
	in := workload.NewPaddedTensor(ch, w, w, 1, seed)
	weights, bias := workload.Floats(ch*ch*9, seed+1), workload.Floats(ch, seed+2)
	b := &binder{d: d}
	bufIn, bufW, bufB := b.floats(in.Data), b.floats(weights), b.floats(bias)
	bufOut := b.alloc(ch * w * w)
	defs := map[string]int64{"CV_C": int64(ch), "CV_W": int64(w), "CV_PW": int64(w + 2)}
	b.launch(Conv3x3Source, defs, ch*w*w, bufIn, bufW, bufB, bufOut)
	return b.verified("resnet20_layer", bufOut, RefConv3x3(in, weights, bias, ch))
}

// RefConv3x3 is the CPU reference, accumulating in the device's order
// (per input channel: window rows top to bottom, left to right).
func RefConv3x3(in *workload.PaddedTensor, weights, bias []float32, outCh int) []float32 {
	w, h := in.W, in.H
	stride := in.PlaneStride()
	plane := in.PlaneSize()
	out := make([]float32, outCh*w*h)
	for oc := 0; oc < outCh; oc++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				acc := bias[oc]
				for ic := 0; ic < in.C; ic++ {
					base := ic*plane + y*stride + x
					wbase := (oc*in.C + ic) * 9
					for r := 0; r < 3; r++ {
						for c := 0; c < 3; c++ {
							acc = fma32(in.Data[base+r*stride+c], weights[wbase+r*3+c], acc)
						}
					}
				}
				if acc < 0 {
					acc = 0
				}
				out[(oc*h+y)*w+x] = acc
			}
		}
	}
	return out
}
