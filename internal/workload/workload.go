// Package workload generates deterministic synthetic inputs for the
// benchmark kernels: dense tensors, point clouds for nearest-neighbor
// search, padded images, and a Cora-shaped sparse graph in CSR form. The
// paper's datasets (Cora, CIFAR-10, the 42764-point cloud from the Rodinia
// nn benchmark) are replaced by generators that match their sizes and
// sparsity, which is what determines execution behaviour on the simulator;
// DESIGN.md at the repository root records the substitution table.
package workload

import (
	"fmt"
	"math/rand"
)

// Floats returns n pseudo-random float32 values in [-1, 1), deterministic
// in seed.
func Floats(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.Float64()*2 - 1)
	}
	return out
}

// PaddedImage is a 2-D float32 image stored with a constant-width zero
// border, as consumed by the stencil kernels.
type PaddedImage struct {
	W, H int // interior size
	Pad  int
	Data []float32 // (W+2Pad) x (H+2Pad), row-major
}

// Stride returns the padded row length.
func (im *PaddedImage) Stride() int { return im.W + 2*im.Pad }

// At returns the interior pixel (x, y).
func (im *PaddedImage) At(x, y int) float32 {
	return im.Data[(y+im.Pad)*im.Stride()+(x+im.Pad)]
}

// NewPaddedImage builds a random interior with a zero border.
func NewPaddedImage(w, h, pad int, seed int64) *PaddedImage {
	r := rand.New(rand.NewSource(seed))
	im := &PaddedImage{W: w, H: h, Pad: pad}
	im.Data = make([]float32, (w+2*pad)*(h+2*pad))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Data[(y+pad)*im.Stride()+(x+pad)] = float32(r.Float64()*2 - 1)
		}
	}
	return im
}

// PaddedTensor is a CHW float32 tensor where each channel plane carries a
// zero border of width Pad (for convolutions).
type PaddedTensor struct {
	C, W, H int
	Pad     int
	Data    []float32 // C x (H+2Pad) x (W+2Pad)
}

// PlaneStride returns the padded row length.
func (t *PaddedTensor) PlaneStride() int { return t.W + 2*t.Pad }

// PlaneSize returns the padded plane element count.
func (t *PaddedTensor) PlaneSize() int {
	return (t.W + 2*t.Pad) * (t.H + 2*t.Pad)
}

// At returns interior element (c, x, y).
func (t *PaddedTensor) At(c, x, y int) float32 {
	return t.Data[c*t.PlaneSize()+(y+t.Pad)*t.PlaneStride()+(x+t.Pad)]
}

// NewPaddedTensor builds a random CHW tensor with zero borders.
func NewPaddedTensor(c, w, h, pad int, seed int64) *PaddedTensor {
	r := rand.New(rand.NewSource(seed))
	t := &PaddedTensor{C: c, W: w, H: h, Pad: pad}
	t.Data = make([]float32, c*t.PlaneSize())
	for ch := 0; ch < c; ch++ {
		base := ch * t.PlaneSize()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				t.Data[base+(y+pad)*t.PlaneStride()+(x+pad)] = float32(r.Float64()*2 - 1)
			}
		}
	}
	return t
}

// Points is a structure-of-arrays 2-D point cloud (the Rodinia nn layout:
// latitude/longitude records).
type Points struct {
	Lat []float32
	Lng []float32
}

// NewPoints generates n points, deterministic in seed.
func NewPoints(n int, seed int64) *Points {
	r := rand.New(rand.NewSource(seed))
	p := &Points{Lat: make([]float32, n), Lng: make([]float32, n)}
	for i := 0; i < n; i++ {
		p.Lat[i] = float32(r.Float64()*180 - 90)
		p.Lng[i] = float32(r.Float64()*360 - 180)
	}
	return p
}

// Graph is a directed graph in CSR form.
type Graph struct {
	N      int
	RowPtr []uint32 // length N+1
	Col    []uint32 // length E
}

// Degree returns the out-degree of node n.
func (g *Graph) Degree(n int) int { return int(g.RowPtr[n+1] - g.RowPtr[n]) }

// Validate checks CSR invariants.
func (g *Graph) Validate() error {
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("workload: rowptr length %d != N+1 (%d)", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 || int(g.RowPtr[g.N]) != len(g.Col) {
		return fmt.Errorf("workload: rowptr endpoints invalid")
	}
	for i := 0; i < g.N; i++ {
		if g.RowPtr[i] > g.RowPtr[i+1] {
			return fmt.Errorf("workload: rowptr not monotone at %d", i)
		}
	}
	for _, c := range g.Col {
		if int(c) >= g.N {
			return fmt.Errorf("workload: column %d out of range", c)
		}
	}
	return nil
}

// NewGraph generates a graph with n nodes and approximately avgDeg
// out-edges per node, with a heavy-tailed degree distribution similar to
// citation networks: node i's degree is drawn around avgDeg but a small
// fraction of hub nodes get several times more. Self-loops are included
// (as in GCN aggregation with renormalization). Deterministic in seed.
func NewGraph(n int, avgDeg float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := &Graph{N: n, RowPtr: make([]uint32, n+1)}
	var col []uint32
	for i := 0; i < n; i++ {
		deg := 1 + r.Intn(int(2*avgDeg)) // mean ~ avgDeg + 0.5
		if r.Float64() < 0.02 {          // hubs
			deg *= 4 + r.Intn(5)
		}
		col = append(col, uint32(i)) // self-loop
		for k := 0; k < deg; k++ {
			col = append(col, uint32(r.Intn(n)))
		}
		g.RowPtr[i+1] = uint32(len(col))
	}
	g.Col = col
	return g
}

// Cora dataset shape: 2708 nodes, ~10556 directed edges (5429 undirected).
const (
	CoraNodes  = 2708
	CoraAvgDeg = 3.9
	CoraHidden = 16
)

// NewCora returns a Cora-shaped synthetic graph.
func NewCora(seed int64) *Graph { return NewGraph(CoraNodes, CoraAvgDeg, seed) }

// KNNPoints is the point count of the Rodinia nn input the paper uses.
const KNNPoints = 42764

// Gaussian5x5 returns the normalized 5x5 Gaussian filter taps
// (sigma ~= 1, the classic 1-4-6-4-1 binomial kernel).
func Gaussian5x5() []float32 {
	row := [5]float32{1, 4, 6, 4, 1}
	out := make([]float32, 25)
	var sum float32
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			v := row[y] * row[x]
			out[y*5+x] = v
			sum += v
		}
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
