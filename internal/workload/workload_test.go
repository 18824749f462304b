package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloatsDeterministicAndBounded(t *testing.T) {
	a := Floats(1000, 7)
	b := Floats(1000, 7)
	c := Floats(1000, 8)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] < -1 || a[i] >= 1 {
			t.Fatalf("value %v out of [-1,1)", a[i])
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestPaddedImageLayout(t *testing.T) {
	im := NewPaddedImage(8, 6, 2, 3)
	if im.Stride() != 12 {
		t.Errorf("stride = %d", im.Stride())
	}
	if len(im.Data) != 12*10 {
		t.Errorf("data len = %d", len(im.Data))
	}
	// Border must be zero.
	for x := 0; x < im.Stride(); x++ {
		if im.Data[x] != 0 || im.Data[len(im.Data)-1-x] != 0 {
			t.Fatal("border not zero")
		}
	}
	// Interior accessor indexes the padded array correctly.
	if im.At(0, 0) != im.Data[2*12+2] {
		t.Error("At(0,0) mismatch")
	}
	if im.At(7, 5) != im.Data[7*12+9] {
		t.Error("At(7,5) mismatch")
	}
}

func TestPaddedTensorLayout(t *testing.T) {
	tn := NewPaddedTensor(3, 4, 4, 1, 5)
	if tn.PlaneStride() != 6 || tn.PlaneSize() != 36 {
		t.Errorf("stride %d size %d", tn.PlaneStride(), tn.PlaneSize())
	}
	if len(tn.Data) != 3*36 {
		t.Errorf("data len = %d", len(tn.Data))
	}
	if tn.At(1, 0, 0) != tn.Data[36+6+1] {
		t.Error("At(1,0,0) mismatch")
	}
	// Channel planes have zero borders.
	for c := 0; c < 3; c++ {
		base := c * 36
		for x := 0; x < 6; x++ {
			if tn.Data[base+x] != 0 {
				t.Fatalf("channel %d border not zero", c)
			}
		}
	}
}

func TestPointsRanges(t *testing.T) {
	p := NewPoints(500, 9)
	for i := range p.Lat {
		if p.Lat[i] < -90 || p.Lat[i] >= 90 {
			t.Fatalf("lat %v out of range", p.Lat[i])
		}
		if p.Lng[i] < -180 || p.Lng[i] >= 180 {
			t.Fatalf("lng %v out of range", p.Lng[i])
		}
	}
}

func TestGraphGeneratorInvariants(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%200 + 2
		g := NewGraph(n, 3.5, seed)
		if g.Validate() != nil {
			return false
		}
		// Every node has its self-loop.
		for i := 0; i < n; i++ {
			found := false
			for e := g.RowPtr[i]; e < g.RowPtr[i+1]; e++ {
				if int(g.Col[e]) == i {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoraShape(t *testing.T) {
	g := NewCora(3)
	if g.N != 2708 {
		t.Errorf("nodes = %d", g.N)
	}
	avg := float64(len(g.Col)) / float64(g.N)
	if avg < 3 || avg > 8 {
		t.Errorf("average degree %.1f implausible for a Cora-shaped graph", avg)
	}
}

func TestGaussian5x5Normalized(t *testing.T) {
	w := Gaussian5x5()
	if len(w) != 25 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for _, v := range w {
		if v <= 0 {
			t.Fatalf("non-positive tap %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("taps sum to %v", sum)
	}
	// Symmetry.
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if w[y*5+x] != w[x*5+y] || w[y*5+x] != w[(4-y)*5+(4-x)] {
				t.Fatal("kernel not symmetric")
			}
		}
	}
	// Center is the max.
	for _, v := range w {
		if v > w[12] {
			t.Fatal("center tap not maximal")
		}
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	g := NewGraph(10, 3, 1)
	bad := *g
	bad.RowPtr = g.RowPtr[:5]
	if bad.Validate() == nil {
		t.Error("short rowptr accepted")
	}
	g2 := NewGraph(10, 3, 1)
	g2.Col[0] = 99
	if g2.Validate() == nil {
		t.Error("out-of-range column accepted")
	}
	g3 := NewGraph(10, 3, 1)
	g3.RowPtr[3], g3.RowPtr[4] = g3.RowPtr[4], g3.RowPtr[3]
	if g3.Validate() == nil {
		t.Error("non-monotone rowptr accepted")
	}
}
